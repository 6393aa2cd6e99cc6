import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ptwalk.bulk import (
    GAP_TOL,
    bloch_coefficients,
    bloch_fold,
    bulk_gap_status,
    dispersion,
    phase_diagram,
    quasienergy,
    winding_number,
    write_dispersion_csv,
    write_phase_diagram_csv,
)
from ptwalk.errors import GapClosedError
from ptwalk.operators import CoinProfile, Lattice, WalkSpec, build_walk_operator

PI = math.pi

# reference points used throughout: (theta1/pi, theta2/pi) -> (nu', nu_shifted)
WINDING_POINTS = {
    (0.4, 0.1): (-3, 0),
    (0.7, 0.05): (-3, 0),
    (0.9, 0.2): (-1, 1),
    (-0.2, 0.3): (1, 2),
    (-0.6, 0.2): (3, 3),
    (-0.6, 0.15): (3, 3),
}

angles = st.floats(-PI, PI, allow_nan=False)
gammas = st.floats(-0.3, 0.3, allow_nan=False)


# The k-grid routines the closed forms replaced, kept as slow oracles.

def grid_max_abs_d0(t1, t2, gamma, k_res=8192):
    k = np.linspace(-PI, PI, k_res + 1)
    return float(np.max(np.abs(bloch_coefficients(t1, t2, gamma, k).d0)))


def grid_nu_shifted(t1, t2, gamma, k_res=8192):
    """Shifted winding from wrapped phase increments on a k grid.

    None where the grid cannot be trusted: a single increment beyond
    pi/2, or a total away from an integer.
    """
    co = bloch_coefficients(t1, t2, gamma, np.linspace(-PI, PI, k_res + 1))
    steps = np.diff(np.arctan2(co.d3, co.d2))
    steps = (steps + PI) % (2 * PI) - PI
    if np.max(np.abs(steps)) >= PI / 2:
        return None
    total = float(np.sum(steps)) / (2 * PI)
    nu = round(total)
    if abs(total - nu) > 1e-6:
        return None
    return int(round(nu / 2 + 1.5))


def assert_matches_grid(t1, t2, gamma):
    """Closed-form gap and winding agree with the grid wherever it resolves.

    Returns whether the grid resolved the point.
    """
    status = bulk_gap_status(t1, t2, gamma)
    grid_max = grid_max_abs_d0(t1, t2, gamma)
    # the grid samples d0, so it can only under-estimate the maximum
    assert grid_max <= status.max_abs_d0 + 1e-15
    if grid_max >= 1.0 - GAP_TOL:
        assert not status.gap_open
        return True
    grid_nu = grid_nu_shifted(t1, t2, gamma)
    if grid_nu is None:
        return False
    assert status.gap_open
    assert winding_number(t1, t2, gamma).nu_shifted == grid_nu
    return True


class TestBlochCoefficients:
    @given(angles, angles, gammas)
    @settings(max_examples=100, deadline=None)
    def test_identity(self, t1, t2, g):
        k = np.linspace(-PI, PI, 257)
        co = bloch_coefficients(t1, t2, g, k)
        assert co.identity_residual() < 1e-12

    def test_gamma_enters_through_d1(self):
        k = np.linspace(-PI, PI, 64)
        a = bloch_coefficients(0.3, 0.2, 0.0, k)
        assert not a.d1.any()
        b = bloch_coefficients(0.3, 0.2, 0.1, k)
        assert np.max(np.abs(b.d1)) > 0
        # d3 never depends on gamma
        assert np.array_equal(a.d3, b.d3)


class TestQuasienergy:
    def test_branch_convention(self):
        eps = quasienergy(np.array([1.0, -1.0, 1j, 0.5]))
        assert eps[0] == 0
        assert eps[1].real == PI  # not -pi
        assert eps[2].real == pytest.approx(-PI / 2)
        assert eps[3].imag == pytest.approx(math.log(0.5))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_is_exactly_minus_infinite(self):
        eps = quasienergy(np.array([0.0, 1.0]))
        assert eps[0].real == 0.0
        assert eps[0].imag == -math.inf
        assert eps[1] == 0
        assert quasienergy(0j) == complex(0.0, -math.inf)

    def test_inverts_exponential(self):
        lam = np.exp(1j * np.linspace(-3, 3, 11)) * 1.1
        eps = quasienergy(lam)
        assert np.allclose(np.exp(-1j * eps), lam)


class TestDispersion:
    def test_real_bands_where_pt_unbroken(self):
        disp = dispersion(0.4 * PI, 0.1 * PI, 0.1, k_res=256)
        assert not disp.pt_broken.any()
        assert np.max(np.abs(disp.eps_plus.imag)) < 1e-12
        assert np.allclose(np.abs(disp.lam_plus), 1.0)

    def test_broken_segment_has_reciprocal_moduli(self):
        disp = dispersion(0.25 * PI, 0.25 * PI, 0.1, k_res=512)
        assert disp.pt_broken.any() and not disp.pt_broken.all()
        sel = disp.pt_broken
        prod = np.abs(disp.lam_plus[sel]) * np.abs(disp.lam_minus[sel])
        assert np.allclose(prod, 1.0)
        assert np.max(np.abs(disp.eps_plus[sel].imag)) > 0

    def test_spectrum_closes_under_negation(self):
        # d0(k + pi) = -d0(k), so the two-band spectrum as a whole
        # maps onto its own negative
        disp = dispersion(-0.6 * PI, 0.2 * PI, 0.1, k_res=128)
        lams = np.concatenate([disp.lam_plus[:-1], disp.lam_minus[:-1]])
        for lam in lams[::7]:
            assert np.min(np.abs(lams + lam)) < 1e-12

    @pytest.mark.parametrize("k_res", [0, -1])
    def test_empty_grid_rejected(self, k_res):
        with pytest.raises(ValueError, match="k_res must be at least 1"):
            dispersion(0.4 * PI, 0.1 * PI, 0.1, k_res=k_res)


class TestGapStatus:
    def test_open_point(self):
        s = bulk_gap_status(0.4 * PI, 0.1 * PI, 0.1)
        assert s.gap_open
        assert s.max_abs_d0 == pytest.approx(0.6278857508880469, rel=1e-12)
        assert s.gap == pytest.approx(np.arccos(s.max_abs_d0), rel=1e-12)

    def test_broken_point(self):
        s = bulk_gap_status(0.25 * PI, 0.25 * PI, 0.1)
        assert not s.gap_open
        assert s.max_abs_d0 == pytest.approx(1.0100501372634403, rel=1e-12)
        assert s.gap == 0

    @pytest.mark.parametrize("point", [(0.4, 0.1), (0.25, 0.25)])
    def test_fine_grid_approaches_exact_maximum_from_below(self, point):
        t1, t2 = point[0] * PI, point[1] * PI
        exact = bulk_gap_status(t1, t2, 0.1).max_abs_d0
        grid = grid_max_abs_d0(t1, t2, 0.1, k_res=2**16)
        assert exact - 1e-8 <= grid <= exact

    def test_touch_point_is_gapless(self):
        # at theta1 = theta2 = 0 the bands touch |d0| = 1 exactly
        s = bulk_gap_status(0.0, 0.0, 0.0)
        assert not s.gap_open
        assert s.max_abs_d0 == 1.0


class TestWindingNumber:
    @pytest.mark.parametrize("point,expected", WINDING_POINTS.items())
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_reference_points(self, point, expected, gamma):
        t1, t2 = point
        res = winding_number(t1 * PI, t2 * PI, gamma)
        assert (res.nu_prime, res.nu_shifted) == expected

    def test_gap_closed_raises(self):
        with pytest.raises(GapClosedError):
            winding_number(0.25 * PI, 0.25 * PI, 0.1)

    @given(st.sampled_from(sorted(WINDING_POINTS)), gammas)
    @settings(max_examples=25, deadline=None)
    def test_gamma_invariance(self, point, gamma):
        t1, t2 = point
        try:
            res = winding_number(t1 * PI, t2 * PI, gamma, k_res=2048)
        except GapClosedError:
            return  # strong gain can close the gap; no claim then
        assert res.nu_prime == WINDING_POINTS[point][0]


class TestGridOracle:
    def test_random_points(self):
        rng = np.random.default_rng(20190527)
        points = zip(rng.uniform(-PI, PI, 300), rng.uniform(-PI, PI, 300),
                     rng.uniform(-0.3, 0.3, 300))
        assert all(assert_matches_grid(*p) for p in points)

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_subsampled_fig3_grid(self, gamma):
        grid = np.linspace(-PI, PI, 101)[::4]
        for t1 in grid:
            for t2 in grid:
                if not assert_matches_grid(t1, t2, gamma):
                    # the cells the grid cannot resolve are gapless cells
                    # whose touching point falls between grid momenta
                    assert not bulk_gap_status(t1, t2, gamma).gap_open


def fold_floor(spec):
    """Smallest |Re eps| over the phases, both bands and the default k."""
    return float(np.abs(quasienergy(bloch_fold(spec)).real).min())


class TestBlochFold:
    @pytest.mark.parametrize("num_sites", [31, 40])
    @pytest.mark.parametrize("kind,delta", [("three_step", 0.0),
                                            ("three_step_perturbed", 0.05)])
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_matches_periodic_ring(self, num_sites, kind, delta, gamma):
        # a homogeneous ring of N sites holds exactly the momenta 2 pi n / N
        profile = CoinProfile.homogeneous(0.3 * PI, -0.15 * PI, delta=delta)
        spec = WalkSpec(kind=kind, lattice=Lattice(num_sites),
                        profile=profile, gamma=gamma)
        dense = scipy.linalg.eigvals(build_walk_operator(spec).matrix)
        k = 2 * PI * np.arange(num_sites) / num_sites
        folded = bloch_fold(spec, k).ravel()
        cost = np.abs(dense[:, None] - folded[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-12

    def test_two_phases(self):
        profile = CoinProfile.left_right((0.75 * PI, 0.05 * PI), (-PI / 3, 0.0))
        spec = WalkSpec(kind="three_step", lattice=Lattice(11), profile=profile)
        k = np.linspace(0.0, PI, 7)
        assert bloch_fold(spec, k).shape == (2, 2, 7)
        for side, angles in enumerate([(0.75 * PI, 0.05 * PI), (-PI / 3, 0.0)]):
            alone = dataclasses.replace(spec,
                                        profile=CoinProfile.homogeneous(*angles))
            np.testing.assert_array_equal(bloch_fold(alone, k)[0],
                                          bloch_fold(spec, k)[side])

    def test_floor_matches_closed_form_gap(self):
        rng = np.random.default_rng(20241018)
        checked = 0
        while checked < 200:
            t1, t2 = rng.uniform(-PI, PI, 2)
            gamma = rng.uniform(0.0, 0.3)
            status = bulk_gap_status(t1, t2, gamma)
            if not status.gap_open:
                continue
            spec = WalkSpec(kind="three_step", lattice=Lattice(11),
                            profile=CoinProfile.homogeneous(t1, t2), gamma=gamma)
            assert fold_floor(spec) == pytest.approx(status.gap, abs=1e-5)
            checked += 1

    @pytest.mark.parametrize("delta,want", [(0.0, 0.150), (0.02, 0.144),
                                            (0.05, 0.134)])
    def test_c08_large_gap_floor(self, delta, want):
        profile = CoinProfile.left_right((0.75 * PI, 0.05 * PI), (-PI / 3, 0.0),
                                         delta=delta)
        kind = "three_step_perturbed" if delta else "three_step"
        spec = WalkSpec(kind=kind, lattice=Lattice(801), profile=profile)
        assert fold_floor(spec) / PI == pytest.approx(want, abs=0.002)


class TestPhaseDiagram:
    def test_small_grid(self):
        t1s = np.array([0.4, 0.25, -0.6]) * PI
        t2s = np.array([0.1, 0.25]) * PI
        pd = phase_diagram(t1s, t2s, 0.1)
        assert pd.nu_shifted[0, 0] == 0
        assert pd.nu_shifted[2, 0] == 3
        # (pi/4, pi/4) is PT broken at gamma = 0.1
        assert not pd.gap_open[1, 1]
        assert np.isnan(pd.nu_shifted[1, 1])


class TestCsv:
    def test_dispersion_rows(self, tmp_path):
        disp = dispersion(0.4 * PI, 0.1 * PI, 0.1, k_res=16)
        path = tmp_path / "disp.csv"
        write_dispersion_csv(disp, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("k,re_eps_plus,im_eps_plus,re_eps_minus,"
                            "im_eps_minus,pt_broken")
        assert len(lines) == 18
        assert lines[1].endswith(",false")

    def test_phase_diagram_empty_cell(self, tmp_path):
        pd = phase_diagram(np.array([0.25 * PI]), np.array([0.1, 0.25]) * PI,
                           0.1)
        path = tmp_path / "pd.csv"
        write_phase_diagram_csv(pd, path)
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[3] == "0"
        assert lines[2].split(",")[3] == ""  # gapless: no number

    def test_byte_determinism(self, tmp_path):
        disp = dispersion(0.9 * PI, 0.2 * PI, 0.1, k_res=64)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dispersion_csv(disp, a)
        write_dispersion_csv(dispersion(0.9 * PI, 0.2 * PI, 0.1, k_res=64), b)
        assert a.read_bytes() == b.read_bytes()
