import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ptwalk.bulk import bulk_gap_status, dispersion
from ptwalk.errors import GapClosedError
from ptwalk.operators import CoinProfile, Lattice, WalkSpec, build_walk_operator
from ptwalk.perturbation import EDGE_LIKE
from ptwalk.spectrum import (
    _completeness_radius,
    edge_count_map,
    eigendecompose,
    localization_length,
    minimum_bulk_quasienergy,
    write_spectrum_csv,
    write_state_csv,
)

PI = math.pi
INNER = (0.4 * PI, 0.1 * PI)

# protected interface mode counts per outer phase, N = 301, L' = 50
OUTER_COUNTS = {
    (0.7, 0.05): 0,
    (0.9, 0.2): 2,
    (-0.2, 0.3): 4,
    (-0.6, 0.2): 6,
}


def interface_spec(outer, gamma=0.1, num_sites=301, half_width=50,
                   kind="three_step", boundary="periodic", **profile_kw):
    profile = CoinProfile.inner_outer(INNER, outer, half_width, **profile_kw)
    return WalkSpec(kind=kind, lattice=Lattice(num_sites, boundary),
                    profile=profile, gamma=gamma)


def multiset_distance(a, b):
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.fixture(scope="module")
def result_d():
    spec = interface_spec((-0.6 * PI, 0.2 * PI))
    return eigendecompose(build_walk_operator(spec))


class TestAgainstMomentumSpace:
    def test_homogeneous_ring_matches_bloch_bands(self):
        n = 102
        spec = WalkSpec(kind="three_step_symmetric", lattice=Lattice(n),
                        profile=CoinProfile.homogeneous(*INNER), gamma=0.1)
        real_evals = np.linalg.eigvals(build_walk_operator(spec).matrix)
        k = 2 * PI * np.arange(n) / n
        disp = dispersion(INNER[0], INNER[1], 0.1, k=k)
        bloch = np.concatenate([disp.lam_plus, disp.lam_minus])
        assert multiset_distance(real_evals, bloch) < 1e-8


class TestClassification:
    @pytest.mark.parametrize("outer,count", OUTER_COUNTS.items())
    def test_protected_counts(self, outer, count):
        spec = interface_spec((outer[0] * PI, outer[1] * PI))
        res = eigendecompose(build_walk_operator(spec),
                             compute_condition=False)
        assert res.counts["edge_zero"] == count
        assert res.counts["edge_pi"] == count

    def test_every_pair_classified(self, result_d):
        assert len(result_d.pairs) == 602
        assert sum(result_d.counts.values()) == 602

    def test_canonical_order(self, result_d):
        eps = np.array([p.eps for p in result_d.pairs])
        lam = np.array([p.lam for p in result_d.pairs])
        order = np.lexsort((lam.imag, lam.real, eps.imag, eps.real))
        assert np.array_equal(order, np.arange(eps.size))

    def test_edge_states_sit_on_real_axis(self, result_d):
        for p in result_d.select("edge_zero", "edge_pi"):
            target = 0.0 if p.classification == "edge_zero" else PI
            assert abs(abs(p.eps.real) - target) < 1e-6
            assert p.loc_center is not None

    def test_select_filters(self, result_d):
        zeros = result_d.select("edge_zero")
        assert len(zeros) == 6
        assert all(p.classification == "edge_zero" for p in zeros)

    def test_eps_m_matches_helper(self, result_d):
        assert minimum_bulk_quasienergy(result_d) == result_d.eps_m
        assert result_d.eps_m == pytest.approx(0.1469 * PI, abs=5e-4 * PI)

    def test_condition_numbers_present(self, result_d):
        conds = [p.eig_condition for p in result_d.pairs]
        assert all(c is not None and c >= 1.0 for c in conds)
        assert not any(p.near_defective for p in result_d.pairs)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_annihilated_states_are_never_edge_like(self):
        # on a short open ring the two lambda = 0 states sit inside a
        # 40-site window, so they count as localized
        spec = interface_spec((-0.6 * PI, 0.2 * PI), num_sites=61,
                              half_width=10, boundary="open")
        res = eigendecompose(build_walk_operator(spec),
                             compute_condition=False, window=40)
        zero = [p for p in res.pairs if p.lam == 0]
        assert len(zero) == 2
        for p in zero:
            assert p.classification == "impurity"
            assert p.eps == complex(0.0, -math.inf)
        assert (res.counts["edge_zero"], res.counts["edge_pi"]) == (8, 8)


class TestLocalization:
    def test_edge_state_is_tight(self, result_d):
        p = result_d.select("edge_zero")[0]
        fit = localization_length(p, result_d.spec.lattice)
        assert 0 < fit.length < 20
        assert fit.reliable

    def test_bulk_state_rejected(self, result_d):
        p = result_d.select("bulk")[0]
        with pytest.raises(ValueError):
            localization_length(p, result_d.spec.lattice)


class TestEdgeCountMap:
    def test_single_cell_matches_direct_count(self):
        emap = edge_count_map(INNER, [-0.6 * PI], [0.2 * PI], gamma=0.1,
                              num_sites=301)
        assert emap.counted[0, 0]
        assert emap.n_zero[0, 0] == 6
        assert emap.n_pi[0, 0] == 6

    def test_gapless_outer_cell_skipped(self):
        emap = edge_count_map(INNER, [0.25 * PI], [0.25 * PI], gamma=0.1,
                              num_sites=301)
        assert not emap.counted[0, 0]

    def test_gapless_inner_rejected(self):
        with pytest.raises(GapClosedError):
            edge_count_map((0.25 * PI, 0.25 * PI), [0.4 * PI], [0.1 * PI],
                           gamma=0.1, num_sites=301)

    def test_thread_invariance(self):
        grid1 = [0.9 * PI, -0.2 * PI]
        grid2 = [0.2 * PI, 0.3 * PI]
        a = edge_count_map(INNER, grid1, grid2, gamma=0.1, num_sites=201,
                           half_width=30, threads=1)
        for threads in (2, 4):
            b = edge_count_map(INNER, grid1, grid2, gamma=0.1, num_sites=201,
                               half_width=30, threads=threads)
            assert np.array_equal(a.n_zero, b.n_zero)
            assert np.array_equal(a.n_pi, b.n_pi)
            assert np.array_equal(a.counted, b.counted)


def _fig5_row_cells():
    """The gapped cells of fig5 row theta1 = -3pi/4 (301 sites)."""
    t1 = np.linspace(-PI, PI, 9)[1]
    return [(f"fig5-row1-{j}", interface_spec((t1, t2)))
            for j, t2 in enumerate(np.linspace(-PI, PI, 9))
            if bulk_gap_status(t1, t2, 0.1).gap_open]


def _c06(delta):
    return interface_spec((-0.2 * PI, 0.3 * PI), kind="three_step_perturbed",
                          delta=delta)


ORACLE_CASES = [
    *_fig5_row_cells(),
    ("c04-801", interface_spec((-0.6 * PI, 0.2 * PI), num_sites=801)),
    *[(f"c06-{d}", _c06(d)) for d in (0.05, 0.0696, 0.07, 0.08)],
    ("c07-seed5", interface_spec(
        (-0.2 * PI, 0.3 * PI), kind="three_step_perturbed_disordered",
        delta=0.05, disorder_amplitude=0.1, disorder_seed=5)),
    ("split-gamma0", WalkSpec(
        kind="three_step_perturbed", lattice=Lattice(301), gamma=0.0,
        profile=CoinProfile.left_right((0.125 * PI, 0.1 * PI),
                                       (-0.2 * PI, -PI / 12), delta=0.05))),
]


def edge_like(result):
    counts = [result.counts[c] for c in EDGE_LIKE]
    lams = np.array([p.lam for p in result.select(*EDGE_LIKE)])
    return counts, lams


class TestInterfaceSolver:
    """The shift-invert window against the dense oracle."""

    @pytest.mark.parametrize("name,spec", ORACLE_CASES,
                             ids=[name for name, _ in ORACLE_CASES])
    def test_matches_dense(self, name, spec):
        dense = eigendecompose(build_walk_operator(spec),
                               compute_condition=False)
        window = eigendecompose(build_walk_operator(spec),
                                compute_condition=False, interface_only=True)
        assert dense.solver == "dense"
        assert window.solver == "interface"
        assert window.eps_m is None
        assert len(window.pairs) < len(dense.pairs)
        counts_d, lams_d = edge_like(dense)
        counts_w, lams_w = edge_like(window)
        assert counts_w == counts_d
        assert sum(counts_d) > 0
        assert multiset_distance(lams_w, lams_d) < 1e-10
        # every returned eigenvalue is a distinct dense one, and none
        # within the completeness radius of +-1 is missing
        all_d = np.array([p.lam for p in dense.pairs])
        all_w = np.array([p.lam for p in window.pairs])
        assert multiset_distance(all_w, all_d) < 1e-10
        radius = _completeness_radius(spec.gamma)

        def inside(lams):
            return lams[np.minimum(abs(lams - 1), abs(lams + 1)) < radius]

        assert inside(all_w).size == inside(all_d).size

    def test_condition_numbers_refused(self):
        op = build_walk_operator(interface_spec((-0.6 * PI, 0.2 * PI)))
        with pytest.raises(ValueError):
            eigendecompose(op, interface_only=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec", [
        interface_spec((-0.6 * PI, 0.2 * PI), num_sites=201, half_width=30,
                       boundary="open"),
        interface_spec((-0.6 * PI, 0.2 * PI), num_sites=31, half_width=5),
    ], ids=["open-lattice", "k-above-quarter-dim"])
    def test_fallback_is_reported(self, spec):
        # the open lattice annihilates two states (lambda = 0); they must
        # pass through the taxonomy without a warning or an edge class
        dense = eigendecompose(build_walk_operator(spec),
                               compute_condition=False)
        fallback = eigendecompose(build_walk_operator(spec),
                                  compute_condition=False, interface_only=True)
        assert fallback.solver == "dense-fallback"
        assert fallback.counts == dense.counts
        assert (dense.counts["edge_zero"], dense.counts["edge_pi"]) == (6, 6)
        for p in dense.pairs:
            if p.lam == 0:
                assert p.classification not in EDGE_LIKE

    def test_radius(self):
        assert _completeness_radius(0.1) == pytest.approx(0.3977, abs=1e-4)
        assert _completeness_radius(0.0) == pytest.approx(2 * math.sin(0.15))
        assert _completeness_radius(-0.1) == _completeness_radius(0.1)

    def test_repeat_calls_identical(self):
        spec = _c06(0.07)
        a, b = (eigendecompose(build_walk_operator(spec),
                               compute_condition=False, interface_only=True)
                for _ in range(2))
        assert a.solver == b.solver == "interface"
        lam = [np.array([p.lam for p in r.pairs]).tobytes() for r in (a, b)]
        assert lam[0] == lam[1]


class TestCsv:
    def test_spectrum_schema(self, result_d, tmp_path):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(result_d, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("re_lambda,im_lambda,re_eps,im_eps,class,"
                            "loc_center,loc_length")
        assert len(lines) == 603
        # bulk rows carry no localization columns
        first_bulk = next(i for i, p in enumerate(result_d.pairs)
                          if p.classification == "bulk")
        assert lines[1 + first_bulk].endswith(",bulk,,")

    def test_state_profile_normalized(self, result_d, tmp_path):
        idx = next(i for i, p in enumerate(result_d.pairs)
                   if p.classification == "edge_zero")
        path = tmp_path / "state.csv"
        write_state_csv(result_d, idx, path)
        rows = [line.split(",") for line in
                path.read_text().splitlines()[1:]]
        assert len(rows) == 301
        total = sum(float(r[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)
