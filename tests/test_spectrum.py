import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.optimize import linear_sum_assignment

from ptwalk import _pool, operators, spectrum
from ptwalk.bulk import bulk_gap_status, dispersion
from ptwalk.errors import GapClosedError
from ptwalk.operators import CoinProfile, Lattice, WalkSpec, build_walk_operator
from ptwalk.perturbation import EDGE_LIKE
from ptwalk.spectrum import (
    _completeness_radius,
    _conjugate_gaps,
    _mu_radius,
    _pt_conditions,
    classify_states,
    edge_count_map,
    eigendecompose,
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
                   kind="three_step", **profile_kw):
    profile = CoinProfile.inner_outer(INNER, outer, half_width, **profile_kw)
    return WalkSpec(kind=kind, lattice=Lattice(num_sites),
                    profile=profile, gamma=gamma)


def matching(a, b):
    """Index into b of the partner of each entry of a, under the
    one-to-one assignment of least total distance."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cols[np.argsort(rows)]


def multiset_distance(a, b):
    return float(np.abs(a - b[matching(a, b)]).max())


def dense_oracle(spec, compute_condition=False):
    """classify_states on a plain dense eig, with condition numbers from
    the rows of the inverse eigenvector matrix."""
    evals, vectors = scipy.linalg.eig(build_walk_operator(spec).matrix)
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    conditions = (np.linalg.norm(np.linalg.inv(vectors), axis=1)
                  if compute_condition else None)
    return classify_states(evals, vectors, spec, eig_conditions=conditions)


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

    def test_eps_m_is_the_upper_band_floor(self, result_d):
        assert result_d.eps_m == pytest.approx(0.1469 * PI, abs=5e-4 * PI)

    def test_condition_numbers_present(self, result_d):
        conds = [p.eig_condition for p in result_d.pairs]
        assert all(c is not None and c >= 1.0 for c in conds)
        assert not any(p.near_defective for p in result_d.pairs)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, monkeypatch, window):
        # interfaces sit on bond centres, half a site from every state,
        # so a window below 1 would leave every class but bulk empty
        spec = interface_spec((-0.6 * PI, 0.2 * PI), num_sites=41,
                              half_width=10)
        op = build_walk_operator(spec)
        monkeypatch.setattr(spectrum, "_fold", None)  # refused before solving
        for interface_only in (False, True):
            with pytest.raises(ValueError, match="at least 1 site"):
                eigendecompose(op, compute_condition=False,
                               interface_only=interface_only, window=window)
        with pytest.raises(ValueError, match="at least 1 site"):
            classify_states(np.ones(1), np.ones((op.dim, 1)), spec,
                            window=window)


class TestConjugateGaps:
    @staticmethod
    def brute_force(evals):
        gaps = np.abs(evals[:, None] - np.conj(evals)[None, :])
        np.fill_diagonal(gaps, np.inf)
        return gaps.min(axis=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_full_matrix_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=40) + 1j * rng.normal(size=40)
        real = rng.normal(size=15)
        evals = np.concatenate([z, np.conj(z[:20]), z[:5], real, real[:4],
                                np.round(z[:10], 1)])
        rng.shuffle(evals)
        assert np.array_equal(_conjugate_gaps(evals), self.brute_force(evals))

    def test_small_cases(self):
        assert np.array_equal(_conjugate_gaps(np.array([1 + 1j])), [np.inf])
        pair = np.array([0.5 + 0.2j, 0.5 - 0.2j, 2.0, 2.0])
        assert np.array_equal(_conjugate_gaps(pair), [0.0, 0.0, 0.0, 0.0])

    def test_spectrum(self, result_d):
        evals = np.array([p.lam for p in result_d.pairs])
        assert np.array_equal(_conjugate_gaps(evals), self.brute_force(evals))


class TestLocalization:
    def test_edge_state_is_tight(self, result_d):
        p = result_d.select("edge_zero")[0]
        assert 0 < p.loc_length < 20
        assert p.loc_reliable

    def test_fit_recovers_the_decay_length(self):
        # peak near the seam, so the tail wraps round the ring
        lattice = Lattice(41)
        center = 38
        d = np.abs(lattice.positions() - lattice.positions()[center])
        d = np.minimum(d, lattice.num_sites - d)
        length, reliable = spectrum._fit_localization(
            np.exp(-d / 3.0), lattice, center)
        assert length == pytest.approx(3.0, rel=1e-12)
        assert reliable

    def test_fewer_than_three_points(self):
        lattice = Lattice(21)
        prob = np.zeros(lattice.num_sites)
        prob[[10, 11]] = [1.0, 0.5]
        assert spectrum._fit_localization(prob, lattice, 10) is None

    def test_rising_tail_is_unreliable(self):
        lattice = Lattice(21)
        d = np.abs(lattice.positions())
        prob = 1.0 + 0.01 * d
        assert spectrum._fit_localization(prob, lattice, 10) == (np.inf,
                                                                  False)


@pytest.fixture(scope="module")
def single_cell():
    return edge_count_map(INNER, [-0.6 * PI], [0.2 * PI], gamma=0.1,
                          num_sites=301)


class TestEdgeCountMap:
    def test_single_cell_matches_direct_count(self, single_cell):
        assert single_cell.counted[0, 0]
        assert single_cell.n_zero[0, 0] == 6
        assert single_cell.n_pi[0, 0] == 6

    def test_solver_counts(self, single_cell):
        assert single_cell.solvers == {"interface-fold": 1}
        emap = edge_count_map(INNER, [0.25 * PI], [0.25 * PI], gamma=0.1,
                              num_sites=301)
        assert emap.solvers == {}

    def test_gapless_outer_cell_skipped(self):
        emap = edge_count_map(INNER, [0.25 * PI], [0.25 * PI], gamma=0.1,
                              num_sites=301)
        assert not emap.counted[0, 0]

    def test_gapless_inner_rejected(self):
        with pytest.raises(GapClosedError):
            edge_count_map((0.25 * PI, 0.25 * PI), [0.4 * PI], [0.1 * PI],
                           gamma=0.1, num_sites=301)

    def test_inner_region_covering_the_ring_rejected(self):
        # |x| < 51 holds on all 101 sites: there is no interface to count
        # at, so the cell is refused rather than recorded as 0/0
        with pytest.raises(ValueError, match="half_width 51"):
            edge_count_map(INNER, [-0.6 * PI], [0.2 * PI], gamma=0.1,
                           half_width=51, num_sites=101)

    def test_inner_region_covering_the_ring_rejected_without_gapped_cells(self):
        # no cell is gapped, so no cell ever builds a WalkSpec
        with pytest.raises(ValueError, match="half_width 51 leaves no outer"):
            edge_count_map(INNER, [0.25 * PI], [0.25 * PI], gamma=0.1,
                           half_width=51, num_sites=101)

    def test_thread_invariance(self, monkeypatch):
        # in process against two workers (even on a one-CPU host), over
        # three gapped cells and one gapless one
        monkeypatch.setattr(_pool, "_cpu_count", lambda: 2)
        a, b = (edge_count_map(INNER, [-0.6 * PI, -0.2 * PI],
                               [0.2 * PI, 0.3 * PI], gamma=0.1,
                               num_sites=301, threads=threads)
                for threads in (1, 2))
        assert np.count_nonzero(a.counted) == 3
        assert np.array_equal(a.n_zero, b.n_zero)
        assert np.array_equal(a.n_pi, b.n_pi)
        assert np.array_equal(a.counted, b.counted)
        assert a.solvers == b.solvers


def _fig5_row_cells():
    """The gapped cells of fig5 row theta1 = -3pi/4 (301 sites)."""
    t1 = np.linspace(-PI, PI, 9)[1]
    return [(f"fig5-row1-{j}", "interface-fold", interface_spec((t1, t2)))
            for j, t2 in enumerate(np.linspace(-PI, PI, 9))
            if bulk_gap_status(t1, t2, 0.1).gap_open]


def _c06(delta):
    return interface_spec((-0.2 * PI, 0.3 * PI), kind="three_step_perturbed",
                          delta=delta)


def _c07(outer, theta_r, seed=5):
    return interface_spec((outer[0] * PI, outer[1] * PI),
                          kind="three_step_perturbed_disordered", delta=0.05,
                          disorder_amplitude=theta_r, disorder_seed=seed)


# (id, the solver that must answer, walk): the PT-fold gate holds for
# the edge-map cells, c04 and delta = 0; gamma = 0 and undisordered
# delta != 0 make every mu double and keep the lambda-window; disorder
# at gamma != 0 leaves mu simple
ORACLE_CASES = [
    *_fig5_row_cells(),
    ("c04-801", "interface-fold",
     interface_spec((-0.6 * PI, 0.2 * PI), num_sites=801)),
    ("c06-0.0", "interface-fold", _c06(0.0)),
    *[(f"c06-{d}", "interface", _c06(d)) for d in (0.05, 0.0696, 0.07, 0.08)],
    ("c07-seed5", "interface-mu", _c07((-0.2, 0.3), 0.1)),
    ("c07-dnu1-seed5", "interface-mu", _c07((0.9, 0.2), 0.1)),
    ("c07-r0.001-seed5", "interface-mu", _c07((-0.2, 0.3), 0.001)),
    ("split-gamma0", "interface", WalkSpec(
        kind="three_step_perturbed", lattice=Lattice(301), gamma=0.0,
        profile=CoinProfile.left_right((0.125 * PI, 0.1 * PI),
                                       (-0.2 * PI, -PI / 12), delta=0.05))),
]
MU_PATHS = {"interface-fold": _c06(0.0), "interface-mu": _c07((-0.2, 0.3), 0.1)}


def edge_like(result):
    counts = [result.counts[c] for c in EDGE_LIKE]
    lams = np.array([p.lam for p in result.select(*EDGE_LIKE)])
    return counts, lams


def window_lams(spec):
    return eigendecompose(build_walk_operator(spec), compute_condition=False,
                          interface_only=True)


class TestInterfaceSolver:
    """The shift-invert windows against the dense oracle."""

    @pytest.mark.parametrize("name,solver,spec", ORACLE_CASES,
                             ids=[name for name, _, _ in ORACLE_CASES])
    def test_matches_dense(self, name, solver, spec):
        dense = dense_oracle(spec)
        window = window_lams(spec)
        assert window.solver == solver
        assert window.eps_m is None
        assert len(window.pairs) < len(dense.pairs)
        counts_d, lams_d = edge_like(dense)
        counts_w, lams_w = edge_like(window)
        assert counts_w == counts_d
        assert sum(counts_d) > 0
        assert multiset_distance(lams_w, lams_d) < 1e-10
        # every returned eigenvalue is a distinct dense one, and none
        # inside the window of the path is missing: the lambda-disk of
        # the completeness radius, or the mu-disk of the sector's image
        all_d = np.array([p.lam for p in dense.pairs])
        all_w = np.array([p.lam for p in window.pairs])
        assert multiset_distance(all_w, all_d) < 1e-10
        if solver == "interface":
            radius, image = _completeness_radius(spec.gamma), lambda z: z
        else:
            radius, image = _mu_radius(spec.gamma), lambda z: (z + 1 / z) / 2

        def inside(lams):
            z = image(lams)
            return lams[np.minimum(abs(z - 1), abs(z + 1)) <= radius]

        assert inside(all_w).size == inside(all_d).size

    def test_condition_numbers_refused(self):
        op = build_walk_operator(interface_spec((-0.6 * PI, 0.2 * PI)))
        with pytest.raises(ValueError):
            eigendecompose(op, interface_only=True)

    @pytest.mark.parametrize("spec,arpack_fails", [
        (interface_spec((-0.6 * PI, 0.2 * PI), num_sites=31, half_width=5),
         False),
        (interface_spec((-0.6 * PI, 0.2 * PI), num_sites=101, half_width=20),
         True),
    ], ids=["k-above-quarter-dim", "no-convergence"])
    def test_fallback_is_reported(self, monkeypatch, spec, arpack_fails):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "no convergence", np.empty(0), np.empty((0, 0)))

        dense = eigendecompose(build_walk_operator(spec),
                               compute_condition=False)
        if arpack_fails:
            monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
        fallback = eigendecompose(build_walk_operator(spec),
                                  compute_condition=False, interface_only=True)
        assert fallback.solver == "dense-fallback"
        assert fallback.counts == dense.counts
        assert (dense.counts["edge_zero"], dense.counts["edge_pi"]) == (6, 6)

    @pytest.mark.parametrize("solver", MU_PATHS)
    def test_residual_miss_falls_back_to_lambda_window(self, monkeypatch,
                                                       solver):
        spec = MU_PATHS[solver]
        assert window_lams(spec).solver == solver
        monkeypatch.setattr(spectrum, "RESIDUAL_TOL", 0.0)
        result = window_lams(spec)
        assert result.solver == "interface"
        assert edge_like(result)[0] == edge_like(dense_oracle(spec))[0]

    def test_radius(self):
        assert _completeness_radius(0.1) == pytest.approx(0.3977, abs=1e-4)
        assert _completeness_radius(0.0) == pytest.approx(2 * math.sin(0.15))
        assert _completeness_radius(-0.1) == _completeness_radius(0.1)

    def test_mu_radius(self):
        assert _mu_radius(0.1) == pytest.approx(0.0647, abs=1e-4)
        assert _mu_radius(-0.1) == _mu_radius(0.1)
        assert _mu_radius(0.0) == pytest.approx(1 - math.cos(spectrum.EDGE_BAND))

    @pytest.mark.parametrize("gamma", [0.0, 0.1, -0.3])
    def test_sector_corners_map_inside_mu_radius(self, gamma):
        band = spectrum.EDGE_BAND
        corners = np.array([sign * r * np.exp(1j * phi)
                            for sign in (1, -1)
                            for r in (math.exp(-2 * abs(gamma)),
                                      math.exp(2 * abs(gamma)))
                            for phi in (band, -band)])
        mu = (corners + 1 / corners) / 2
        distance = np.abs(mu - np.sign(corners.real))
        assert distance.max() <= _mu_radius(gamma) * (1 + 1e-12)
        # the corners are the farthest points: they lie on the circle,
        # and the rest of the sector inside it
        assert distance.min() >= _mu_radius(gamma) * (1 - 1e-12)
        r, phi = np.meshgrid(np.exp(np.linspace(-2, 2, 41) * abs(gamma)),
                             np.linspace(-band, band, 41))
        sector = np.concatenate([r * np.exp(1j * phi), -r * np.exp(1j * phi)])
        mu = (sector + 1 / sector) / 2
        assert np.abs(mu - np.sign(sector.real)).max() <= distance.max()

    def test_repeat_calls_identical(self):
        spec = _c06(0.07)
        a, b = (eigendecompose(build_walk_operator(spec),
                               compute_condition=False, interface_only=True)
                for _ in range(2))
        assert a.solver == b.solver == "interface"
        lam = [np.array([p.lam for p in r.pairs]).tobytes() for r in (a, b)]
        assert lam[0] == lam[1]

    @pytest.mark.parametrize("solver", MU_PATHS)
    def test_mu_paths_repeat_identically(self, solver):
        a, b = (window_lams(MU_PATHS[solver]) for _ in range(2))
        assert a.solver == b.solver == solver
        for attr in ("lam", "vector"):
            got = [np.array([getattr(p, attr) for p in r.pairs]).tobytes()
                   for r in (a, b)]
            assert got[0] == got[1]


WINDOW_MATRICES = ("U-skew", "U-gamma0", "M-disordered", "fold-block",
                   "fold-block-T")


def window_matrices(num_sites):
    """Every matrix a window path factors: U of a skew and of a
    gamma = 0 walk, M = (U + U^-1)/2 of a disordered walk, and the
    interface-fold block and its transpose."""
    half_width = min(50, num_sites // 4)

    def op(outer, **kw):
        return build_walk_operator(interface_spec(
            outer, num_sites=num_sites, half_width=half_width, **kw))

    gamma0 = dataclasses.replace(ORACLE_CASES[-1][2],
                                 lattice=Lattice(num_sites))
    disordered = op((-0.2 * PI, 0.3 * PI),
                    kind="three_step_perturbed_disordered", delta=0.05,
                    disorder_amplitude=0.1, disorder_seed=5)
    _, R = spectrum._parity_frame(op((-0.6 * PI, 0.2 * PI)))
    block = R[:num_sites, :num_sites]
    return dict(zip(WINDOW_MATRICES, (
        op((-0.2 * PI, 0.3 * PI), kind="three_step_perturbed",
           delta=0.07).sparse,
        build_walk_operator(gamma0).sparse,
        ((disordered.sparse + disordered.inverse) * 0.5).tocsr(),
        block,
        block.T.tocsr(),
    )))


def banded_factors(A):
    """The band order of A and the shift-invert factor at +1 and -1."""
    order = spectrum._band_order(A)
    B = A[order][:, order]
    return order, [spectrum._shift_invert(B, sigma) for sigma in (1.0, -1.0)]


class TestBandedShiftInvert:
    """The banded LU that every window path runs ARPACK on."""

    # at 61 sites every A - sigma I here has a condition number below
    # 1e5, so any two backward-stable solvers agree to 1e-12
    @pytest.mark.parametrize("name", WINDOW_MATRICES)
    def test_matches_spsolve(self, name):
        A = window_matrices(61)[name]
        order, factors = banded_factors(A)
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        for sigma, factor in zip((1.0, -1.0), factors):
            want = scipy.sparse.linalg.spsolve(
                (A - sigma * scipy.sparse.identity(A.shape[0])).tocsc(), b)
            got = np.empty_like(b)
            got[order] = factor.matvec(b[order])
            assert (np.linalg.norm(got - want)
                    <= 1e-12 * np.linalg.norm(want))

    def test_bandwidth_does_not_grow_with_the_lattice(self):
        # a walk step that moved a site by more than one would widen
        # the band with the lattice, and the banded LU would cost O(n^3)
        bands = {name: set() for name in WINDOW_MATRICES}
        for num_sites in (31, 301, 801):
            for name, A in window_matrices(num_sites).items():
                bands[name].update((f.kl, f.ku) for f in banded_factors(A)[1])
        for name, band in bands.items():
            assert len(band) == 1, (name, band)

    @pytest.mark.parametrize("eigenvalues,sigma", [
        (np.ones(200), 1.0),
        (np.concatenate([np.linspace(2.0, 3.0, 199), [-1.0]]), -1.0),
    ], ids=["identity", "exact-minus-one"])
    def test_singular_shift_gives_no_window(self, eigenvalues, sigma):
        A = scipy.sparse.diags(eigenvalues).tocsr()
        assert spectrum._shift_invert(A, sigma) is None
        assert spectrum._window([A], 0.1) is None


def _fig4(outer, gamma=0.1, kind="three_step"):
    return interface_spec((outer[0] * PI, outer[1] * PI), gamma=gamma,
                          kind=kind)


SMALL = {"num_sites": 101, "half_width": 20}
STRUCTURED_CASES = [
    *[(f"fig4{name}", "pt-fold", _fig4(outer))
      for name, outer in zip("abcd", OUTER_COUNTS)],
    ("fig4e", "orthogonal", _fig4((-0.6, 0.2), gamma=0.0)),
    ("split-gamma0", "orthogonal", ORACLE_CASES[-1][2]),
    ("fig8a-gamma0-seed5", "orthogonal", interface_spec(
        (0.9 * PI, 0.2 * PI), gamma=0.0, kind="three_step_perturbed_disordered",
        delta=0.05, disorder_amplitude=0.1, disorder_seed=5)),
    ("fig4d-symmetric", "pt-fold",
     _fig4((-0.6, 0.2), kind="three_step_symmetric")),
    ("fig7c-near-ep", "dense", _c06(0.0696)),
]


class TestStructuredSolver:
    """The orthogonal and PT-fold paths against a dense eig with
    condition numbers from the inverse eigenvector matrix."""

    @pytest.mark.parametrize("name,solver,spec", STRUCTURED_CASES,
                             ids=[name for name, _, _ in STRUCTURED_CASES])
    def test_matches_dense(self, name, solver, spec):
        op = build_walk_operator(spec)
        result = eigendecompose(op)
        assert result.solver == solver
        # only the dense path builds the dense matrix
        assert ("matrix" in vars(op)) == (solver == "dense")
        oracle = dense_oracle(spec, compute_condition=True)
        assert result.counts == oracle.counts
        lam = np.array([p.lam for p in result.pairs])
        lam_o = np.array([p.lam for p in oracle.pairs])
        partner = matching(lam, lam_o)
        assert np.abs(lam - lam_o[partner]).max() < 1e-10
        assert abs(result.eps_m - oracle.eps_m) < 1e-10
        vectors = np.column_stack([p.vector for p in result.pairs])
        residual = np.linalg.norm(op.matrix @ vectors - vectors * lam, axis=0)
        assert residual.max() <= 1e-10
        # well separated: no other eigenvalue within 1e-3
        gaps = np.abs(lam_o[:, None] - lam_o[None, :])
        np.fill_diagonal(gaps, np.inf)
        separated = gaps.min(axis=1)[partner] > 1e-3
        kappa = np.array([p.eig_condition for p in result.pairs])
        kappa_o = np.array([p.eig_condition for p in oracle.pairs])[partner]
        assert separated.sum() > lam.size / 2
        error = np.abs(kappa - kappa_o) / kappa_o
        assert error[separated].max() <= 1e-6

    @pytest.mark.parametrize("spec", [_fig4((-0.6, 0.2)),
                                      _fig4((-0.6, 0.2), gamma=0.0)],
                             ids=["pt-fold", "orthogonal"])
    def test_unclustered_falls_back_to_dense(self, monkeypatch, spec):
        # each conjugate pair shares one mu; solved apart, neither member
        # is an eigenvector, and the residual gate hands over to dense
        monkeypatch.setattr(spectrum, "CLUSTER_TOL", 0.0)
        result = eigendecompose(build_walk_operator(spec),
                                compute_condition=False)
        assert result.solver == "dense"
        assert result.counts == dense_oracle(spec).counts

    @pytest.mark.parametrize("seed", range(6))
    def test_clusters_are_the_components(self, seed):
        # against the dense |z_i - z_j| < tol graph, closed by squaring
        # its reachability; groups listed by their first member in
        # real-part order, as the solvers fill their columns
        rng = np.random.default_rng(seed)
        base = rng.uniform(-1, 1, 60) + 1j * rng.choice([0, 0.3], 60)
        z = base[rng.integers(0, 60, 200)]
        z[::3] += 1e-5 * rng.standard_normal(z[::3].size)
        tol = [1e-6, 3e-5, 1e-2][seed % 3]
        order = np.argsort(z.real, kind="stable")
        reach = np.abs(z[order][:, None] - z[order][None, :]) < tol
        while True:
            wider = (reach.astype(int) @ reach.astype(int)) > 0
            if (wider == reach).all():
                break
            reach = wider
        oracle, seen = [], np.zeros(z.size, dtype=bool)
        for i in range(z.size):
            if not seen[i]:
                seen |= reach[i]
                oracle.append(order[reach[i]])
        groups = spectrum._clusters(z, tol)
        assert len(groups) == len(oracle)
        assert all(np.array_equal(g, o) for g, o in zip(groups, oracle))

    def test_gate_draws_disorder_once(self, monkeypatch):
        # the solver's structure check reads the coin angles, and so
        # would symmetric_frame; each slot's whole-lattice offsets must
        # be drawn once per spec, not once per read
        spec = interface_spec((-0.6 * PI, 0.2 * PI), gamma=0.1, num_sites=41,
                              half_width=10, kind="three_step_perturbed_disordered",
                              delta=0.05, disorder_amplitude=0.1,
                              disorder_seed=7)
        draws = []
        draw = operators._disorder_draws

        def counting_draws(seed, x, slot, amplitude):
            draws.append((seed, tuple(x), slot, amplitude))
            return draw(seed, x, slot, amplitude)

        monkeypatch.setattr(operators, "_disorder_draws", counting_draws)
        op = build_walk_operator(spec)
        built = len(draws)
        result = eigendecompose(op)
        assert result.solver == "dense"
        assert built == 3
        assert {d[1] for d in draws} == {tuple(spec.lattice.positions())}
        assert len(draws) - built <= 3
        assert len(set(draws)) == len(draws)

    @pytest.mark.parametrize("interface_only", [False, True],
                             ids=["whole", "window"])
    @pytest.mark.parametrize("spec", [
        interface_spec((-0.6 * PI, 0.2 * PI), gamma=0.0, **SMALL),
        interface_spec((-0.6 * PI, 0.2 * PI), **SMALL),
        interface_spec((-0.6 * PI, 0.2 * PI), kind="three_step_perturbed",
                       delta=0.05, **SMALL),
        interface_spec((-0.6 * PI, 0.2 * PI),
                       kind="three_step_perturbed_disordered",
                       disorder_amplitude=0.1, disorder_seed=5, **SMALL),
    ], ids=["orthogonal", "pt-fold", "skew", "general"])
    def test_operator_left_unchanged(self, spec, interface_only):
        # every path reads op.sparse as built, indices and data alike
        op = build_walk_operator(spec)
        before = op.sparse.indices.tobytes(), op.sparse.data.tobytes()
        eigendecompose(op, compute_condition=not interface_only,
                       interface_only=interface_only)
        after = op.sparse.indices.tobytes(), op.sparse.data.tobytes()
        assert after == before

    def test_singular_dual_is_infinite(self):
        # two equal eigenvectors in one cluster leave G singular
        v = np.zeros(6, dtype=complex)
        v[0] = v[1] = math.sqrt(0.5)
        kappa = _pt_conditions(np.column_stack([v, v]), [slice(0, 2)])
        assert np.all(np.isinf(kappa))


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
