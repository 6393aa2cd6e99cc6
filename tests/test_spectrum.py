import dataclasses
import math
import tracemalloc

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


def random_spectrum(seed):
    """Complex values with exact conjugates, repeats, real values and
    values that share a real part."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=40) + 1j * rng.normal(size=40)
    real = rng.normal(size=15)
    evals = np.concatenate([z, np.conj(z[:20]), z[:5], real, real[:4],
                            np.round(z[:10], 1)])
    rng.shuffle(evals)
    return evals


class TestNearPairs:
    @staticmethod
    def brute_force(values, tol, conjugate):
        """Every pair of positions a < b in real-part order, from the
        full distance matrix."""
        order = np.argsort(values.real, kind="stable")
        z = values[order]
        w = np.conj(z) if conjugate else z
        dist = np.abs(z[:, None] - w[None, :])
        i, j = np.nonzero(np.triu(dist <= tol, k=1))
        return order, i, j, dist[i, j]

    @staticmethod
    def partners(evals):
        """Whether min over j != i of |lambda_i - conj(lambda_j)| is
        within PAIR_TOL * max(|lambda_i|, 1), from the full matrix."""
        gaps = np.abs(evals[:, None] - np.conj(evals)[None, :])
        np.fill_diagonal(gaps, np.inf)
        return gaps.min(axis=1) <= (spectrum.PAIR_TOL
                                    * np.maximum(np.abs(evals), 1.0))

    def assert_matches(self, values, tol, conjugate):
        order, i, j, d = spectrum._near_pairs(values, tol, conjugate)
        want = self.brute_force(values, tol, conjugate)
        assert np.array_equal(order, want[0])
        by_pair = np.lexsort((j, i))
        for got, expected in zip((i, j, d), want[1:]):
            assert np.array_equal(got[by_pair], expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_full_matrix_bit_for_bit(self, seed):
        for tol in (0.0, 1e-12, 0.05, 0.5):
            for conjugate in (False, True):
                self.assert_matches(random_spectrum(seed), tol, conjugate)

    def test_small_cases(self):
        for values in (np.empty(0, dtype=complex), np.array([1 + 1j]),
                       np.array([0.5 + 0.2j, 0.5 - 0.2j, 2.0, 2.0])):
            for conjugate in (False, True):
                self.assert_matches(values, 1e-9, conjugate)

    @pytest.mark.parametrize("seed", range(4))
    def test_partner_flags(self, seed):
        evals = random_spectrum(seed)
        assert np.array_equal(spectrum._conjugate_partnered(evals),
                              self.partners(evals))
        assert np.array_equal(
            spectrum._conjugate_partnered(np.array([0.5 + 0.2j, 0.5 - 0.2j,
                                                    2.0, 2.0, 3.0, 1j])),
            [True, True, True, True, False, False])

    def test_spectrum(self, result_d):
        window = window_lams(ORACLE_CASES_BY_NAME["c04-801"])
        assert window.solver == "interface-fold"
        flags = []
        for result in (result_d, window):
            evals = np.array([p.lam for p in result.pairs])
            flags.append(spectrum._conjugate_partnered(evals))
            assert np.array_equal(flags[-1], self.partners(evals))
        # the bulk's conjugate pairs have partners; the window's real
        # interface eigenvalues have none
        assert flags[0].any() and not flags[0].all()
        assert flags[1].size == 12 and not flags[1].any()


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

    def test_empty_window_counts_nothing(self):
        # a gapped cell with no winding change holds no eigenvalue
        # inside either side's radius, and its window returns no pair
        outer = (0.7 * PI, 0.05 * PI)
        result = window_lams(interface_spec(outer))
        assert result.solver == "interface-fold"
        assert result.pairs == []
        assert set(result.counts.values()) == {0}
        emap = edge_count_map(INNER, [outer[0]], [outer[1]], gamma=0.1,
                              num_sites=301)
        assert emap.counted[0, 0]
        assert (emap.n_zero[0, 0], emap.n_pi[0, 0]) == (0, 0)
        assert emap.solvers == {"interface-fold": 1}

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
ORACLE_CASES_BY_NAME = {name: spec for name, _, spec in ORACLE_CASES}
FOLD_CASES = {name: spec for name, solver, spec in ORACLE_CASES
              if solver == "interface-fold"}
MU_PATHS = {"interface-fold": _c06(0.0), "interface-mu": _c07((-0.2, 0.3), 0.1)}
# one walk of each structure, whose window answers as _WINDOWS says
STRUCTURE_CASES = {
    "orthogonal": interface_spec((-0.6 * PI, 0.2 * PI), gamma=0.0),
    "pt-fold": MU_PATHS["interface-fold"],
    "skew": _c06(0.07),
    "general": MU_PATHS["interface-mu"],
}


def edge_like(result):
    counts = [result.counts[c] for c in EDGE_LIKE]
    lams = np.array([p.lam for p in result.select(*EDGE_LIKE)])
    return counts, lams


def window_lams(spec):
    return eigendecompose(build_walk_operator(spec), compute_condition=False,
                          interface_only=True)


def pair_bytes(result):
    return [np.array([getattr(p, attr) for p in result.pairs]).tobytes()
            for attr in ("lam", "vector")]


def no_convergence(*args, **kwargs):
    raise scipy.sparse.linalg.ArpackNoConvergence(
        "no convergence", np.empty(0), np.empty((0, 0)))


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

    def test_fold_window_factors_one_matrix(self, monkeypatch):
        # the -1 sector comes from R21 times the +1 eigenvectors, so
        # only the +1 block is factored, once per side
        monkeypatch.setattr(_pool, "_cpu_count", lambda: 1)
        spec = _c06(0.0)
        factored = []
        shift_invert = spectrum._shift_invert

        def counted(B, sigma):
            factored.append((B.shape[0], sigma))
            return shift_invert(B, sigma)

        monkeypatch.setattr(spectrum, "_shift_invert", counted)
        assert window_lams(spec).solver == "interface-fold"
        n = spec.lattice.num_sites
        assert factored == [(n, 1.0), (n, -1.0)]

    @pytest.mark.parametrize("spec", FOLD_CASES.values(), ids=FOLD_CASES)
    def test_minus_sector_vectors(self, monkeypatch, spec):
        # M is block diagonal in the parity frame and commutes with R,
        # so R22 (R21 x) = R21 R11 x = mu R21 x
        bases = []
        solve = spectrum._solve_clusters

        def recorded(R, basis_list, values):
            bases.append((R, basis_list, values))
            return solve(R, basis_list, values)

        monkeypatch.setattr(spectrum, "_solve_clusters", recorded)
        assert window_lams(spec).solver == "interface-fold"
        (R, (plus, minus), values), = bases
        n = spec.lattice.num_sites
        mu = values[:plus.shape[1]]
        np.testing.assert_array_equal(values[plus.shape[1]:], mu)
        y = minus / np.linalg.norm(minus, axis=0)
        residual = np.linalg.norm(R[n:, n:] @ y - y * mu, axis=0)
        assert residual.max() <= 1e-12

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
        # the fold window cannot be trusted, and the label names the
        # whole-spectrum path that answered instead
        whole = eigendecompose(build_walk_operator(spec),
                               compute_condition=False)
        if arpack_fails:
            monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
        fallback = eigendecompose(build_walk_operator(spec),
                                  compute_condition=False, interface_only=True)
        assert fallback.solver == whole.solver == "pt-fold"
        assert fallback.counts == whole.counts == dense_oracle(spec).counts
        assert (whole.counts["edge_zero"], whole.counts["edge_pi"]) == (6, 6)

    @staticmethod
    def missing_gate(monkeypatch, structure):
        """Move every eigenvalue the window of ``structure`` finds by
        1e-6, so its pairs miss the residual gate."""
        label, solve = spectrum._WINDOWS[structure]

        def moved(op):
            found = solve(op)
            return None if found is None else (found[0] + 1e-6, *found[1:])

        monkeypatch.setitem(spectrum._WINDOWS, structure, (label, moved))

    @pytest.mark.parametrize("miss", ["no-convergence", "residual"])
    @pytest.mark.parametrize("structure", STRUCTURE_CASES)
    def test_a_missed_window_is_the_whole_spectrum_solve(self, monkeypatch,
                                                         structure, miss):
        # the one fallback rule: a window that cannot be trusted, or
        # that misses the gate, returns the whole-spectrum result, and
        # no second window is tried after it
        spec = STRUCTURE_CASES[structure]
        op = build_walk_operator(spec)
        assert spectrum._structure(spec) == structure
        assert (window_lams(spec).solver
                == spectrum._WINDOWS[structure][0])
        whole = eigendecompose(op, compute_condition=False, window=12)
        if miss == "no-convergence":
            monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
        else:
            self.missing_gate(monkeypatch, structure)
        windows = []
        window = spectrum._window

        def counted(A, radius):
            windows.append(A.shape[0])
            return window(A, radius)

        monkeypatch.setattr(spectrum, "_window", counted)
        missed = eigendecompose(op, compute_condition=False,
                                interface_only=True, window=12)
        assert len(windows) == 1
        assert missed.solver == whole.solver
        assert missed.counts == whole.counts
        assert missed.eps_m == whole.eps_m is not None
        assert pair_bytes(missed) == pair_bytes(whole)

    @pytest.mark.parametrize("structure,structured", [
        ("pt-fold", "_fold"), ("orthogonal", "_orthogonal"),
    ])
    def test_window_and_structured_miss_fall_back_to_dense(
            self, monkeypatch, structure, structured):
        # the whole-spectrum solve keeps its own gate: where the
        # structured path misses it too, the dense path answers
        spec = STRUCTURE_CASES[structure]
        self.missing_gate(monkeypatch, structure)

        def moved(*args, solve=getattr(spectrum, structured)):
            found = solve(*args)
            return (found[0] + 1e-6, *found[1:])

        monkeypatch.setattr(spectrum, structured, moved)
        result = window_lams(spec)
        assert result.solver == "dense"
        assert result.counts == dense_oracle(spec).counts

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
    gamma = 0 walk, M = (U + U^-1)/2 of a disordered walk and the
    interface-fold block; and that block's transpose, which no path
    factors, as one more banded input."""
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
        # (sub-, superdiagonals) of A in band order, as the factor reads
        bands = {name: set() for name in WINDOW_MATRICES}
        for num_sites in (31, 301, 801):
            for name, A in window_matrices(num_sites).items():
                order = spectrum._band_order(A)
                B = A[order][:, order].tocoo()
                bands[name].add((int((B.row - B.col).max()),
                                 int((B.col - B.row).max())))
        for name, band in bands.items():
            assert len(band) == 1, (name, band)

    @pytest.mark.parametrize("eigenvalues,sigma", [
        (np.ones(200), 1.0),
        (np.concatenate([np.linspace(2.0, 3.0, 199), [-1.0]]), -1.0),
    ], ids=["identity", "exact-minus-one"])
    def test_singular_shift_gives_no_window(self, eigenvalues, sigma):
        A = scipy.sparse.diags(eigenvalues).tocsr()
        assert spectrum._shift_invert(A, sigma) is None
        assert spectrum._window(A, 0.1) is None


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
        # no whole-spectrum path leaves the dense matrix cached: the
        # dense one solves a Fortran copy that geev overwrites
        assert "matrix" not in vars(op)
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

    def test_fold_residual_margin(self):
        # the fig4d walk at 801 sites: each partner R21 x is as
        # accurate as x, so the gate holds with a wide margin
        op = build_walk_operator(ORACLE_CASES_BY_NAME["c04-801"])
        evals, vectors, _ = spectrum._fold(op, False, False)
        assert vectors.shape == (op.dim, op.dim)
        assert (spectrum._max_residual(op.sparse, evals, vectors)
                <= spectrum.RESIDUAL_TOL / 10)

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

    def test_conditions_ignore_column_scale(self, monkeypatch):
        # the PT-fold vectors reach _pt_conditions before eigendecompose
        # normalizes them, so a column's scale must not matter
        calls = []
        conditions = spectrum._pt_conditions

        def recorded(vectors, spans):
            calls.append((vectors.copy(order="F"), spans))
            return conditions(vectors, spans)

        monkeypatch.setattr(spectrum, "_pt_conditions", recorded)
        spec = interface_spec((-0.6 * PI, 0.2 * PI), **SMALL)
        assert eigendecompose(build_walk_operator(spec)).solver == "pt-fold"
        (vectors, spans), = calls
        scale = np.random.default_rng(2).uniform(1e-3, 1e3, vectors.shape[1])
        np.testing.assert_allclose(conditions(vectors * scale, spans),
                                   conditions(vectors, spans),
                                   rtol=1e-12, atol=0)


def _dense_spec(num_sites, disordered):
    kw = ({"kind": "three_step_perturbed_disordered", "delta": 0.05,
           "disorder_amplitude": 0.1, "disorder_seed": 5} if disordered
          else {"kind": "three_step_perturbed", "delta": 0.05})
    return interface_spec((-0.6 * PI, 0.2 * PI), num_sites=num_sites,
                          half_width=min(50, num_sites // 4), **kw)


class TestDenseSolver:
    """The raw ``geev`` path against ``scipy.linalg.eig``."""

    @pytest.mark.parametrize("disordered", [False, True],
                             ids=["skew", "general"])
    def test_matches_scipy_eig(self, disordered):
        op = build_walk_operator(_dense_spec(151, disordered))
        evals, vectors, conditions = spectrum._dense(op, True)
        lam, left, right = scipy.linalg.eig(op.matrix, left=True)
        assert np.count_nonzero(lam.imag > 0) > 10  # conjugate pairs
        # the same geev call, so the same values and raw vectors bit for
        # bit, and eigendecompose scales the columns as np.linalg.norm
        # scales a whole Fortran-ordered matrix
        assert evals.tobytes() == lam.tobytes()
        assert vectors.tobytes(order="A") == right.tobytes(order="A")
        result = eigendecompose(op)
        assert result.solver == "dense"
        matrix = result.pairs[0].vector.base
        right /= np.linalg.norm(right, axis=0)
        assert matrix.flags.f_contiguous
        assert matrix.tobytes() == right.tobytes()
        left /= np.linalg.norm(left, axis=0)
        oracle = 1 / np.abs(np.einsum("ij,ij->j", left.conj(), right))
        np.testing.assert_allclose(conditions, oracle, rtol=1e-12, atol=0)
        assert (sum(p.near_defective for p in result.pairs)
                == np.count_nonzero(oracle > spectrum.COND_THRESHOLD))

    def test_unconverged_geev_raises(self, monkeypatch):
        lapack = scipy.linalg.get_lapack_funcs

        def unconverged(names, *args, **kwargs):
            funcs = lapack(names, *args, **kwargs)
            if names != ("geev", "geev_lwork"):
                return funcs
            geev, geev_lwork = funcs
            return (lambda *a, **kw: (*geev(*a, **kw)[:-1], 7)), geev_lwork

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", unconverged)
        with pytest.raises(np.linalg.LinAlgError, match="order >= 7"):
            eigendecompose(build_walk_operator(_dense_spec(41, False)))

    def test_overflowing_matrix_refused(self):
        # e^(2 gamma) overflows: geev does not check for the infinities
        spec = dataclasses.replace(_dense_spec(41, False), gamma=400.0)
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigendecompose(build_walk_operator(spec))


MEMORY_CASES = [
    ("orthogonal", interface_spec((-0.6 * PI, 0.2 * PI), gamma=0.0,
                                  num_sites=401)),
    ("pt-fold", interface_spec((-0.6 * PI, 0.2 * PI), num_sites=401)),
    ("dense", _dense_spec(401, False)),
    ("dense", _dense_spec(401, True)),
]


def one_eigenvector_matrix(result):
    """The Fortran-ordered matrix every pair's unit vector is a column
    view of."""
    matrix = result.pairs[0].vector.base
    assert matrix.flags.f_contiguous
    assert matrix.shape[1] == len(result.pairs)
    assert all(p.vector.base is matrix for p in result.pairs)
    assert np.abs(np.linalg.norm(matrix, axis=0) - 1).max() <= 1e-14
    return matrix


@pytest.mark.parametrize("solver,spec", MEMORY_CASES,
                         ids=["orthogonal", "pt-fold", "skew", "general"])
def test_whole_spectrum_holds_one_eigenvector_matrix(solver, spec):
    # a deterministic count: the complex eigenvector matrix is one unit
    # of 16 dim^2 bytes, and no other array of its size may live beside
    # it for long (the rest is eigh's input and workspace, geev's real
    # vectors, or column blocks)
    op = build_walk_operator(spec)
    tracemalloc.start()
    try:
        result = eigendecompose(op, compute_condition=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.solver == solver
    assert peak <= 1.7 * 16 * op.dim ** 2
    assert one_eigenvector_matrix(result).shape == (op.dim, op.dim)


@pytest.mark.parametrize("solver,name", [("interface-fold", "c04-801"),
                                         ("interface-mu", "c07-seed5"),
                                         ("interface", "split-gamma0")])
def test_window_holds_one_eigenvector_matrix(solver, name):
    # the window paths return their vectors in one matrix too, the
    # lambda-window's rows scattered back from the band order into it
    result = window_lams(ORACLE_CASES_BY_NAME[name])
    assert result.solver == solver
    assert one_eigenvector_matrix(result).shape[0] == result.spec.lattice.dim


def test_window_products_copy_no_whole_matrix(monkeypatch):
    # scipy's sparse product takes a C-ordered copy of each Fortran-
    # ordered column block; an uncapped block is the whole eigenvector
    # matrix, and the copy, the product and the residual's temporaries
    # would each be that size.  The c04 window holds only its 12
    # in-radius columns, so the cap is lowered to keep the matrix more
    # than four blocks wide
    monkeypatch.setattr(_pool, "_cpu_count", lambda: 1)
    monkeypatch.setattr(spectrum, "_BLOCK_BYTES", 1 << 15)
    op = build_walk_operator(ORACLE_CASES_BY_NAME["c04-801"])
    extra = []

    def traced(product):
        def call(A, *args):
            vectors = args[-1]
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = product(A, *args)
            extra.append((tracemalloc.get_traced_memory()[1] - base,
                          vectors.nbytes))
            return out
        return call

    for name in ("_rotate", "_max_residual"):
        monkeypatch.setattr(spectrum, name, traced(getattr(spectrum, name)))
    tracemalloc.start()
    try:
        result = eigendecompose(op, compute_condition=False,
                                interface_only=True)
    finally:
        tracemalloc.stop()
    assert result.solver == "interface-fold"
    # E and C(theta1/2)^T, then the gate
    assert len(extra) == 3
    for allocated, matrix in extra:
        assert matrix >= 4 * spectrum._BLOCK_BYTES
        assert allocated <= matrix


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
