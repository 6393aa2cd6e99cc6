import inspect
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ptwalk import _pool, perturbation
from ptwalk.errors import BracketError, TrackingError
from ptwalk.operators import CoinProfile, Lattice, WalkSpec
from ptwalk.perturbation import (
    DisorderEnsemble,
    DisorderRecord,
    delta_sweep,
    disorder_ensemble,
    find_exceptional_point,
    write_delta_sweep_csv,
    write_disorder_csv,
)
from ptwalk.spectrum import edge_count_map

PI = math.pi
INNER = (0.4 * PI, 0.1 * PI)
OUTER_C = (-0.2 * PI, 0.3 * PI)  # two protected pairs per interface


def interface_spec(gamma=0.1, num_sites=301):
    profile = CoinProfile.inner_outer(INNER, OUTER_C, 50)
    return WalkSpec(kind="three_step", lattice=Lattice(num_sites),
                    profile=profile, gamma=gamma)


@pytest.fixture(scope="module")
def sweep():
    return delta_sweep(interface_spec(), np.linspace(0.05, 0.08, 7))


@pytest.fixture(scope="module")
def ep():
    return find_exceptional_point(interface_spec(), 0.05, 0.08)


@pytest.fixture(scope="module")
def base_spec():
    profile = CoinProfile.inner_outer(INNER, OUTER_C, 50, delta=0.05)
    return WalkSpec(kind="three_step_perturbed", lattice=Lattice(301),
                    profile=profile, gamma=0.1)


@pytest.fixture(scope="module")
def small_spec():
    profile = CoinProfile.inner_outer(INNER, OUTER_C, 50, delta=0.05)
    return WalkSpec(kind="three_step_perturbed", lattice=Lattice(201),
                    profile=profile, gamma=0.1)


@pytest.fixture(scope="module")
def base_ensemble(small_spec):
    return disorder_ensemble(small_spec, 0.05, n_seeds=2)


class TestDeltaSweep:
    def test_branch_count(self, sweep):
        assert sweep.n_branches == 8
        assert all(p.lams.size == 8 for p in sweep.points)

    def test_regime_transition(self, sweep):
        regimes = [p.regime for p in sweep.points]
        assert regimes[0] == "all_real"
        assert regimes[-1] == "conjugate_pairs"
        flips = sum(1 for a, b in zip(regimes, regimes[1:]) if a != b)
        assert flips == 1

    def test_ep_bracket(self, sweep):
        lo, hi = sweep.ep_bracket
        assert 0.05 <= lo < hi <= 0.08
        assert hi - lo <= 0.0051

    def test_requested_points_kept(self, sweep):
        requested = [p.delta for p in sweep.points if not p.inserted]
        assert requested == pytest.approx(np.linspace(0.05, 0.08, 7))

    def test_conjugation_closure_past_transition(self, sweep):
        lams = sweep.points[-1].lams
        cost = np.abs(lams[:, None] - np.conj(lams)[None, :])
        assert cost.min(axis=1).max() < 1e-10

    def test_branches_real_before_transition(self, sweep):
        for branch_id in range(sweep.n_branches):
            values = np.array([p.lams[branch_id] for p in sweep.points[:2]])
            assert np.all(np.abs(values.imag) < 1e-10)

    def test_unitary_degeneracy_not_exceptional(self):
        # at gamma = 0 the delta = 0 interface modes are exactly
        # degenerate across the two interfaces, but their vectors are
        # orthogonal, so the collision must not be read as an EP
        result = delta_sweep(interface_spec(gamma=0.0), [0.0, 0.01])
        assert result.points[0].regime == "all_real"
        assert result.points[1].regime == "conjugate_pairs"

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            delta_sweep(interface_spec(), [0.05])

    @pytest.mark.parametrize("jump,message", [
        ("count", "tracked state count changed from 2 to 3 near delta=0.5$"),
        ("move", "unresolvable branch crossing near delta=0.5$"),
    ], ids=["count", "move"])
    def test_unresolvable_step_raises(self, monkeypatch, jump, message):
        # a discontinuity at delta = 0.5 that no bisection can resolve
        def edge_eigensystem(spec, delta):
            lams = [0.1 * delta, -1.0 + 0.1 * delta]
            if delta >= 0.5 and jump == "count":
                lams.append(0.9)
            elif delta >= 0.5:
                lams[0] += 5.0
            return np.array(lams, dtype=complex), np.eye(4, len(lams))

        monkeypatch.setattr(perturbation, "_edge_eigensystem",
                            edge_eigensystem)
        with pytest.raises(TrackingError, match=message):
            delta_sweep(interface_spec(), [0.0, 0.25, 1.0])

    def test_no_interface_modes(self):
        spec = WalkSpec(kind="three_step", lattice=Lattice(301),
                        profile=CoinProfile.homogeneous(*INNER), gamma=0.1)
        with pytest.raises(TrackingError):
            delta_sweep(spec, [0.01, 0.02])


class TestRegime:
    # two tracked eigenvalues at the same real value: coalesced vectors
    # make an exceptional point, orthogonal ones a plain degeneracy
    @pytest.mark.parametrize("lams,vecs,regime", [
        ([0.5, 0.5], [[1, 1], [0, 0.1]], "at_exceptional"),
        ([0.5, 0.5], [[1, 0], [0, 1]], "all_real"),
    ], ids=["coalesced", "orthogonal"])
    def test_label(self, lams, vecs, regime):
        vecs = np.array(vecs, dtype=complex)
        vecs /= np.linalg.norm(vecs, axis=0)
        assert perturbation._regime(np.array(lams, dtype=complex),
                                    vecs) == regime


class TestMatching:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_least_total_against_linear_sum_assignment(self, n):
        # few distinct costs, zero among them, so exact zeros and exactly
        # tied totals are common; every sum of them is exact in floats
        rng = np.random.default_rng(n)
        for scale in [2.0**-30, 0.25, 3.0] * 17:
            cost = rng.integers(0, 3, (n, n)) * scale
            cols = perturbation._matching(cost)
            rows, best = linear_sum_assignment(cost)
            assert sorted(cols) == list(range(n))
            assert cost[np.arange(n), cols].sum() == cost[rows, best].sum()


class TestExceptionalPoint:
    def test_location(self, ep):
        assert 0.068 < ep.delta < 0.071

    def test_bracket_shrunk_to_tolerance(self, ep):
        assert ep.lower < ep.delta < ep.upper
        assert ep.upper - ep.lower <= perturbation.TOL_DELTA
        # two ends and three probes, against eight solves by bisection
        assert ep.n_solves == 5

    def test_coalescence_certified(self, ep):
        assert ep.coalescence_overlap > 0.9

    def test_same_probes_at_801_sites(self, ep):
        # the interface states do not feel the longer ring, so the
        # search takes the same steps to the same bracket
        wide = find_exceptional_point(interface_spec(num_sites=801),
                                      0.05, 0.08)
        assert wide.n_solves == ep.n_solves == 5
        assert wide.lower == pytest.approx(ep.lower, abs=1e-12)
        assert wide.upper == pytest.approx(ep.upper, abs=1e-12)

    def test_rejects_bracket_still_real(self):
        with pytest.raises(BracketError, match="still real"):
            find_exceptional_point(interface_spec(), 0.01, 0.05)

    def test_rejects_bracket_already_complex(self):
        with pytest.raises(BracketError, match="already complex"):
            find_exceptional_point(interface_spec(), 0.08, 0.09)

    def test_no_gain_means_no_bracket(self):
        # without amplification the modes pair at any nonzero delta
        with pytest.raises(BracketError, match="already complex"):
            find_exceptional_point(interface_spec(gamma=0.0), 0.01, 0.05)

    def test_rejects_reversed_bracket(self):
        with pytest.raises(ValueError):
            find_exceptional_point(interface_spec(), 0.08, 0.05)

    @staticmethod
    def square_root_branch(gap2):
        """A 2x2 family whose pair splits as 1 +- sqrt(gap2(delta)): real
        while gap2 >= 0, a conjugate pair past its root."""
        def fake(spec, delta):
            root = np.sqrt(complex(gap2(delta)))
            return np.array([1 + root, 1 - root]), np.eye(2)
        return fake

    def test_jordan_block_root(self, monkeypatch):
        # f = 4 a (delta_EP - delta) is linear, so the first estimate is
        # the root and one nudged probe closes the bracket
        d_ep, a = 0.0695, 0.3
        monkeypatch.setattr(perturbation, "_edge_eigensystem",
                            self.square_root_branch(
                                lambda d: a * (d_ep - d)))
        ep = find_exceptional_point(interface_spec(), 0.05, 0.08)
        assert abs(ep.delta - d_ep) <= 1e-9
        assert ep.lower <= ep.delta <= ep.upper
        assert ep.upper - ep.lower <= perturbation.TOL_DELTA
        assert ep.n_solves <= 4

    def test_convex_family_brackets_root(self, monkeypatch):
        # a quadratic term bends f; its second root, 0.0695 + 1/30, lies
        # outside the bracket
        d_ep = 0.0695
        monkeypatch.setattr(perturbation, "_edge_eigensystem",
                            self.square_root_branch(
                                lambda d: (d_ep - d) * (1 + 30 * (d_ep - d))))
        ep = find_exceptional_point(interface_spec(), 0.05, 0.08)
        assert ep.lower <= d_ep <= ep.upper
        assert ep.lower <= ep.delta <= ep.upper
        assert ep.upper - ep.lower <= perturbation.TOL_DELTA
        assert ep.n_solves < self.bisection(0.05, 0.08, d_ep)[2]

    @staticmethod
    def bisection(lo, hi, d_ep):
        """Final bracket and solves, ends included, of a bisection for a
        transition at ``d_ep`` down to ``TOL_DELTA``."""
        n = 2
        while hi - lo > perturbation.TOL_DELTA:
            mid, n = (lo + hi) / 2.0, n + 1
            lo, hi = (lo, mid) if mid > d_ep else (mid, hi)
        return lo, hi, n

    def test_end_without_gap_bisects(self, monkeypatch):
        # one tracked eigenvalue while real: f has no value at the lower
        # end or any real probe, so every probe is a midpoint
        d_ep = 0.0695

        def fake(spec, delta):
            if delta <= d_ep:
                return np.array([1.0 + 0j]), np.eye(2, 1)
            im = np.sqrt(delta - d_ep)
            return np.array([1 + im * 1j, 1 - im * 1j]), np.eye(2)
        monkeypatch.setattr(perturbation, "_edge_eigensystem", fake)
        ep = find_exceptional_point(interface_spec(), 0.05, 0.08)
        lo, hi, n_solves = self.bisection(0.05, 0.08, d_ep)
        assert (ep.lower, ep.upper, ep.n_solves) == (lo, hi, n_solves)
        assert ep.delta == (lo + hi) / 2.0

    def test_bisection_stops_at_float_resolution(self, monkeypatch):
        # a tolerance below the float spacing (as TOL_DELTA is for a
        # bracket near 1e13) must not spin forever once lo and hi are
        # adjacent floats
        d_ep = 0.0695

        def fake(spec, delta):
            im = 0.1 if delta > d_ep else 0.0
            return np.array([1 + im * 1j, 1 - im * 1j]), np.eye(2)
        monkeypatch.setattr(perturbation, "_edge_eigensystem", fake)
        monkeypatch.setattr(perturbation, "TOL_DELTA", 1e-300)
        ep = find_exceptional_point(interface_spec(), 0.05, 0.08)
        assert ep.lower <= d_ep < ep.upper
        assert ep.upper == np.nextafter(ep.lower, 1.0)
        assert ep.n_solves < 70


class TestDisorderEnsemble:
    def test_seed_keyed_reproducibility(self, base_spec):
        a = disorder_ensemble(base_spec, 0.1, n_seeds=4)
        b = disorder_ensemble(base_spec, 0.1, seeds=[0, 1, 2, 3])
        assert [r.seed for r in a.records] == [0, 1, 2, 3]
        for ra, rb in zip(a.records, b.records):
            assert ra.max_im_lambda_edge == rb.max_im_lambda_edge
            assert ra.regime == rb.regime

    def test_thread_invariance(self, small_spec, monkeypatch):
        # in process against two workers, even on a one-CPU host
        monkeypatch.setattr(_pool, "_cpu_count", lambda: 2)
        a, b = (disorder_ensemble(small_spec, 0.05, n_seeds=3,
                                  threads=threads) for threads in (1, 2))
        assert [r.seed for r in a.records] == [0, 1, 2]
        assert a.records == b.records

    def test_empty_seed_list_rejected(self, base_spec):
        with pytest.raises(ValueError, match="seed"):
            disorder_ensemble(base_spec, 0.1, seeds=[])
        with pytest.raises(ValueError, match="seed"):
            disorder_ensemble(base_spec, 0.1, n_seeds=0)

    def test_weak_disorder_keeps_modes_real(self, base_spec):
        ens = disorder_ensemble(base_spec, 0.001, n_seeds=4)
        assert ens.fraction_all_real == 1.0
        assert ens.majority_regime == "all_real"

    def test_fraction_arithmetic(self, base_spec):
        def rec(seed, regime):
            return DisorderRecord(seed=seed, theta_r=0.1,
                                  max_im_lambda_edge=0.0, regime=regime)

        ens = DisorderEnsemble(spec=base_spec, theta_r=0.1, records=[
            rec(0, "all_real"), rec(1, "conjugate_pairs"),
            rec(2, "conjugate_pairs"), rec(3, "conjugate_pairs")])
        assert ens.fraction_all_real == 0.25
        assert ens.majority_regime == "conjugate_pairs"


class TestCsv:
    def test_delta_sweep_rows(self, sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_delta_sweep_csv(sweep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "delta,re_lambda,im_lambda,branch_id,regime"
        assert len(lines) == 1 + len(sweep.points) * sweep.n_branches
        assert float(lines[1].split(",")[0]) == pytest.approx(0.05)
        assert lines[1].endswith(",all_real")
        assert lines[-1].endswith(",conjugate_pairs")

    def test_disorder_rows(self, base_ensemble, tmp_path):
        path = tmp_path / "dis.csv"
        write_disorder_csv(base_ensemble, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed,theta_r,max_im_lambda_edge,regime"
        assert len(lines) == 1 + len(base_ensemble.records)
        assert lines[1].split(",")[0] == "0"


@pytest.mark.parametrize("probe,setting", [
    (edge_count_map, "window"), (delta_sweep, "window"),
    (find_exceptional_point, "window"), (disorder_ensemble, "window"),
    (find_exceptional_point, "tol_delta"),
], ids=lambda v: getattr(v, "__name__", v))
def test_probe_settings_are_constants(probe, setting):
    # DEFAULT_WINDOW and TOL_DELTA are fixed, as the manifests record
    assert setting not in inspect.signature(probe).parameters
