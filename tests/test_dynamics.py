import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from ptwalk import dynamics
from ptwalk.bulk import bloch_fold, quasienergy
from ptwalk.dynamics import (
    DEFAULT_COIN,
    EvolutionTrace,
    FourierSpectrum,
    Mode,
    detect_modes,
    dft,
    evolve,
    infer_edge_count,
    persistence_parity,
    predict_mode_families,
    write_fourier_csv,
    write_snapshot_csv,
    write_trace_csv,
)
from ptwalk.operators import CoinProfile, Lattice, WalkSpec, build_walk_operator
from ptwalk.spectrum import eigendecompose

PI = math.pi
INNER = (0.4 * PI, 0.1 * PI)
OUTER = (-0.6 * PI, 0.2 * PI)


def homogeneous_spec(kind="three_step", theta=INNER, gamma=0.0):
    return WalkSpec(kind=kind, lattice=Lattice(11),
                    profile=CoinProfile.homogeneous(*theta), gamma=gamma)


def split_spec(left, right, delta, gamma=0.0):
    profile = CoinProfile.left_right(left, right, delta=delta)
    return WalkSpec(kind="three_step_perturbed", lattice=Lattice(801),
                    profile=profile, gamma=gamma)


class TestEvolve:
    def test_three_shifts_forbid_odd_returns(self):
        trace = evolve(homogeneous_spec(), steps=20)
        assert np.all(trace.p0_raw[1::2] == 0.0)
        assert trace.p0_raw[0] == pytest.approx(1.0)

    def test_two_step_walk_returns_at_every_even_shift(self):
        trace = evolve(homogeneous_spec(kind="two_step"), steps=20)
        # two shifts per step: odd times leave the walker off origin
        # only by one shift, which the second shift can undo
        assert np.any(trace.p0_raw[1:] > 0.0)

    def test_normalized_probability_bounded(self):
        trace = evolve(homogeneous_spec(gamma=0.3), steps=40)
        assert np.all(trace.p0_normalized >= 0.0)
        assert np.all(trace.p0_normalized <= 1.0)

    def test_unitary_norm_preserved(self):
        trace = evolve(homogeneous_spec(), steps=40)
        assert trace.p0_raw == pytest.approx(trace.p0_normalized, abs=1e-12)
        assert trace.leaked_probability == 0.0

    def test_origin_is_measured_not_source(self):
        trace = evolve(homogeneous_spec(), steps=6, x0=2)
        assert trace.p0_raw[0] == 0.0

    def test_snapshots(self):
        trace = evolve(homogeneous_spec(), steps=12, snapshot_times=(0, 5, 8))
        assert sorted(trace.snapshots) == [0, 5, 8]
        for t in (5, 8):
            x, prob = trace.snapshots[t]
            assert x.shape == prob.shape
            assert x[0] == -3 * t and x[-1] == 3 * t
            assert np.sum(prob) == pytest.approx(1.0, abs=1e-12)
            # three shifts a step: after t steps only x = 3t (mod 2) is
            # occupied
            occupied = (x - 3 * t) % 2 == 0
            assert np.all(prob[~occupied] == 0.0)
            assert np.all(prob[occupied] > 0.0)
        x0_grid, prob0 = trace.snapshots[0]
        assert prob0[list(x0_grid).index(0)] == pytest.approx(1.0)

    def test_snapshot_time_out_of_range(self):
        with pytest.raises(ValueError):
            evolve(homogeneous_spec(), steps=4, snapshot_times=(5,))

    def test_needs_a_step(self):
        with pytest.raises(ValueError):
            evolve(homogeneous_spec(), steps=0)

    def test_deterministic(self):
        a = evolve(homogeneous_spec(gamma=0.1), steps=30)
        b = evolve(homogeneous_spec(gamma=0.1), steps=30)
        assert np.array_equal(a.p0_raw, b.p0_raw)
        assert np.array_equal(a.p0_normalized, b.p0_normalized)

    def test_window_cap_leaks_with_warning(self):
        with pytest.warns(UserWarning, match="leaking"):
            trace = evolve(homogeneous_spec(), steps=30, window_cap=21)
        assert trace.leaked_probability == pytest.approx(0.38322520245745595,
                                                         rel=1e-12)

    def test_leak_does_not_depend_on_rescaling(self, monkeypatch):
        # the probability lost in a step is measured before that step's
        # rescale and must be divided down with the state
        spec = homogeneous_spec(theta=(0.25 * PI, 0.25 * PI), gamma=1.0)
        with pytest.warns(UserWarning, match="leaking"):
            base = evolve(spec, steps=300, window_cap=31)
        monkeypatch.setattr(dynamics, "RESCALE_LIMIT", 1e30)
        with pytest.warns(UserWarning, match="leaking"):
            early = evolve(spec, steps=300, window_cap=31)
        assert base.log_scale > 0.0
        assert early.log_scale > base.log_scale
        assert early.leaked_probability == pytest.approx(
            base.leaked_probability, rel=1e-12)
        assert 0.0 < base.leaked_probability <= 1.0

    def test_rescale_survives_float_range(self):
        # broken-phase gain amplifies the state past 1e120 well before
        # the raw return probability leaves the float64 range
        spec = homogeneous_spec(theta=(0.25 * PI, 0.25 * PI), gamma=1.0)
        trace = evolve(spec, steps=400)
        assert trace.log_scale > 0.0
        assert math.isinf(trace.p0_raw[-1])
        assert np.all(np.isfinite(trace.p0_normalized))
        assert trace.p0_normalized.max() <= 1.0 + 1e-12


def oracle_p0(spec, steps, x0=0, window_cap=None, coin=DEFAULT_COIN):
    """p0 raw and normalized, the final site distribution and the final
    total probability, from explicit powers of the walk matrix.

    The matrix is built on the open lattice that ``evolve`` stores: its
    window, whose cap annihilates what leaves it.
    """
    full = 2 * spec.bandwidth * steps + 1
    width = min(full, window_cap if window_cap is not None else full + 127)
    lattice = Lattice(width, "open", x_min=x0 - width // 2)
    u = build_walk_operator(dataclasses.replace(spec, lattice=lattice)).sparse
    psi = np.zeros(lattice.dim, dtype=complex)
    psi[lattice.index(x0, 0)], psi[lattice.index(x0, 1)] = coin
    at0 = [lattice.index(0, 0), lattice.index(0, 1)]
    raw, norm = [], []
    for t in range(steps + 1):
        if t:
            psi = u @ psi
        p = np.abs(psi) ** 2
        raw.append(p[at0].sum())
        norm.append(p[at0].sum() / p.sum())
    sites = p[0::2] + p[1::2]
    return (np.array(raw), np.array(norm),
            (lattice.positions(), sites / p.sum()), p.sum())


def oracle_specs():
    io = CoinProfile.inner_outer(INNER, OUTER, half_width=4)
    split = CoinProfile.left_right((0.75 * PI, 0.05 * PI), (-PI / 3, 0.0),
                                   delta=0.05)
    seeded = CoinProfile.left_right((0.75 * PI, 0.05 * PI), (-PI / 3, 0.0),
                                    delta=0.05, disorder_amplitude=0.3,
                                    disorder_seed=7)
    lat = Lattice(11)
    return {
        "two_step": (WalkSpec("two_step", lat, io, gamma=0.2), {}),
        "two_step-real-coin": (WalkSpec("two_step", lat, io, gamma=0.2),
                               {"coin": (0.6, 0.8)}),
        "three_step": (WalkSpec("three_step", lat, io, gamma=0.1), {}),
        "perturbed_split": (
            WalkSpec("three_step_perturbed", lat, split, gamma=0.0), {}),
        "disordered": (
            WalkSpec("three_step_perturbed_disordered", lat, seeded,
                     gamma=0.1), {}),
        "x0=2": (WalkSpec("three_step", lat, io, gamma=0.1), {"x0": 2}),
        "cap21-gamma0": (WalkSpec("three_step", lat, io, gamma=0.0),
                         {"window_cap": 21}),
        "cap21-gamma0.1": (WalkSpec("three_step", lat, io, gamma=0.1),
                           {"window_cap": 21}),
    }


class TestMatrixPowerOracle:
    """``evolve`` against explicit powers of ``build_walk_operator``."""

    @staticmethod
    def check(spec, steps, snap_abs=1e-300, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # capped leak
            trace = evolve(spec, steps=steps, snapshot_times=(steps,), **kw)
        raw, norm, (x, prob), _ = oracle_p0(spec, steps, **kw)
        assert np.array_equal(trace.p0_raw == 0.0, raw == 0.0)
        assert np.count_nonzero(raw) > 20
        assert trace.p0_raw == pytest.approx(raw, rel=1e-12, abs=0.0)
        assert trace.p0_normalized == pytest.approx(norm, rel=1e-12, abs=0.0)
        snap_x, snap_prob = trace.snapshots[steps]
        on_span = np.isin(x, snap_x)
        assert np.array_equal(x[on_span], snap_x)
        assert np.all(prob[~on_span] == 0.0)
        assert np.array_equal(snap_prob == 0.0, prob[on_span] == 0.0)
        assert snap_prob == pytest.approx(prob[on_span], rel=1e-12,
                                          abs=snap_abs)
        return trace

    @pytest.mark.parametrize("name", list(oracle_specs()))
    def test_return_probability(self, name):
        spec, kw = oracle_specs()[name]
        trace = self.check(spec, 60, **kw)
        if "window_cap" in kw:
            assert 0.0 < trace.leaked_probability <= 1.0

    @pytest.mark.parametrize("spec, steps, cap", [
        (oracle_specs()["cap21-gamma0"][0], 60, 21),
        (homogeneous_spec(), 30, 21),
    ], ids=["cap21-gamma0", "homogeneous-cap21"])
    def test_leak_is_lost_norm_of_unitary_walk(self, spec, steps, cap):
        # at gamma = 0 only the cap removes probability, so the leak is
        # the share of the initial unit norm missing at the end
        with pytest.warns(UserWarning, match="leaking"):
            trace = evolve(spec, steps=steps, window_cap=cap)
        *_, total = oracle_p0(spec, steps, window_cap=cap)
        assert trace.leaked_probability == pytest.approx(1.0 - total,
                                                         rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["two_step", "three_step", "x0=2"])
    def test_trimmed_fronts(self, name, monkeypatch):
        # from t ~ 450-520 on the light-cone fronts of these walks fall
        # below the smallest normal float64 and the stepper drops them
        spec, kw = oracle_specs()[name]
        trim = dynamics._SublatticeState.trim
        dropped = []

        def counting_trim(state):
            n = state.n
            trim(state)
            dropped.append(n - state.n)

        monkeypatch.setattr(dynamics._SublatticeState, "trim", counting_trim)
        # over 600 steps, rounding leaves the small, cancelling
        # probabilities of the oracle only absolutely accurate
        trace = self.check(spec, 600, snap_abs=1e-15, **kw)
        assert sum(dropped) > 0
        x, prob = trace.snapshots[600]
        reach = spec.bandwidth * 600
        x0 = kw.get("x0", 0)
        assert x[0] == x0 - reach and x[-1] == x0 + reach
        assert np.sum(prob) == pytest.approx(1.0, abs=1e-12)
        occupied = (x - x0 - reach) % 2 == 0
        assert np.all(prob[~occupied] == 0.0)
        assert prob[occupied][0] == 0.0 and prob[occupied][-1] == 0.0

        # the dropped amplitudes were subnormal: without the trim p0 is
        # the same, and the norm differs only in its summation order
        monkeypatch.setattr(dynamics._SublatticeState, "trim",
                            lambda state: None)
        full = evolve(spec, steps=600, snapshot_times=(600,), **kw)
        assert np.array_equal(full.p0_raw, trace.p0_raw)
        assert full.p0_normalized == pytest.approx(trace.p0_normalized,
                                                   rel=1e-14, abs=0.0)
        assert full.snapshots[600][1] == pytest.approx(prob, rel=1e-12,
                                                       abs=1e-300)

    def test_snapshot_after_trim(self):
        # the default inner walk's fronts shrink by cos(theta1) cos^2(theta2)
        # a step and are trimmed from t ~ 557 on
        trace = evolve(homogeneous_spec(), steps=700, snapshot_times=(600, 700))
        for t in (600, 700):
            x, prob = trace.snapshots[t]
            assert x[0] == -3 * t and x[-1] == 3 * t
            assert np.sum(prob) == pytest.approx(1.0, abs=1e-12)
            assert np.all(prob[(x - 3 * t) % 2 != 0] == 0.0)


@pytest.fixture(scope="module")
def trace64():
    return evolve(homogeneous_spec(), steps=64)


@pytest.fixture(scope="module")
def trace16():
    return evolve(homogeneous_spec(), steps=16, snapshot_times=(8,))


class TestDft:
    def test_grid(self, trace64):
        fspec = dft(trace64)
        assert fspec.omega.size == 65
        assert fspec.bin_width == pytest.approx(2.0 * PI / 65)
        assert fspec.omega[1] == pytest.approx(fspec.bin_width)

    def test_real_input_mirror(self, trace64):
        c = np.abs(dft(trace64).c)
        assert c[1:] == pytest.approx(c[1:][::-1])

    def test_zero_bin_is_time_sum(self, trace64):
        fspec = dft(trace64)
        assert fspec.c[0].imag == 0.0
        assert fspec.c[0].real == pytest.approx(trace64.p0_normalized.sum())


def synthetic_fspec(signal):
    m = signal.size
    return FourierSpectrum(omega=2.0 * PI * np.arange(m) / m,
                           c=np.fft.fft(signal), bin_width=2.0 * PI / m,
                           steps=m - 1)


class TestDetectModes:
    M = 1000

    def carrier(self):
        rng = np.random.default_rng(0)
        t = np.arange(self.M)
        return t, 0.3 + 0.001 * rng.standard_normal(self.M)

    def test_full_family_naming(self):
        t, p0 = self.carrier()
        w1 = 2.0 * PI * 32 / self.M
        p0 = (p0 + 0.20 * np.cos(w1 * t) + 0.15 * np.cos(2 * w1 * t)
              + 0.12 * np.cos((PI - 2 * w1) * t)
              + 0.10 * np.cos((PI - w1) * t) + 0.08 * np.cos(PI * t))
        modes = detect_modes(synthetic_fspec(p0), omega_delta_hint=w1)
        named = {m.family: m.index for m in modes}
        assert named == {"omega_delta": 32, "2omega_delta": 64,
                         "pi-2omega_delta": 436, "pi-omega_delta": 468,
                         "pi": 500}

    def test_without_hint_only_pi_is_named(self):
        t, p0 = self.carrier()
        w1 = 2.0 * PI * 32 / self.M
        p0 = p0 + 0.2 * np.cos(w1 * t) + 0.1 * np.cos(PI * t)
        families = {m.family for m in detect_modes(synthetic_fspec(p0))}
        assert families == {"other", "pi"}

    def test_off_target_peak_is_other(self):
        t, p0 = self.carrier()
        w1 = 2.0 * PI * 32 / self.M
        p0 = p0 + 0.2 * np.cos(2.0 * PI * 200 / self.M * t)
        modes = detect_modes(synthetic_fspec(p0), omega_delta_hint=w1)
        assert [m.family for m in modes] == ["other"]

    def test_adjacent_peaks_merge_to_strongest(self):
        t, p0 = self.carrier()
        p0 = (p0 + 0.20 * np.cos(2.0 * PI * 200 / self.M * t)
              + 0.10 * np.cos(2.0 * PI * 202 / self.M * t))
        modes = detect_modes(synthetic_fspec(p0))
        nearby = [m for m in modes if 195 <= m.index <= 205]
        assert len(nearby) == 1
        assert nearby[0].index == 200

    def test_pi_outranks_family_targets(self):
        t, p0 = self.carrier()
        p0 = p0 + 0.2 * np.cos(PI * t)
        bins2 = 2.0 * (2.0 * PI / self.M)
        modes = detect_modes(synthetic_fspec(p0),
                             omega_delta_hint=(PI - bins2) / 2.0)
        assert [m.family for m in modes] == ["pi"]


class TestPredictModeFamilies:
    def test_table(self):
        assert predict_mode_families(1, "large") == {"pi"}
        assert predict_mode_families(1, "small") == {"pi"}
        assert predict_mode_families(2, "large") == {
            "2omega_delta", "pi-2omega_delta", "pi"}
        assert predict_mode_families(3, "large") == {
            "omega_delta", "2omega_delta", "pi-2omega_delta",
            "pi-omega_delta", "pi"}
        assert predict_mode_families(3, "small") == {
            "omega_delta", "pi-omega_delta", "pi"}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            predict_mode_families(0, "large")
        with pytest.raises(ValueError):
            predict_mode_families(2, "medium")


def fake_trace(p0):
    p0 = np.asarray(p0, dtype=float)
    return EvolutionTrace(spec=None, steps=p0.size - 1, x0=0, p0_raw=p0,
                          p0_normalized=p0, leaked_probability=0.0)


class TestPersistenceParity:
    def test_persistent_reads_odd(self):
        parity, mean = persistence_parity(fake_trace(np.full(31, 0.1)))
        assert parity == "odd"
        assert mean == pytest.approx(0.1)

    def test_decayed_reads_even(self):
        parity, mean = persistence_parity(fake_trace(np.full(31, 0.001)))
        assert parity == "even"

    def test_window_average_only(self):
        p0 = np.zeros(31)
        p0[12:25] = 0.2
        parity, mean = persistence_parity(fake_trace(p0))
        assert parity == "odd"
        assert mean == pytest.approx(0.2)

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            persistence_parity(fake_trace(np.zeros(20)))


class TestInference:
    LEFT_LG = (0.75 * PI, 0.05 * PI)
    LEFT_SG = (0.125 * PI, 0.1 * PI)

    def infer(self, left, right):
        spec = split_spec(left, right, delta=0.05)
        return infer_edge_count(spec, steps=2000, spectrum_sites=301)

    def test_three_pairs_large_gap(self):
        inf = self.infer(self.LEFT_LG, (-PI / 3, 0.0))
        assert inf.delta_nu == 3
        assert not inf.ambiguous
        assert inf.parity == "odd"
        assert inf.gap_regime == "large"
        assert set(inf.families) == {"omega_delta", "2omega_delta",
                                     "pi-2omega_delta", "pi-omega_delta",
                                     "pi"}
        assert abs(inf.omega_delta_measured - inf.omega_delta_hint) \
            <= inf.fourier.bin_width
        assert inf.trace.steps == 2000

    def test_one_pair_large_gap(self):
        inf = self.infer(self.LEFT_LG, (-PI / 15, 2 * PI / 3))
        assert inf.delta_nu == 1
        assert inf.parity == "odd"
        # the unprotected impurity beat stays a nameless extra peak
        assert set(inf.families) <= {"other", "pi"}

    def test_two_pairs_small_gap(self):
        inf = self.infer(self.LEFT_SG, (-PI / 10, 2 * PI / 5))
        assert inf.delta_nu == 2
        assert inf.parity == "even"
        assert inf.persistence < 0.005
        assert inf.gap_regime == "small"
        assert set(inf.families) == {"2omega_delta", "pi-2omega_delta", "pi"}

    def test_two_pairs_large_gap_is_ambiguous(self):
        # the doubled-splitting beat has not decayed by t = 24, so the
        # parity and family signals disagree; the conflict is reported
        # rather than resolved by fiat
        inf = self.infer(self.LEFT_LG, (-PI / 10, 2 * PI / 5))
        assert inf.ambiguous
        assert inf.delta_nu is None
        assert inf.candidates == (1, 3)
        assert inf.notes


# the c09 / fig12 walks, (gap regime, delta_nu) -> (left, right) angles
SPLIT_WALKS = {
    ("large", 3): ((0.75 * PI, 0.05 * PI), (-PI / 3, 0.0)),
    ("large", 2): ((0.75 * PI, 0.05 * PI), (-PI / 10, 2 * PI / 5)),
    ("large", 1): ((0.75 * PI, 0.05 * PI), (-PI / 15, 2 * PI / 3)),
    ("small", 3): ((0.125 * PI, 0.1 * PI), (-PI / 5, -PI / 12)),
    ("small", 2): ((0.125 * PI, 0.1 * PI), (-PI / 10, 2 * PI / 5)),
    ("small", 1): ((0.125 * PI, 0.1 * PI), (-PI / 20, -PI / 7)),
}
WALK_IDS = [f"{gap}-dnu{nu}" for gap, nu in SPLIT_WALKS]


class TestCompanion:
    """The gap regime comes from the bulk fold and the splitting hint
    from the interface window of the companion ring."""

    @pytest.mark.parametrize("sites", [101, 301])
    @pytest.mark.parametrize("walk", SPLIT_WALKS, ids=WALK_IDS)
    def test_gap_regime_at_any_ring_size(self, walk, sites):
        # a 101-site ring has no state beyond the 50-site window, and
        # the lowest bulk state of a 301-site ring sits far above the
        # band floor of a small-gap walk
        spec = split_spec(*SPLIT_WALKS[walk], delta=0.05)
        inf = infer_edge_count(spec, steps=30, spectrum_sites=sites)
        assert inf.gap_regime == walk[0]
        floor = np.abs(quasienergy(bloch_fold(spec)).real).min()
        assert inf.eps_m == floor

    @pytest.mark.parametrize("walk", SPLIT_WALKS, ids=WALK_IDS)
    def test_window_hint_matches_dense(self, walk):
        def hint(result):
            splittings = [abs(p.eps.real)
                          for p in result.select("defective_pair_member")
                          if 1e-4 < abs(p.eps.real) < PI / 2]
            return min(splittings) if splittings else None

        spec = split_spec(*SPLIT_WALKS[walk], delta=0.05)
        companion = build_walk_operator(
            dataclasses.replace(spec, lattice=Lattice(201)))
        dense = eigendecompose(companion, compute_condition=False,
                               window=dynamics.COMPANION_WINDOW)
        window = eigendecompose(companion, compute_condition=False,
                                interface_only=True,
                                window=dynamics.COMPANION_WINDOW)
        assert window.solver == "interface"
        assert window.counts["defective_pair_member"] == \
            dense.counts["defective_pair_member"]
        inf = infer_edge_count(spec, steps=30, spectrum_sites=201)
        assert inf.companion_solver == "interface"
        if hint(dense) is None:
            assert inf.omega_delta_hint is None
        else:
            assert inf.omega_delta_hint == pytest.approx(hint(dense), rel=1e-9)


def ladder(parity, families):
    """The decision as an if/else ladder over the detected families."""
    wd_like = bool(families & {"omega_delta", "pi-omega_delta"})
    wd2_like = bool(families & {"2omega_delta", "pi-2omega_delta"})
    notes = []
    if parity == "odd":
        if wd_like:
            candidates = (3,)
        elif wd2_like:
            candidates = (1, 3)
            notes.append("persistent p0 says odd, but only the doubled "
                         "splitting family showed up")
        else:
            candidates = (1,)
    else:
        if wd2_like and not wd_like:
            candidates = (2,)
        elif wd_like:
            candidates = (2, 3)
            notes.append("base splitting family present although p0 decays")
        else:
            candidates = (0, 2)
            notes.append("no splitting families detected")
    return candidates, tuple(notes)


FAMILIES = ("omega_delta", "2omega_delta", "pi-2omega_delta",
            "pi-omega_delta", "pi", "other")
DETECTED = [set(subset) for r in range(len(FAMILIES) + 1)
            for subset in itertools.combinations(FAMILIES, r)]


class TestDecision:
    """The parity and the detected families alone set the candidates;
    the evolution and the peak search are replaced by fakes."""

    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("detected", DETECTED,
                             ids=["+".join(sorted(d)) or "none"
                                  for d in DETECTED])
    def test_matches_ladder(self, monkeypatch, parity, detected):
        modes = [Mode(omega=0.1 * (i + 1), magnitude=1.0, family=f, index=i)
                 for i, f in enumerate(sorted(detected))]
        monkeypatch.setattr(dynamics, "evolve",
                            lambda spec, steps: fake_trace(np.zeros(31)))
        monkeypatch.setattr(dynamics, "persistence_parity",
                            lambda trace: (parity, 0.0))
        monkeypatch.setattr(dynamics, "detect_modes",
                            lambda fspec, omega_delta_hint: modes)
        spec = split_spec((0.75 * PI, 0.05 * PI), (-PI / 3, 0.0), 0.05)
        inf = infer_edge_count(spec, steps=30, spectrum_sites=21)
        candidates, notes = ladder(parity, detected)
        assert inf.candidates == candidates
        assert inf.notes == notes
        assert inf.ambiguous == (len(candidates) > 1)
        assert inf.delta_nu == (None if inf.ambiguous else candidates[0])
        assert set(inf.families) == detected

    def test_measured_splitting_prefers_the_base_family(self):
        modes = [Mode(0.9 * PI, 1.0, "pi-omega_delta", 1),
                 Mode(0.2, 1.0, "omega_delta", 2),
                 Mode(0.3, 1.0, "omega_delta", 3)]
        assert dynamics._measured_splitting(modes) == 0.2
        assert dynamics._measured_splitting(modes[:1]) == \
            pytest.approx(0.1 * PI)
        assert dynamics._measured_splitting([]) is None


class TestCsv:
    def test_trace_rows(self, trace16, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(trace16, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,p0_raw,p0_normalized"
        assert len(lines) == 18
        assert lines[1].split(",")[0] == "0"

    def test_fourier_rows(self, trace16, tmp_path):
        path = tmp_path / "fourier.csv"
        write_fourier_csv(dft(trace16), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega_over_pi,abs_c"
        assert len(lines) == 2 + 17 // 2
        assert lines[1].split(",")[0] == "0"
        assert float(lines[-1].split(",")[0]) <= 1.0

    def test_snapshot_rows(self, trace16, tmp_path):
        path = tmp_path / "snap.csv"
        write_snapshot_csv(trace16, 8, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,prob"
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_snapshot_must_exist(self, trace16, tmp_path):
        with pytest.raises(KeyError):
            write_snapshot_csv(trace16, 3, tmp_path / "missing.csv")
