import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    write_fourier_csv,
    write_snapshot_csv,
    write_trace_csv,
)
from ptwalk.operators import (
    WALK_KINDS,
    CoinProfile,
    Lattice,
    WalkSpec,
    build_walk_operator,
)
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

    def test_normalized_probability_bounded(self):
        trace = evolve(homogeneous_spec(gamma=0.3), steps=40)
        assert np.all(trace.p0_normalized >= 0.0)
        assert np.all(trace.p0_normalized <= 1.0)

    def test_unitary_norm_preserved(self):
        trace = evolve(homogeneous_spec(), steps=40)
        assert trace.p0_raw == pytest.approx(trace.p0_normalized, abs=1e-12)
        assert trace.leaked_probability == 0.0

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

    @pytest.mark.parametrize("times", [(2.5,), (4, 7.25)])
    def test_snapshot_time_must_be_whole(self, times):
        with pytest.raises(ValueError, match="whole steps"):
            evolve(homogeneous_spec(), steps=12, snapshot_times=times)

    def test_whole_float_snapshot_time(self):
        trace = evolve(homogeneous_spec(), steps=12, snapshot_times=(4.0,))
        assert list(trace.snapshots) == [4]

    def test_point_source_is_fixed(self):
        # the walker always starts at x = 0 in DEFAULT_COIN, on a window
        # holding the whole light cone
        assert list(inspect.signature(evolve).parameters) == [
            "spec", "steps", "snapshot_times"]

    def test_needs_a_step(self):
        with pytest.raises(ValueError):
            evolve(homogeneous_spec(), steps=0)

    def test_deterministic(self):
        a = evolve(homogeneous_spec(gamma=0.1), steps=30)
        b = evolve(homogeneous_spec(gamma=0.1), steps=30)
        assert np.array_equal(a.p0_raw, b.p0_raw)
        assert np.array_equal(a.p0_normalized, b.p0_normalized)

    def test_rescale_survives_float_range(self):
        # broken-phase gain amplifies the state past 1e120 well before
        # the raw return probability leaves the float64 range
        spec = homogeneous_spec(theta=(0.25 * PI, 0.25 * PI), gamma=1.0)
        trace = evolve(spec, steps=400)
        assert trace.log_scale > 0.0
        assert math.isinf(trace.p0_raw[-1])
        assert np.all(np.isfinite(trace.p0_normalized))
        assert trace.p0_normalized.max() <= 1.0 + 1e-12


def oracle_p0(spec, steps):
    """p0 raw and normalized and the final site distribution, from
    explicit powers of the walk matrix.

    The matrix is built on the centred ring of the sites ``evolve``
    stores, the whole light cone of the source at x = 0, so no
    amplitude reaches the wrap.
    """
    reach = spec.bandwidth * steps
    lattice = Lattice(2 * reach + 1)
    u = build_walk_operator(dataclasses.replace(spec, lattice=lattice)).sparse
    psi = np.zeros(lattice.dim, dtype=complex)
    psi[lattice.index(0, 0)], psi[lattice.index(0, 1)] = DEFAULT_COIN
    at0 = [lattice.index(0, 0), lattice.index(0, 1)]
    raw, norm = [], []
    for t in range(steps + 1):
        if t:
            psi = u @ psi
        p = np.abs(psi) ** 2
        raw.append(p[at0].sum())
        norm.append(p[at0].sum() / p.sum())
    sites = p[0::2] + p[1::2]
    return np.array(raw), np.array(norm), (lattice.positions(), sites / p.sum())


def oracle_specs():
    io = CoinProfile.inner_outer(INNER, OUTER, half_width=4)
    split = CoinProfile.left_right((0.75 * PI, 0.05 * PI), (-PI / 3, 0.0),
                                   delta=0.05)
    seeded = CoinProfile.left_right((0.75 * PI, 0.05 * PI), (-PI / 3, 0.0),
                                    delta=0.05, disorder_amplitude=0.3,
                                    disorder_seed=7)
    lat = Lattice(11)
    return {
        "three_step": WalkSpec("three_step", lat, io, gamma=0.1),
        "three_step-gamma0": WalkSpec("three_step", lat, io, gamma=0.0),
        "perturbed_split": WalkSpec("three_step_perturbed", lat, split,
                                    gamma=0.0),
        "disordered": WalkSpec("three_step_perturbed_disordered", lat, seeded,
                               gamma=0.1),
    }


def counting_clip(monkeypatch):
    """Record the lanes every ``clip`` call drops."""
    clip = dynamics._SublatticeState.clip
    dropped = []

    def counted(state, radius):
        n = state.n
        clip(state, radius)
        dropped.append(n - state.n)

    monkeypatch.setattr(dynamics._SublatticeState, "clip", counted)
    return dropped


class TestMatrixPowerOracle:
    """``evolve`` against explicit powers of ``build_walk_operator``."""

    @staticmethod
    def check(spec, steps, snap_abs=1e-300, snapshot=True):
        trace = evolve(spec, steps=steps,
                       snapshot_times=(steps,) if snapshot else ())
        raw, norm, (x, prob) = oracle_p0(spec, steps)
        assert np.array_equal(trace.p0_raw == 0.0, raw == 0.0)
        assert np.count_nonzero(raw) > 20
        assert trace.p0_raw == pytest.approx(raw, rel=1e-12, abs=0.0)
        assert trace.p0_normalized == pytest.approx(norm, rel=1e-12, abs=0.0)
        if not snapshot:
            return trace
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
        self.check(oracle_specs()[name], 60)

    @pytest.mark.parametrize("name,steps", [("perturbed_split", 60),
                                            ("three_step-gamma0", 60),
                                            ("perturbed_split", 600)])
    def test_return_cone(self, monkeypatch, name, steps):
        # no snapshot: at gamma = 0 the stepper clips to the return cone
        dropped = counting_clip(monkeypatch)
        self.check(oracle_specs()[name], steps, snapshot=False)
        assert sum(dropped) > 0

    def test_trimmed_fronts(self, monkeypatch):
        # from t ~ 450-520 on the light-cone fronts of this walk fall
        # below the smallest normal float64 and the stepper drops them
        spec = oracle_specs()["three_step"]
        trim = dynamics._SublatticeState.trim
        dropped = []

        def counting_trim(state):
            n = state.n
            trim(state)
            dropped.append(n - state.n)

        monkeypatch.setattr(dynamics._SublatticeState, "trim", counting_trim)
        # over 600 steps, rounding leaves the small, cancelling
        # probabilities of the oracle only absolutely accurate
        trace = self.check(spec, 600, snap_abs=1e-15)
        assert sum(dropped) > 0
        x, prob = trace.snapshots[600]
        reach = spec.bandwidth * 600
        assert x[0] == -reach and x[-1] == reach
        assert np.sum(prob) == pytest.approx(1.0, abs=1e-12)
        occupied = (x - reach) % 2 == 0
        assert np.all(prob[~occupied] == 0.0)
        assert prob[occupied][0] == 0.0 and prob[occupied][-1] == 0.0

        # the dropped amplitudes were subnormal: without the trim p0 is
        # the same, and the norm differs only in its summation order
        monkeypatch.setattr(dynamics._SublatticeState, "trim",
                            lambda state: None)
        full = evolve(spec, steps=600, snapshot_times=(600,))
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


ANGLES = st.tuples(st.floats(-PI, PI), st.floats(-PI, PI))


@st.composite
def small_recipes(draw):
    """A walk of any kind and layout, with or without gain and loss,
    delta and disorder, and a step count and snapshot time of at most
    60 steps."""
    kind = draw(st.sampled_from(WALK_KINDS))
    layout = draw(st.sampled_from(["homogeneous", "inner_outer",
                                   "left_right"]))
    a, b = draw(ANGLES), draw(ANGLES)
    kw = {}
    if kind.startswith("three_step_perturbed"):
        kw["delta"] = draw(st.floats(-0.3, 0.3))
    if kind == "three_step_perturbed_disordered":
        kw["disorder_amplitude"] = draw(st.floats(0.0, 0.5))
        kw["disorder_seed"] = draw(st.integers(0, 2**64 - 1))
    if layout == "homogeneous":
        profile = CoinProfile.homogeneous(*a, **kw)
    elif layout == "inner_outer":
        # the oracle ring of a one-step snapshot has 3 sites per side
        profile = CoinProfile.inner_outer(a, b, draw(st.integers(1, 3)), **kw)
    else:
        profile = CoinProfile.left_right(a, b, **kw)
    gamma = draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)))
    steps = draw(st.integers(1, 60))
    snapshot = draw(st.integers(1, steps))
    return WalkSpec(kind, Lattice(11), profile, gamma=gamma), steps, snapshot


def assert_rounding_close(got, want, norm, steps):
    """``got`` within rel 1e-12 of ``want``, or of the rounding of the
    amplitudes it is made of.

    A probability ``p`` that is a small difference of larger amplitudes
    carries their rounding, about one ulp of the norm ``norm`` a step,
    so after ``steps`` steps an error of ``steps eps sqrt(p norm)``.
    That floor binds only below about ``2e-4 norm`` at 60 steps.
    """
    floor = steps * np.finfo(float).eps * np.sqrt(want * norm)
    err = np.abs(got - want)
    assert np.all(err <= np.maximum(1e-12 * want, floor)), err.max()


@given(small_recipes())
@settings(max_examples=40, deadline=None)
def test_evolve_matches_matrix_powers(recipe):
    spec, steps, snapshot = recipe
    trace = evolve(spec, steps=steps, snapshot_times=(snapshot,))
    raw, norm, _ = oracle_p0(spec, steps)
    assert np.array_equal(trace.p0_raw == 0.0, raw == 0.0)
    t = np.arange(steps + 1)
    total = np.divide(raw, norm, out=np.ones_like(raw), where=norm > 0)
    assert_rounding_close(trace.p0_raw, raw, total, t)
    assert_rounding_close(trace.p0_normalized, norm, 1.0, t)
    _, _, (x, prob) = oracle_p0(spec, snapshot)
    snap_x, snap_prob = trace.snapshots[snapshot]
    assert np.array_equal(snap_x, x)
    assert np.array_equal(snap_prob == 0.0, prob == 0.0)
    assert_rounding_close(snap_prob, prob, 1.0, snapshot)


class TestReturnCone:
    """At gamma = 0, past the last snapshot, ``evolve`` drops the sites
    that can no longer reach x = 0 and divides p0 by the initial norm."""

    def test_matches_unclipped_stepper(self, monkeypatch):
        spec = split_spec((0.75 * PI, 0.05 * PI), (-PI / 3, 0.0), 0.05)
        dropped = counting_clip(monkeypatch)
        trace = evolve(spec, steps=800)
        assert sum(dropped) > 0
        monkeypatch.setattr(dynamics._SublatticeState, "clip",
                            lambda state, radius: None)
        full = evolve(spec, steps=800)
        assert np.array_equal(trace.p0_raw, full.p0_raw)
        # the walk is unitary: p0 is divided by the norm at t = 0
        norm0 = dynamics._SublatticeState(1).norm2()
        want = full.p0_raw / norm0
        assert np.all(np.abs(trace.p0_normalized - want) <= np.spacing(want))

    def test_snapshot_past_half_trace(self, monkeypatch):
        # the cone binds from t = T/2 on, but no clip runs before the
        # last snapshot
        steps = 200
        t = steps // 2 + 5
        dropped = counting_clip(monkeypatch)
        trace = evolve(oracle_specs()["perturbed_split"], steps=steps,
                       snapshot_times=(t,))
        assert sum(dropped) > 0
        x, prob = trace.snapshots[t]
        assert x[0] == -3 * t and x[-1] == 3 * t
        assert np.sum(prob) == pytest.approx(1.0, abs=1e-12)
        occupied = (x - 3 * t) % 2 == 0
        assert np.all(prob[~occupied] == 0.0)
        assert np.all(prob[occupied] > 0.0)
        monkeypatch.setattr(dynamics._SublatticeState, "clip",
                            lambda state, radius: None)
        full = evolve(oracle_specs()["perturbed_split"], steps=steps,
                      snapshot_times=(t,))
        assert np.array_equal(full.snapshots[t][1], prob)

    @pytest.mark.parametrize("name", ["three_step", "disordered"])
    def test_gain_and_loss_are_never_clipped(self, monkeypatch, name):
        dropped = counting_clip(monkeypatch)
        evolve(oracle_specs()[name], steps=200)
        assert dropped == []


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

    def test_last_bin_ignores_its_mirror(self):
        # for odd m bin half + 1 is the conjugate of bin half itself; a
        # mirror one ulp larger must not decide whether the alternating
        # line is a peak
        m = self.M + 1
        t = np.arange(m)
        p0 = 0.3 + 0.001 * np.random.default_rng(0).standard_normal(m)
        fspec = synthetic_fspec(p0 + 0.08 * np.cos(PI * t))
        half = m // 2
        fspec.c[half + 1] = np.nextafter(abs(fspec.c[half]), np.inf)
        assert np.abs(fspec.c[half + 1]) > np.abs(fspec.c[half])
        modes = detect_modes(fspec)
        assert [(mode.index, mode.family) for mode in modes] == [(half, "pi")]


# the harmonics each (delta_nu, gap regime) shows: three pairs beat at
# both harmonics of the splitting, but a small gap suppresses the
# second; two pairs beat only at twice it; one pair has nothing to beat
# against but the alternating pi line
PREDICTED_HARMONICS = {
    (1, "large"): {0}, (1, "small"): {0},
    (2, "large"): {0, 2}, (2, "small"): {0, 2},
    (3, "large"): {0, 1, 2}, (3, "small"): {0, 1},
}


def test_decisions_recover_every_predicted_count():
    # an odd count of pairs keeps p0 persistent, and the lowest
    # splitting harmonic it beats at must pin the count down alone
    family_harmonics = {m for m, _ in dynamics.MODE_FAMILIES.values()}
    for (delta_nu, regime), harmonics in PREDICTED_HARMONICS.items():
        assert harmonics <= family_harmonics
        parity = "odd" if delta_nu % 2 else "even"
        lowest = min((h for h in harmonics if h > 0), default=None)
        candidates, _ = dynamics.DECISIONS[parity, lowest]
        assert candidates == (delta_nu,), (delta_nu, regime)


def fake_trace(p0):
    p0 = np.asarray(p0, dtype=float)
    return EvolutionTrace(spec=None, steps=p0.size - 1, p0_raw=p0,
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
