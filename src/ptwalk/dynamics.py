"""Time evolution and return-probability spectroscopy.

The walker starts at ``x = 0`` in the coin state ``DEFAULT_COIN`` and
evolves on an effectively infinite line: the stored window holds the
whole light cone (``bandwidth`` sites per side per step), so no
amplitude is ever lost off its edges and the ``lattice`` entry of the
spec is not consulted here.  A unitary walk (``gamma = 0``) is cut to
its return cone once the last snapshot is taken: after step ``t`` of
``T`` no site farther than ``bandwidth (T - t)`` from the source can
reach ``x = 0`` in time, so those sites are dropped.  The kept sites
compute the same values, so ``p0`` is exact.  A step runs the factor table
``operators.PROTOCOL`` that ``build_walk_operator`` folds into the walk
matrix, so the stepper and the matrix cannot disagree about the walk.

The stepper uses the sublattice structure of the walk.  A shift moves
left movers one site down and right movers one site up, so after ``k``
shifts only the sites of one parity are occupied, and the coins and
gains run over half the sites.  The walk matrix is real, so the real
and imaginary parts of the amplitudes evolve independently, each as
one row of a complex array that packs a site's left mover ``a`` and
right mover ``b`` as ``a + i b``.  The coin rotation C(theta) of
``(a, b)`` is then one in-place multiplication by ``e^{i theta}``, and
a shift keeps the real parts in place and moves the imaginary parts one
lane up.  Where numpy's complex multiply uses fused multiply-add
(AVX2 and AVX-512 hosts), it rounds differently from separate real
products, so the last bits of ``p0`` follow numpy's dispatch: the
artifacts are byte-identical from run to run on one host, not across
CPUs.  Edge sites whose amplitudes have all fallen below the smallest
normal float64 are zeroed and dropped: their squares are zero anyway,
and arithmetic on subnormal numbers is slow.

The observable is the return probability ``p0(t) = |<x=0|psi(t)>|^2``,
both raw and normalized by the total probability: the instantaneous
one when gain and loss make the evolution non-unitary, the conserved
one at ``t = 0`` when ``gamma = 0`` (a clipped state no longer holds
it).
Its discrete Fourier transform over ``t = 0..T`` exposes beat
frequencies between long-lived interface modes; peaks are matched to
the families of ``MODE_FAMILIES``, where ``omega_delta`` is the small
quasienergy splitting a perturbation ``delta`` gives the interface
modes.  That one table, a harmonic ``m`` of ``omega_delta`` per family,
mirrored to ``pi - m omega_delta`` or not, names the detected peaks
and reads the splitting back.
Counting which harmonics show up, together with whether p0 persists
at early times, pins down the number of interface mode pairs without
ever diagonalizing the big system (``DECISIONS``).  Two cheap reads
supply the rest: the gap regime comes from the bulk bands of both
phases (``bulk.bloch_fold``), and the expected splitting from the
interface window of a small companion ring, the shift-invert solve of
``spectrum.eigendecompose``.  The thresholds of the inference are
module constants.

Site probabilities are frame independent (the symmetric frame differs
only by a site-local orthogonal rotation), so ``three_step_symmetric``
evolves identically to ``three_step`` here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .bulk import bloch_fold, quasienergy
from .ioutil import write_csv
from .operators import PROTOCOL, Lattice, WalkSpec, build_walk_operator
from .spectrum import eigendecompose

DEFAULT_COIN = (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
RESCALE_LIMIT = 1e120
TINY = np.finfo(float).tiny  # smallest normal float64
PERSISTENCE_THRESHOLD = 0.05
PERSISTENCE_RANGE = (12, 24)
BACKGROUND_BINS = 64   # bins around a candidate peak that set its background
MERGE_BINS = 3         # peaks this close collapse to the strongest
MATCH_BINS = 2.0       # peak-to-family distance that still names the peak
PEAK_KAPPA = 6.0       # IQRs above the background median that make a peak
GAP_REGIME_SPLIT = 0.07 * math.pi  # eps_m below this counts as a small gap
COMPANION_WINDOW = 50  # wide: the interface modes can be weakly confined

# family -> (harmonic m, mirrored): the beat sits at m * omega_delta,
# or at pi - m * omega_delta when mirrored.  Ties between targets go to
# the earlier family.
MODE_FAMILIES = {
    "omega_delta": (1, False),
    "2omega_delta": (2, False),
    "pi-2omega_delta": (2, True),
    "pi-omega_delta": (1, True),
    "pi": (0, True),
}
UNMATCHED = "other"  # a peak that no family target claims

# (parity, lowest splitting harmonic seen) -> (candidates, note)
DECISIONS = {
    ("odd", 1): ((3,), None),
    ("odd", 2): ((1, 3), "persistent p0 says odd, but only the doubled "
                         "splitting family showed up"),
    ("odd", None): ((1,), None),
    ("even", 1): ((2, 3), "base splitting family present although p0 decays"),
    ("even", 2): ((2,), None),
    ("even", None): ((0, 2), "no splitting families detected"),
}


def _family_target(family: str, omega_delta: float) -> float:
    """Where ``family`` beats for a splitting of ``omega_delta``."""
    m, mirrored = MODE_FAMILIES[family]
    return np.pi - m * omega_delta if mirrored else m * omega_delta


@dataclass(eq=False)
class EvolutionTrace:
    spec: WalkSpec
    steps: int
    p0_raw: np.ndarray
    p0_normalized: np.ndarray
    leaked_probability: float
    snapshots: dict = field(default_factory=dict)
    log_scale: float = 0.0


class _SublatticeState:
    """Amplitudes of the point-source walk over its whole light cone.

    The window holds the sites ``i = 0 .. 2 shifts``, the source sitting
    at ``i = shifts``.  After ``k`` shifts only the sites
    ``i = shifts + k (mod 2)`` can hold amplitude, and such a site lives
    in lane ``(i - shifts + k) / 2`` of ``W``, a complex array of shape
    ``(2, shifts + 1)``.  Row 0 holds the real parts of the amplitudes
    and row 1 their imaginary parts; the walk matrix is real, so the two
    rows evolve independently.  Within a row the left mover ``a`` and
    the right mover ``b`` of a site are packed as ``a + i b``, so the
    coin rotation C(theta) of ``(a, b)`` is one multiplication by
    ``e^{i theta}``.  A shift moves left movers one site down and right
    movers one site up: the real parts keep their lane and the
    imaginary parts move one lane up.

    Only the support, the occupied sites ``lo, lo + 2, ...`` in the
    ``n`` lanes from ``lane`` on, is updated; ``w`` is its view.  It
    grows by a site per side and shift.  :meth:`trim` drops edge sites
    whose amplitudes have all fallen below the smallest normal float64,
    where arithmetic turns slow and every square is zero, and
    :meth:`clip` drops the sites outside a radius around the source.
    Lanes outside the support hold zero.
    """

    def __init__(self, shifts: int):
        self.shifts = shifts
        self.W = np.zeros((2, shifts + 1), dtype=complex)
        a0, b0 = (complex(c) for c in DEFAULT_COIN)
        self.W[:, 0] = complex(a0.real, b0.real), complex(a0.imag, b0.imag)
        self._im = tuple(self.W.imag)  # the right movers, row by row
        self.k = 0
        self.lo, self.n = shifts, 1
        self._locate()

    @property
    def span(self) -> tuple[int, int]:
        """First and last site of the light cone."""
        return self.shifts - self.k, self.shifts + self.k

    def _locate(self):
        self.lane = (self.lo - self.shifts + self.k) // 2
        self.w = self.W[:, self.lane:self.lane + self.n]
        self.sites = slice(self.lo // 2, self.lo // 2 + self.n)

    def coin(self, phasors):
        """C(theta) on every occupied site.

        ``phasors`` is the (even-site, odd-site) pair of ``e^{i theta}``
        arrays over the window.
        """
        np.multiply(self.w, phasors[self.lo & 1][self.sites], out=self.w)

    def gain(self, ga: float, gb: float):
        self.w.real *= ga
        self.w.imag *= gb

    def shift(self):
        """Advance every mover one site: the support widens by one site
        per side."""
        j, n = self.lane, self.n
        for row in self._im:
            row[j + 1:j + n + 1] = row[j:j + n]
            row[j] = 0.0
        self.k += 1
        self.lo -= 1
        self.n += 1
        self._locate()

    def trim(self):
        """Zero and drop edge sites whose amplitudes are all subnormal."""
        w = self.w
        first, last = 0, self.n - 1
        while first < last and _subnormal(w[0, first], w[1, first]):
            first += 1
        while last > first and _subnormal(w[0, last], w[1, last]):
            last -= 1
        self._keep(first, last)

    def clip(self, radius: int):
        """Zero and drop sites farther than ``radius`` from the source."""
        first = max(0, -((self.lo - self.shifts + radius) // 2))
        last = min(self.n - 1, (self.shifts + radius - self.lo) // 2)
        self._keep(first, last)

    def _keep(self, first: int, last: int):
        """Zero the support outside lanes ``first..last`` and shrink it
        to them."""
        if first == 0 and last == self.n - 1:
            return
        self.w[:, :first] = 0.0
        self.w[:, last + 1:] = 0.0
        self.lo += 2 * first
        self.n = last - first + 1
        self._locate()

    def norm2(self) -> float:
        v = self.w.view(float)
        return float(np.dot(v[0], v[0]) + np.dot(v[1], v[1]))

    def site_probability(self, i: int) -> float:
        """Probability on site ``i``; zero off the support."""
        j, odd = divmod(i - self.lo, 2)
        if odd or not 0 <= j < self.n:
            return 0.0
        z0, z1 = self.w[0, j], self.w[1, j]
        return float(z0.real ** 2 + z1.real ** 2
                     + (z0.imag ** 2 + z1.imag ** 2))

    def max_modulus(self) -> float:
        w = self.w
        return float(max(np.hypot(*w.real).max(), np.hypot(*w.imag).max()))

    def rescale(self, m: float):
        v = self.w.view(float)
        v /= m

    def span_probabilities(self) -> np.ndarray:
        """Site probabilities over the whole span, zero off the parity
        and on trimmed edge sites."""
        pa, pb = self.w.real ** 2, self.w.imag ** 2
        p = np.zeros(self.span[1] - self.span[0] + 1)
        start = self.lo - self.span[0]
        p[start:start + 2 * self.n:2] = (pa[0] + pa[1]) + (pb[0] + pb[1])
        return p


def _subnormal(z0, z1) -> bool:
    """Whether all four parts of a lane's two amplitudes are subnormal."""
    return max(abs(z0.real), abs(z0.imag), abs(z1.real), abs(z1.imag)) < TINY


def evolve(spec: WalkSpec, steps: int, snapshot_times=()) -> EvolutionTrace:
    """Run ``steps`` applications of the walk from a point source at
    ``x = 0`` in the coin state ``DEFAULT_COIN``.

    The stored window is the whole light cone, so no amplitude is lost
    off its edges.  At ``gamma = 0`` the steps after the last snapshot
    run on the return cone only, the sites within ``bandwidth`` times
    the remaining steps of ``x = 0``; nothing outside it reaches
    ``x = 0`` again, so ``p0_raw`` is unchanged.  ``p0_normalized`` is
    then ``p0_raw`` over the norm at ``t = 0``, which the orthogonal
    walk conserves; with gain and loss it is over the norm at each
    step.  Snapshots are normalized site distributions taken after the
    requested step counts, over the whole light cone; a time that is not
    a whole step count is refused.

    The state is the packed complex array of :class:`_SublatticeState`,
    so each coin is one phasor multiply; its last bits depend on the
    host's complex-multiply code (see the module docstring).
    """
    if steps < 1:
        raise ValueError("need at least one step")
    reach = spec.bandwidth
    shifts = reach * steps
    x = np.arange(-shifts, shifts + 1)

    phasors = []
    for theta in spec.effective_angles(x):
        ph = np.cos(theta) + 1j * np.sin(theta)
        phasors.append((ph[0::2].copy(), ph[1::2].copy()))
    eg, emg = math.exp(spec.gamma), math.exp(-spec.gamma)
    gains = {1: (eg, emg), -1: (emg, eg)}
    state = _SublatticeState(shifts)

    snaps_wanted = set(int(t) for t in snapshot_times)
    if snaps_wanted != set(snapshot_times):
        raise ValueError(f"snapshot times must be whole steps: "
                         f"{list(snapshot_times)}")
    bad = [t for t in snaps_wanted if not 0 <= t <= steps]
    if bad:
        raise ValueError(f"snapshot times outside 0..{steps}: {sorted(bad)}")

    unitary = spec.gamma == 0.0
    last_snap = max(snaps_wanted, default=-1)
    norm0 = state.norm2()

    p0_raw = np.zeros(steps + 1)
    p0_norm = np.zeros(steps + 1)
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    log_scale = 0.0

    for t in range(steps + 1):
        if t > 0:
            for op, arg in PROTOCOL:
                if op == "shift":
                    state.shift()
                elif op == "gain":
                    if not unitary:
                        state.gain(*gains[arg])
                else:
                    state.coin(phasors[arg])
            state.trim()
            if unitary and t > last_snap:
                # nothing farther out reaches x = 0 within the steps left
                state.clip(reach * (steps - t))
        if unitary:
            # the norm is conserved, and a clipped state no longer holds it
            norm2 = state.norm2() if t in snaps_wanted else norm0
        else:
            norm2 = state.norm2()
            # no amplitude exceeds sqrt(norm2); the margin covers rounding
            if norm2 > 0.5 * RESCALE_LIMIT ** 2:
                m = state.max_modulus()
                if m > RESCALE_LIMIT:
                    state.rescale(m)
                    log_scale += math.log(m)
                    norm2 = state.norm2()

        site = state.site_probability(shifts)  # site i = shifts is x = 0
        if log_scale == 0.0:
            p0_raw[t] = site
        elif site == 0.0:
            p0_raw[t] = 0.0
        else:
            # undo the rescales in log space; the raw value can pass
            # the float64 range long before the run ends
            ls = math.log(site) + 2.0 * log_scale
            p0_raw[t] = math.exp(ls) if ls <= 709.0 else math.inf
        p0_norm[t] = site / (norm0 if unitary else norm2)
        if t in snaps_wanted:
            lo, hi = state.span
            snapshots[t] = (x[lo:hi + 1].copy(),
                            state.span_probabilities() / norm2)

    # the light cone never leaves the window: no probability is lost
    return EvolutionTrace(spec=spec, steps=steps, p0_raw=p0_raw,
                          p0_normalized=p0_norm, leaked_probability=0.0,
                          snapshots=snapshots, log_scale=log_scale)


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    omega: np.ndarray
    c: np.ndarray
    bin_width: float
    steps: int


def dft(trace: EvolutionTrace) -> FourierSpectrum:
    """Discrete Fourier transform of the normalized return probability.

    Uses all ``T + 1`` samples ``t = 0..T`` on the grid
    ``omega_n = 2 pi n / (T + 1)``.  ``c[0]`` is the (real,
    nonnegative) time average times ``T + 1``.
    """
    p0 = trace.p0_normalized
    c = np.fft.fft(p0)
    m = p0.size
    return FourierSpectrum(omega=2.0 * np.pi * np.arange(m) / m, c=c,
                           bin_width=2.0 * np.pi / m, steps=trace.steps)


@dataclass(frozen=True)
class Mode:
    omega: float
    magnitude: float
    family: str
    index: int


def detect_modes(fspec: FourierSpectrum,
                 omega_delta_hint: float | None = None) -> list[Mode]:
    """Find and name the peaks of ``|c(omega)|`` over ``0 < omega <= pi``.

    A bin is a peak when it is a local maximum exceeding the local
    background by ``PEAK_KAPPA`` interquartile ranges above the median,
    measured over ``BACKGROUND_BINS`` surrounding bins with the
    omega = 0 and omega = pi bins left out of the statistics (they
    carry the mean and the ever-present alternating component and
    would poison the quartiles).  Neighboring survivors within
    ``MERGE_BINS`` collapse to the strongest one.

    Naming needs the expected splitting: with no
    ``omega_delta_hint`` only the harmonic-0 family ``pi`` and ``other``
    can be assigned.  A peak within ``MATCH_BINS`` bins of a target gets
    its family's name, with ``pi`` checked first; everything else is
    ``other`` (``UNMATCHED``), which is where unprotected impurity beats
    land by design rather than stretching them onto the nearest named
    family.
    """
    absc = np.abs(fspec.c)
    m = absc.size
    half = m // 2
    excluded = {0, half}
    spread = BACKGROUND_BINS // 2

    # bin half + 1 mirrors a bin at or left of half (half itself when m
    # is odd), so bin half only has to beat its left neighbour
    candidates = [i for i in range(1, half + 1)
                  if absc[i] >= absc[i - 1]
                  and (i == half or absc[i] >= absc[i + 1])]
    peaks = []
    for i in candidates:
        window = [j for j in range(max(1, i - spread), min(half, i + spread) + 1)
                  if j not in excluded]
        vals = absc[window]
        q25, q50, q75 = np.percentile(vals, [25, 50, 75])
        if absc[i] > q50 + PEAK_KAPPA * (q75 - q25):
            peaks.append(i)

    merged: list[int] = []
    for i in peaks:
        if merged and i - merged[-1] <= MERGE_BINS:
            if absc[i] > absc[merged[-1]]:
                merged[-1] = i
        else:
            merged.append(i)

    slack = MATCH_BINS * fspec.bin_width
    # the hint-free families are checked first, then the beats
    fixed = {name: _family_target(name, 0.0)
             for name, (m, _) in MODE_FAMILIES.items() if m == 0}
    beats = {}
    if omega_delta_hint is not None:
        wd = float(omega_delta_hint)
        beats = {name: _family_target(name, wd)
                 for name, (m, _) in MODE_FAMILIES.items() if m > 0}

    modes = []
    for i in merged:
        omega = float(fspec.omega[i])
        family = UNMATCHED
        for targets in (fixed, beats):
            if targets:
                name = min(targets, key=lambda n: abs(omega - targets[n]))
                if abs(omega - targets[name]) <= slack:
                    family = name
                    break
        modes.append(Mode(omega=omega, magnitude=float(absc[i]),
                          family=family, index=i))
    return modes


def persistence_parity(trace: EvolutionTrace):
    """Early-time persistence of the normalized return probability.

    An odd number of interface mode pairs leaves a stationary
    component in p0, so its short-time average stays above
    ``PERSISTENCE_THRESHOLD``; an even number lets p0 decay like the
    bulk background.
    The average runs over the steps in ``PERSISTENCE_RANGE``.  Returns
    ("odd" or "even", the measured average).
    """
    t0, t1 = PERSISTENCE_RANGE
    if trace.steps < t1:
        raise ValueError(f"trace too short for the {PERSISTENCE_RANGE} window")
    mean = float(np.mean(trace.p0_normalized[t0:t1 + 1]))
    return ("odd" if mean >= PERSISTENCE_THRESHOLD else "even"), mean


@dataclass(frozen=True, eq=False)
class EdgeInference:
    delta_nu: int | None
    candidates: tuple
    ambiguous: bool
    parity: str
    persistence: float
    families: tuple
    modes: list
    omega_delta_measured: float | None
    omega_delta_hint: float | None
    eps_m: float
    gap_regime: str
    companion_solver: str
    notes: tuple
    trace: EvolutionTrace | None = None
    fourier: FourierSpectrum | None = None


def _measured_splitting(modes) -> float | None:
    """The splitting read off the first harmonic-1 mode, an unmirrored
    one preferred; a mirrored one sits at pi minus the splitting."""
    for mirrored in (False, True):
        for m in modes:
            if MODE_FAMILIES.get(m.family) == (1, mirrored):
                return float(np.pi - m.omega) if mirrored else m.omega
    return None


def infer_edge_count(spec: WalkSpec, steps: int = 10000,
                     spectrum_sites: int = 801) -> EdgeInference:
    """Infer the interface mode count difference from dynamics alone.

    Runs the long evolution, Fourier-analyzes the normalized return
    probability, and reads the count off the detected families plus
    the early-time parity.  The expected splitting ``omega_delta`` that
    names the families is the smallest defective-pair splitting of a
    companion ring of ``spectrum_sites`` sites, read from its interface
    window (``interface_only=True``, localization window
    ``COMPANION_WINDOW`` sites); defective pairs lie inside that window
    by construction.  ``companion_solver`` records the path that
    answered.  On a gamma = 0 walk, as the split walks of return
    spectroscopy are, the ring is orthogonal: every mu = (lambda +
    1/lambda)/2 is double, so the lambda-window (``"interface"``)
    answers, or ``"dense-fallback"`` where it cannot.  ``eps_m`` is
    the bulk band floor, the smallest ``|Re eps|`` of either phase over
    the ``bulk.bloch_fold`` momentum grid; below ``GAP_REGIME_SPLIT``
    the gap regime is ``"small"``.  It does not depend on the size of
    the companion ring.

    ``DECISIONS`` maps the parity and the lowest splitting harmonic
    among the detected families to the candidate counts.  The two
    signals can disagree when a spectrum is atypical; the result is
    then flagged ambiguous, with every count consistent with the
    evidence listed, rather than forced to a single number.
    """
    trace = evolve(spec, steps=steps)
    parity, persistence = persistence_parity(trace)
    fspec = dft(trace)

    eps_m = float(np.abs(quasienergy(bloch_fold(spec)).real).min())
    gap_regime = "small" if eps_m < GAP_REGIME_SPLIT else "large"

    lattice = Lattice(num_sites=spectrum_sites)
    companion = dataclasses.replace(spec, lattice=lattice)
    result = eigendecompose(build_walk_operator(companion),
                            compute_condition=False, interface_only=True,
                            window=COMPANION_WINDOW)
    splittings = [abs(p.eps.real) for p in result.select("defective_pair_member")
                  if 1e-4 < abs(p.eps.real) < np.pi / 2]
    hint = min(splittings) if splittings else None

    modes = detect_modes(fspec, omega_delta_hint=hint)
    families = tuple(sorted(set(m.family for m in modes)))
    harmonics = [MODE_FAMILIES[f][0] for f in families if f in MODE_FAMILIES]
    lowest = min((h for h in harmonics if h > 0), default=None)
    candidates, note = DECISIONS[parity, lowest]
    notes = (note,) if note else ()

    ambiguous = len(candidates) != 1
    return EdgeInference(
        delta_nu=candidates[0] if not ambiguous else None,
        candidates=candidates, ambiguous=ambiguous, parity=parity,
        persistence=persistence, families=families, modes=modes,
        omega_delta_measured=_measured_splitting(modes), omega_delta_hint=hint,
        eps_m=eps_m, gap_regime=gap_regime, companion_solver=result.solver,
        notes=notes, trace=trace, fourier=fspec)


def write_trace_csv(trace: EvolutionTrace, path) -> None:
    rows = ([t, float(trace.p0_raw[t]), float(trace.p0_normalized[t])]
            for t in range(trace.steps + 1))
    write_csv(path, ["t", "p0_raw", "p0_normalized"], rows)


def write_fourier_csv(fspec: FourierSpectrum, path) -> None:
    """Rows for 0 <= omega <= pi; the upper half mirrors it exactly."""
    half = fspec.c.size // 2
    rows = ([float(fspec.omega[n] / np.pi), float(abs(fspec.c[n]))]
            for n in range(half + 1))
    write_csv(path, ["omega_over_pi", "abs_c"], rows)


def write_snapshot_csv(trace: EvolutionTrace, t: int, path) -> None:
    if t not in trace.snapshots:
        raise KeyError(f"no snapshot recorded at t={t}")
    x, prob = trace.snapshots[t]
    write_csv(path, ["x", "prob"],
              ([int(xi), float(pi)] for xi, pi in zip(x, prob)))
