"""Time evolution and return-probability spectroscopy.

The walker starts from a single site and evolves on an effectively
infinite line: the stored window holds the whole light cone
(``bandwidth`` sites per side per step), so the ``lattice`` entry of
the spec is not consulted here.  A step runs the spec's protocol, the
factor table ``operators.PROTOCOLS`` that ``build_walk_operator``
folds into the walk matrix, so the stepper and the matrix cannot
disagree about the walk.

The stepper uses the sublattice structure of the walk.  A shift moves
left movers one site down and right movers one site up, so after ``k``
shifts only the sites of one parity are occupied.  Left movers are
stored by ``(i + k) / 2`` and right movers by ``(i - k) / 2``, so a
shift moves no amplitude in memory, and the coins and gains run over
half the sites.  The walk matrix is real, so the real and imaginary
parts are updated in place as separate float64 rows.  Edge sites whose
amplitudes have all fallen below the smallest normal float64 are
zeroed and dropped: their squares are zero anyway, and arithmetic on
subnormal numbers is slow.

A window cap can force truncation.  The cap is the open boundary of
``build_walk_operator``: amplitude that leaves the window is
annihilated, and the probability so lost is tracked and reported,
with a warning, instead of silently dropped.

The observable is the return probability ``p0(t) = |<x=0|psi(t)>|^2``,
both raw and normalized by the instantaneous total probability (the
natural choice when gain and loss make the evolution non-unitary).
Its discrete Fourier transform over ``t = 0..T`` exposes beat
frequencies between long-lived interface modes; peaks are matched to
the families of ``MODE_FAMILIES``, where ``omega_delta`` is the small
quasienergy splitting a perturbation ``delta`` gives the interface
modes.  That one table, a harmonic ``m`` of ``omega_delta`` per family,
mirrored to ``pi - m omega_delta`` or not, names the detected peaks,
predicts the families of each edge count and reads the splitting back.
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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bulk import bloch_fold, quasienergy
from .ioutil import write_csv
from .operators import Lattice, WalkSpec, build_walk_operator
from .spectrum import eigendecompose

DEFAULT_COIN = (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
RESCALE_LIMIT = 1e120
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

# the harmonics each (delta_nu, gap regime) shows: three pairs beat at
# both harmonics of the splitting, but a small gap suppresses the
# second; two pairs beat only at twice it; one pair has nothing to beat
# against but the alternating pi line
PREDICTED_HARMONICS = {
    (1, "large"): {0}, (1, "small"): {0},
    (2, "large"): {0, 2}, (2, "small"): {0, 2},
    (3, "large"): {0, 1, 2}, (3, "small"): {0, 1},
}

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
    x0: int
    p0_raw: np.ndarray
    p0_normalized: np.ndarray
    leaked_probability: float
    snapshots: dict = field(default_factory=dict)
    log_scale: float = 0.0


class _SublatticeState:
    """Amplitudes of a point-source walk on a window of ``width`` sites.

    After ``k`` shifts only the sites ``i = ix0 + k (mod 2)`` can hold
    amplitude.  The left mover of such a site is stored in lane
    ``(i - ix0 + k) / 2`` of ``left`` and the right mover in lane
    ``(i - ix0 - k) / 2 + shifts`` of ``right``: a shift carries every
    mover one site along its own lane, so it changes only ``k``.  Each
    array is float64 of shape ``(2, shifts + 1)``, real part over
    imaginary part; the walk matrix is real, so the two rows evolve
    independently.

    Only the support, the occupied sites ``lo, lo + 2, ...`` (``n`` of
    them), is updated; ``a`` and ``b`` are its views.  It grows by a
    site per side and shift, and :meth:`trim` drops edge sites whose
    amplitudes have all fallen below the smallest normal float64, where
    arithmetic turns slow and every square is zero.
    """

    def __init__(self, width: int, ix0: int, shifts: int, coin):
        self.width, self.ix0, self.shifts = width, ix0, shifts
        self.left = np.zeros((2, shifts + 1))
        self.right = np.zeros((2, shifts + 1))
        self.left[:, 0] = complex(coin[0]).real, complex(coin[0]).imag
        self.right[:, shifts] = complex(coin[1]).real, complex(coin[1]).imag
        n_max = (width + 1) // 2
        self._tmp = (np.empty((2, n_max)), np.empty((2, n_max)))
        self.k = 0
        self.lo, self.n = ix0, 1
        self._locate()

    @property
    def span(self) -> tuple[int, int]:
        """First and last site of the light cone clipped to the window."""
        return max(self.ix0 - self.k, 0), min(self.ix0 + self.k, self.width - 1)

    def _locate(self):
        ua = (self.lo - self.ix0 + self.k) // 2
        vb = (self.lo - self.ix0 - self.k) // 2 + self.shifts
        self.a = self.left[:, ua:ua + self.n]
        self.b = self.right[:, vb:vb + self.n]
        self.sites = slice(self.lo // 2, self.lo // 2 + self.n)

    def coin(self, cos_t, sin_t, reflect: bool):
        """C(theta) or R(theta) on every occupied site.

        ``cos_t`` and ``sin_t`` are pairs of (even-site, odd-site)
        arrays over the window.
        """
        a, b = self.a, self.b
        c = cos_t[self.lo & 1][self.sites]
        s = sin_t[self.lo & 1][self.sites]
        sa, sb = (t[:, :self.n] for t in self._tmp)
        np.multiply(a, s, out=sa)
        np.multiply(a, c, out=a)
        np.multiply(b, s, out=sb)
        np.multiply(b, c, out=b)
        if reflect:
            a += sb
            np.subtract(sa, b, out=b)
        else:
            a -= sb
            b += sa

    def gain(self, ga: float, gb: float):
        self.a *= ga
        self.b *= gb

    def shift(self) -> float:
        """Advance every mover one site; return the probability lost.

        The cap on the window is an open boundary: a left mover on the
        first site or a right mover on the last one is annihilated.
        """
        lost = 0.0
        hi = self.lo + 2 * (self.n - 1)
        if self.lo == 0:
            lost += float(self.a[0, 0] ** 2 + self.a[1, 0] ** 2)
            self.a[:, 0] = 0.0
        if hi == self.width - 1:
            lost += float(self.b[0, -1] ** 2 + self.b[1, -1] ** 2)
            self.b[:, -1] = 0.0
        self.k += 1
        self.lo = self.lo - 1 if self.lo > 0 else 1
        hi = hi + 1 if hi < self.width - 1 else self.width - 2
        self.n = (hi - self.lo) // 2 + 1
        self._locate()
        return lost

    def trim(self):
        """Zero and drop edge sites whose amplitudes are all subnormal."""
        tiny = np.finfo(float).tiny
        a, b = self.a, self.b
        first, last = 0, self.n - 1
        while first < last and max(abs(a[0, first]), abs(a[1, first]),
                                   abs(b[0, first]), abs(b[1, first])) < tiny:
            first += 1
        while last > first and max(abs(a[0, last]), abs(a[1, last]),
                                   abs(b[0, last]), abs(b[1, last])) < tiny:
            last -= 1
        if first == 0 and last == self.n - 1:
            return
        a[:, :first] = b[:, :first] = 0.0
        a[:, last + 1:] = b[:, last + 1:] = 0.0
        self.lo += 2 * first
        self.n = last - first + 1
        self._locate()

    def probabilities(self):
        """Squared moduli of the occupied amplitudes, left and right."""
        pa, pb = (t[:, :self.n] for t in self._tmp)
        np.multiply(self.a, self.a, out=pa)
        np.multiply(self.b, self.b, out=pb)
        return pa, pb

    def norm2(self) -> float:
        pa, pb = self.probabilities()
        return float(pa.sum() + pb.sum())

    def site_probability(self, i: int) -> float:
        """Probability on site ``i``; zero off the support."""
        j, odd = divmod(i - self.lo, 2)
        if odd or not 0 <= j < self.n:
            return 0.0
        a, b = self.a[:, j], self.b[:, j]
        return float(a[0] ** 2 + a[1] ** 2 + (b[0] ** 2 + b[1] ** 2))

    def max_modulus(self) -> float:
        return float(max(np.hypot(*self.a).max(), np.hypot(*self.b).max()))

    def rescale(self, m: float):
        self.a /= m
        self.b /= m

    def span_probabilities(self) -> np.ndarray:
        """Site probabilities over the whole span, zero off the parity
        and on trimmed edge sites."""
        pa, pb = self.probabilities()
        p = np.zeros(self.span[1] - self.span[0] + 1)
        start = self.lo - self.span[0]
        p[start:start + 2 * self.n:2] = (pa[0] + pa[1]) + (pb[0] + pb[1])
        return p


def evolve(spec: WalkSpec, steps: int, x0: int = 0, coin=DEFAULT_COIN,
           window_cap: int | None = None, snapshot_times=()) -> EvolutionTrace:
    """Run ``steps`` applications of the walk from a point source at ``x0``.

    ``window_cap`` bounds the number of stored sites; the default
    leaves room for the full light cone plus slack, so nothing is ever
    truncated unless the caller asks for it.  Snapshots are normalized
    site distributions taken after the requested step counts.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    band = spec.bandwidth
    full = 2 * band * steps + 1
    cap = window_cap if window_cap is not None else full + 127
    width = min(full, cap)
    if width < 3:
        raise ValueError("window cap too small")

    x = np.arange(width) - width // 2 + x0
    ix0 = x0 - x[0]
    i_origin = -x[0] if x[0] <= 0 <= x[-1] else None
    if i_origin is None:
        raise ValueError("x = 0 fell outside the window; p0 would be empty")

    trig = []
    for theta in spec.effective_angles(x):
        c, s = np.cos(theta), np.sin(theta)
        trig.append(((c[0::2].copy(), c[1::2].copy()),
                     (s[0::2].copy(), s[1::2].copy())))
    eg, emg = math.exp(spec.gamma), math.exp(-spec.gamma)
    gains = {1: (eg, emg), -1: (emg, eg)}
    state = _SublatticeState(width, ix0, band * steps, coin)

    snaps_wanted = set(int(t) for t in snapshot_times)
    bad = [t for t in snaps_wanted if not 0 <= t <= steps]
    if bad:
        raise ValueError(f"snapshot times outside 0..{steps}: {sorted(bad)}")

    p0_raw = np.zeros(steps + 1)
    p0_norm = np.zeros(steps + 1)
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    kept = 1.0  # share of the norm that survived the cap so far
    leak_raw_step = 0.0
    log_scale = 0.0
    warned = False

    for t in range(steps + 1):
        if t > 0:
            for op, arg in spec.protocol:
                if op == "shift":
                    leak_raw_step += state.shift()
                elif op == "gain":
                    if spec.gamma != 0.0:
                        state.gain(*gains[arg])
                else:
                    state.coin(*trig[arg], reflect=op == "reflect")
            state.trim()
        norm2 = state.norm2()
        # no amplitude exceeds sqrt(norm2); the margin covers rounding
        if spec.gamma != 0.0 and norm2 > 0.5 * RESCALE_LIMIT ** 2:
            m = state.max_modulus()
            if m > RESCALE_LIMIT:
                state.rescale(m)
                log_scale += math.log(m)
                norm2 = state.norm2()
                # this step's loss was measured before the rescale
                leak_raw_step = leak_raw_step / m / m

        site = state.site_probability(i_origin)
        if log_scale == 0.0:
            p0_raw[t] = site
        elif site == 0.0:
            p0_raw[t] = 0.0
        else:
            # undo the rescales in log space; the raw value can pass
            # the float64 range long before the run ends
            ls = math.log(site) + 2.0 * log_scale
            p0_raw[t] = math.exp(ls) if ls <= 709.0 else math.inf
        p0_norm[t] = site / norm2
        if leak_raw_step > 0.0:
            kept *= norm2 / (norm2 + leak_raw_step)
            leak_raw_step = 0.0
            if not warned:
                warnings.warn("window cap reached; probability is leaking "
                              "past the stored region", stacklevel=2)
                warned = True
        if t in snaps_wanted:
            lo, hi = state.span
            snapshots[t] = (x[lo:hi + 1].copy(),
                            state.span_probabilities() / norm2)

    return EvolutionTrace(spec=spec, steps=steps, x0=x0, p0_raw=p0_raw,
                          p0_normalized=p0_norm, leaked_probability=1.0 - kept,
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

    candidates = [i for i in range(1, half + 1)
                  if absc[i] >= absc[i - 1] and absc[i] >= absc[i + 1]]
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


def predict_mode_families(delta_nu: int, gap_regime: str) -> frozenset:
    """Families expected in the return-probability spectrum: those of
    ``MODE_FAMILIES`` whose harmonic ``PREDICTED_HARMONICS`` lists."""
    if delta_nu not in (1, 2, 3):
        raise ValueError("delta_nu must be 1, 2 or 3")
    if gap_regime not in ("large", "small"):
        raise ValueError("gap_regime must be 'large' or 'small'")
    harmonics = PREDICTED_HARMONICS[delta_nu, gap_regime]
    return frozenset(name for name, (m, _) in MODE_FAMILIES.items()
                     if m in harmonics)


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
    answered, ``"interface"`` or ``"dense-fallback"``.  ``eps_m`` is
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
