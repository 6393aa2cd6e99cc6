"""Finite-lattice spectra: eigenpairs, state taxonomy, interface mode counts.

States of an interface configuration are sorted into five classes:

* ``bulk``: not localized at any coin-profile interface.
* ``edge_zero`` / ``edge_pi``: localized with quasienergy on the real
  axis at 0 respectively pi (equivalently, a real eigenvalue of
  positive respectively negative sign).
* ``defective_pair_member``: localized, quasienergy still near 0 or pi
  but with a conjugate partner off the axis; such pairs appear when
  two interface modes coalesce at an exceptional point and split into
  the complex plane.
* ``impurity``: localized but with quasienergy well away from 0 and
  pi; these ride along with some interface configurations and are not
  protected.

Localization means at least half of the state's probability within
``window`` sites of an interface.  The default window of 10 sites
suits tightly bound interface modes; weakly confined ones (decay
lengths of tens of sites near a small bulk gap) need a wider window,
which is why it is a parameter and not a constant.

:func:`eigendecompose` has two solver paths.  The default is a dense
``scipy.linalg.eig`` of the whole matrix.  ``interface_only=True``
asks ARPACK in shift-invert mode for the eigenvalues nearest +1 and
-1 instead, enough of them to cover every state the taxonomy could
call ``edge_zero``, ``edge_pi`` or ``defective_pair_member`` (see
:func:`_completeness_radius`); the rest of the spectrum is never
computed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .bulk import bulk_gap_status, quasienergy
from .errors import GapClosedError
from .ioutil import write_csv
from .operators import CoinProfile, Lattice, WalkOperator, WalkSpec, build_walk_operator

DEFAULT_WINDOW = 10
TOL_EDGE = 1e-6       # rad, distance of Re eps from 0 or pi
TOL_REAL = 1e-8       # relative, |Im lambda| / |lambda|
EDGE_BAND = 0.3       # rad, how far off the axis a defective pair may sit
PAIR_TOL = 1e-8       # relative, conjugate partner matching
COND_THRESHOLD = 1e12  # eigenvalue condition number flagged as near defective
WINDOW_K0 = 16        # first ARPACK request of the interface path, per side

CLASSES = ("bulk", "edge_zero", "edge_pi", "defective_pair_member", "impurity")


@dataclass(eq=False)
class Eigenpair:
    lam: complex
    eps: complex
    vector: np.ndarray
    classification: str = "bulk"
    loc_center: float | None = None
    loc_length: float | None = None
    loc_fit_r2: float | None = None
    loc_reliable: bool | None = None
    eig_condition: float | None = None
    near_defective: bool = False
    ambiguous: bool = False


@dataclass(eq=False)
class SpectrumResult:
    spec: WalkSpec
    pairs: list[Eigenpair]
    counts: dict[str, int]
    eps_m: float | None
    window: int
    interfaces: list[float] = field(default_factory=list)
    solver: str = "dense"  # "dense", "interface" or "dense-fallback"

    def select(self, *classes: str) -> list[Eigenpair]:
        return [p for p in self.pairs if p.classification in classes]


def _site_probability(vector: np.ndarray) -> np.ndarray:
    p = np.abs(vector[0::2]) ** 2 + np.abs(vector[1::2]) ** 2
    return p / p.sum()


def _interface_distance(lattice: Lattice, interfaces) -> np.ndarray:
    """Per-site distance to the nearest interface bond center."""
    x = lattice.positions()
    if not interfaces:
        return np.full(x.shape, np.inf)
    d = np.abs(x[:, None] - np.asarray(interfaces)[None, :])
    if lattice.boundary == "periodic":
        d = np.minimum(d, lattice.num_sites - d)
    return d.min(axis=1)


@dataclass(frozen=True)
class LocalizationFit:
    length: float
    r2: float
    reliable: bool


def _fit_localization(prob: np.ndarray, lattice: Lattice,
                      center_idx: int) -> LocalizationFit | None:
    """Exponential fit of the probability tail around its peak.

    Fits log prob against distance from the peak over the decade below
    the peak value; the length is the probability e-folding distance.
    """
    x = lattice.positions()
    d = np.abs(x - x[center_idx])
    if lattice.boundary == "periodic":
        d = np.minimum(d, lattice.num_sites - d)
    peak = prob[center_idx]
    mask = (prob >= peak / 10.0) & (prob > 0)
    if mask.sum() < 3:
        return None
    slope, intercept = np.polyfit(d[mask], np.log(prob[mask]), 1)
    if slope >= 0:
        return LocalizationFit(length=np.inf, r2=0.0, reliable=False)
    fitted = slope * d[mask] + intercept
    resid = np.log(prob[mask]) - fitted
    total = np.log(prob[mask]) - np.log(prob[mask]).mean()
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 0.0
    return LocalizationFit(length=float(-1.0 / slope), r2=r2,
                           reliable=r2 >= 0.9)


def localization_length(pair: Eigenpair, lattice: Lattice) -> LocalizationFit:
    """Standalone localization fit for a non-bulk eigenpair."""
    if pair.classification == "bulk":
        raise ValueError("localization length of a bulk state is meaningless")
    prob = _site_probability(pair.vector)
    fit = _fit_localization(prob, lattice, int(np.argmax(prob)))
    if fit is None:
        raise ValueError("too few sites above a tenth of the peak to fit")
    return fit


def classify_states(evals: np.ndarray, vectors: np.ndarray, spec: WalkSpec,
                    eig_conditions: np.ndarray | None = None,
                    window: int = DEFAULT_WINDOW,
                    tol_edge: float = TOL_EDGE,
                    tol_real: float = TOL_REAL,
                    edge_band: float = EDGE_BAND,
                    pair_tol: float = PAIR_TOL) -> SpectrumResult:
    """Sort raw eigenpairs into the five state classes.

    ``vectors`` holds one unit-norm eigenvector per column.  Pairs come
    back sorted by (Re eps, Im eps).  Ambiguity near a class boundary
    (localization fraction at the 0.5 threshold, or an imaginary part
    right at the reality tolerance) is flagged on the pair, never
    silently dropped.
    """
    lattice = spec.lattice
    interfaces = spec.profile.interfaces(lattice)
    dmin = _interface_distance(lattice, interfaces)
    near = dmin <= window

    evals = np.asarray(evals)
    eps = quasienergy(evals)
    abs_lam = np.abs(evals)
    # a real matrix pairs every complex eigenvalue with its conjugate
    gap_to_conj = np.abs(evals[:, None] - np.conj(evals)[None, :])
    np.fill_diagonal(gap_to_conj, np.inf)
    conj_gap = gap_to_conj.min(axis=1)

    pairs: list[Eigenpair] = []
    for i in range(evals.size):
        lam = complex(evals[i])
        vec = np.ascontiguousarray(vectors[:, i])
        pair = Eigenpair(lam=lam, eps=complex(eps[i]), vector=vec)
        if eig_conditions is not None:
            pair.eig_condition = float(eig_conditions[i])
            pair.near_defective = pair.eig_condition > COND_THRESHOLD

        if interfaces:
            prob = _site_probability(vec)
            frac = float(prob[near].sum())
            localized = frac >= 0.5
            pair.ambiguous = abs(frac - 0.5) <= 1e-6
        else:
            localized = False

        dist0 = abs(eps[i].real)
        distpi = np.pi - dist0
        annihilated = abs_lam[i] == 0.0
        im_rel = 0.0 if annihilated else abs(lam.imag) / abs_lam[i]
        real_eig = im_rel <= tol_real
        if tol_real / 2 <= im_rel <= 2 * tol_real:
            pair.ambiguous = True

        if localized:
            if annihilated:
                # lambda = 0 is no mode of the walk, whatever its Re eps
                pair.classification = "impurity"
            elif real_eig or min(dist0, distpi) <= tol_edge:
                pair.classification = ("edge_zero" if dist0 <= distpi
                                       else "edge_pi")
            elif (min(dist0, distpi) <= edge_band
                  and conj_gap[i] <= pair_tol * max(abs_lam[i], 1.0)):
                pair.classification = "defective_pair_member"
            else:
                pair.classification = "impurity"
            idx = int(np.argmax(prob))
            pair.loc_center = float(lattice.positions()[idx])
            fit = _fit_localization(prob, lattice, idx)
            if fit is not None:
                pair.loc_length = fit.length
                pair.loc_fit_r2 = fit.r2
                pair.loc_reliable = fit.reliable
        pairs.append(pair)

    order = np.lexsort((
        [p.lam.imag for p in pairs],
        [p.lam.real for p in pairs],
        [p.eps.imag for p in pairs],
        [p.eps.real for p in pairs],
    ))
    pairs = [pairs[i] for i in order]

    counts = {name: 0 for name in CLASSES}
    for p in pairs:
        counts[p.classification] += 1

    bulk_up = [p.eps.real for p in pairs
               if p.classification == "bulk" and p.eps.real > 0]
    eps_m = min(bulk_up) if bulk_up else None
    return SpectrumResult(spec=spec, pairs=pairs, counts=counts, eps_m=eps_m,
                          window=window, interfaces=interfaces)


def _completeness_radius(gamma: float, edge_band: float = EDGE_BAND) -> float:
    """Distance from +1 (or -1) that holds every edge-like eigenvalue.

    On a periodic ring each of G and G^-1 enters a step once with norm
    e^|gamma| and every coin and shift has norm 1, so the spectrum lies
    in the annulus e^-2|gamma| <= |lambda| <= e^2|gamma|.  An edge-like
    state (real, or a defective pair member) has its argument within
    ``edge_band`` of 0 or pi, and the farthest such point from +-1 is a
    corner r e^(i edge_band) of that sector with r at either radius.
    """
    return max(abs(r * complex(math.cos(edge_band), math.sin(edge_band)) - 1)
               for r in (math.exp(-2 * abs(gamma)), math.exp(2 * abs(gamma))))


def _interface_window(op: WalkOperator, edge_band: float):
    """Eigenpairs near +1 and -1 from shift-invert ARPACK, or None.

    Each side starts at ``WINDOW_K0`` eigenvalues and doubles the count
    until the farthest one lies beyond the completeness radius, so
    nothing inside the radius is missed.  The start vector and the
    restart draws are seeded, which makes the result a function of the
    operator alone.  None means the window cannot be trusted (open
    lattice, k beyond a quarter of the dimension, or no convergence)
    and the caller should solve densely.
    """
    if op.spec.lattice.boundary == "open":
        return None  # S is not invertible, so |lambda| has no lower bound
    radius = _completeness_radius(op.spec.gamma, edge_band)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, op.dim)
    evals, vectors = [], []
    for sigma in (1.0, -1.0):
        k = WINDOW_K0
        while True:
            if k > op.dim / 4:
                return None
            try:
                lam, vec = scipy.sparse.linalg.eigs(op.sparse, k, sigma=sigma,
                                                    v0=v0, rng=0)
            except RuntimeError:
                # ArpackNoConvergence and ArpackError are RuntimeErrors,
                # and so is an exactly singular factor of A - sigma
                return None
            if np.abs(lam - sigma).max() > radius:
                break
            k *= 2
        evals.append(lam)
        vectors.append(vec)
    return np.concatenate(evals), np.concatenate(vectors, axis=1)


def eigendecompose(op: WalkOperator, compute_condition: bool = True, *,
                   interface_only: bool = False,
                   **classify_kw) -> SpectrumResult:
    """Eigendecomposition plus classification.

    By default the whole spectrum comes from a dense solve.  Eigenvalue
    condition numbers (1 over the cosine of the angle between matching
    left and right eigenvectors) are computed from the inverse of the
    eigenvector matrix; values beyond 1e12 flag the pair as near
    defective.  Exactly defective matrices leave the eigenvector matrix
    singular, in which case every condition number is reported
    infinite.

    ``interface_only=True`` computes only the window around +1 and -1
    that holds every ``edge_zero``, ``edge_pi`` and
    ``defective_pair_member`` state (with its conjugate partner).  Its
    ``counts["bulk"]`` and ``counts["impurity"]`` then cover that
    window alone, and ``eps_m`` is None since the band edge may lie
    outside it.  It needs ``compute_condition=False``.  Where the window
    cannot be trusted the dense path runs instead; ``solver`` on the
    result says which path answered.
    """
    if interface_only and compute_condition:
        raise ValueError("condition numbers need the full eigenvector "
                         "matrix; pass compute_condition=False")
    if interface_only:
        band = max(classify_kw.get("edge_band", EDGE_BAND),
                   classify_kw.get("tol_edge", TOL_EDGE))
        window = _interface_window(op, band)
        if window is not None:
            evals, vectors = window
            vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
            result = classify_states(evals, vectors, op.spec, **classify_kw)
            result.eps_m = None
            result.solver = "interface"
            return result
    evals, vectors = scipy.linalg.eig(op.matrix)
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    conditions = None
    if compute_condition:
        try:
            vinv = np.linalg.inv(vectors)
            conditions = np.linalg.norm(vinv, axis=1)
        except np.linalg.LinAlgError:
            conditions = np.full(evals.shape, np.inf)
    result = classify_states(evals, vectors, op.spec,
                             eig_conditions=conditions, **classify_kw)
    if interface_only:
        result.solver = "dense-fallback"
    return result


def minimum_bulk_quasienergy(result: SpectrumResult) -> float:
    """Smallest positive Re eps among bulk states (the upper band floor)."""
    if result.eps_m is None:
        raise ValueError("no bulk states with positive quasienergy")
    return result.eps_m


@dataclass(frozen=True, eq=False)
class EdgeCountMap:
    theta1_values: np.ndarray
    theta2_values: np.ndarray
    gamma: float
    n_zero: np.ndarray
    n_pi: np.ndarray
    counted: np.ndarray  # bool; False where the outer bulk gap is closed


def edge_count_map(inner: tuple[float, float], theta1_values, theta2_values,
                   gamma: float, half_width: int = 50,
                   num_sites: int = 801, window: int = DEFAULT_WINDOW,
                   threads: int = 1,
                   kind: str = "three_step") -> EdgeCountMap:
    """Count protected interface modes against a grid of outer phases.

    The inner phase must be gapped (GapClosedError otherwise).  Cells
    whose outer bulk gap is closed are skipped rather than counted,
    since an interface into a gapless bulk pins nothing.
    """
    if not bulk_gap_status(inner[0], inner[1], gamma).gap_open:
        raise GapClosedError("inner bulk phase is gapless")
    t1s = np.asarray(theta1_values, dtype=float)
    t2s = np.asarray(theta2_values, dtype=float)
    n_zero = np.zeros((t1s.size, t2s.size), dtype=int)
    n_pi = np.zeros_like(n_zero)
    counted = np.zeros(n_zero.shape, dtype=bool)
    lattice = Lattice(num_sites=num_sites)

    cells = [(i, j) for i in range(t1s.size) for j in range(t2s.size)]

    def fill(cell):
        i, j = cell
        status = bulk_gap_status(t1s[i], t2s[j], gamma)
        if not status.gap_open:
            return
        profile = CoinProfile.inner_outer(inner, (t1s[i], t2s[j]), half_width)
        spec = WalkSpec(kind=kind, lattice=lattice, profile=profile,
                        gamma=gamma)
        result = eigendecompose(build_walk_operator(spec),
                                compute_condition=False, interface_only=True,
                                window=window)
        n_zero[i, j] = result.counts["edge_zero"]
        n_pi[i, j] = result.counts["edge_pi"]
        counted[i, j] = True

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, cells))
    else:
        for cell in cells:
            fill(cell)
    return EdgeCountMap(theta1_values=t1s, theta2_values=t2s, gamma=gamma,
                        n_zero=n_zero, n_pi=n_pi, counted=counted)


def write_spectrum_csv(result: SpectrumResult, path) -> None:
    def rows():
        for p in result.pairs:
            yield [
                p.lam.real, p.lam.imag, p.eps.real, p.eps.imag,
                p.classification,
                "" if p.loc_center is None else p.loc_center,
                "" if p.loc_length is None else p.loc_length,
            ]

    write_csv(path, ["re_lambda", "im_lambda", "re_eps", "im_eps", "class",
                     "loc_center", "loc_length"], rows())


def write_state_csv(result: SpectrumResult, index: int, path) -> None:
    """Site probability profile of one eigenpair."""
    pair = result.pairs[index]
    prob = _site_probability(pair.vector)
    x = result.spec.lattice.positions()
    write_csv(path, ["x", "prob"],
              ([int(xi), float(pi)] for xi, pi in zip(x, prob)))


def write_edge_map_csv(emap: EdgeCountMap, path) -> None:
    def rows():
        for i, t1 in enumerate(emap.theta1_values):
            for j, t2 in enumerate(emap.theta2_values):
                ok = bool(emap.counted[i, j])
                yield [
                    float(t1), float(t2),
                    int(emap.n_zero[i, j]) if ok else "",
                    int(emap.n_pi[i, j]) if ok else "",
                    ok,
                ]

    write_csv(path, ["theta1_outer", "theta2_outer", "n_edge_zero",
                     "n_edge_pi", "counted"], rows())
