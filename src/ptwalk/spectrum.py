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
which is why :func:`eigendecompose` takes it.  The interface probes
(:func:`edge_count_map` and those of ``ptwalk.perturbation``) always
use ``DEFAULT_WINDOW``.  The other classification thresholds
(``TOL_EDGE``, ``TOL_REAL``, ``EDGE_BAND``, ``PAIR_TOL`` and
``COND_THRESHOLD``) are module constants, which the manifests of
the command line record.  ``EDGE_BAND`` also sizes the interface
window below, so the window and the classification cannot disagree.

:func:`eigendecompose` takes its path from the walk's recipe
(:func:`_structure`): a gain-loss-free walk is real orthogonal and a
PT-symmetric one satisfies P U P = U^-1, and either way the eigenspaces
of M = (U + U^-1)/2 reduce U to small blocks; every other walk takes a
dense ``scipy.linalg.eig``.  ``interface_only=True`` asks shift-invert
ARPACK, on a banded LU of each shifted matrix (:func:`_window`), only
for the states the taxonomy could call ``edge_zero``, ``edge_pi`` or
``defective_pair_member``: in mu = (lambda + 1/lambda)/2 where each mu
is simple, and in lambda where a relation makes every mu double.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph
import scipy.sparse.linalg

from ._pool import ordered_map
from .bulk import bulk_gap_status, quasienergy
from .errors import GapClosedError
from .ioutil import write_csv
from .operators import (
    CoinProfile,
    Lattice,
    WalkOperator,
    WalkSpec,
    build_walk_operator,
    half_coin,
    mirror_symmetric,
    parity_even,
    symmetric_frame,
)

DEFAULT_WINDOW = 10
TOL_EDGE = 1e-6       # rad, distance of Re eps from 0 or pi
TOL_REAL = 1e-8       # relative, |Im lambda| / |lambda|
EDGE_BAND = 0.3       # rad, how far off the axis a defective pair may sit
PAIR_TOL = 1e-8       # relative, conjugate partner matching
COND_THRESHOLD = 1e12  # eigenvalue condition number flagged as near defective
WINDOW_K0 = 16        # first ARPACK request of the interface path, per side
CLUSTER_TOL = 3e-4    # relative to the largest |mu|, mu values solved together
RESIDUAL_TOL = 1e-10  # |U v - lambda v| every structured eigenpair must meet
_BLOCK = 256          # columns per sparse product over all eigenvectors

CLASSES = ("bulk", "edge_zero", "edge_pi", "defective_pair_member", "impurity")


@dataclass(eq=False)
class Eigenpair:
    lam: complex
    eps: complex
    vector: np.ndarray
    classification: str = "bulk"
    loc_center: float | None = None
    loc_length: float | None = None
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
    # "orthogonal", "pt-fold", "dense", "interface-fold", "interface-mu",
    # "interface" or "dense-fallback"
    solver: str = "dense"

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
    return np.minimum(d, lattice.num_sites - d).min(axis=1)


def _fit_localization(prob: np.ndarray, lattice: Lattice,
                      center_idx: int) -> tuple[float, bool] | None:
    """Exponential fit of the probability tail around its peak.

    Fits log prob against distance from the peak over the decade below
    the peak value.  Returns the probability e-folding distance and
    whether the fit is reliable, or None with fewer than three points.
    """
    x = lattice.positions()
    d = np.abs(x - x[center_idx])
    d = np.minimum(d, lattice.num_sites - d)
    peak = prob[center_idx]
    mask = (prob >= peak / 10.0) & (prob > 0)
    if mask.sum() < 3:
        return None
    slope, intercept = np.polyfit(d[mask], np.log(prob[mask]), 1)
    if slope >= 0:
        return np.inf, False
    fitted = slope * d[mask] + intercept
    resid = np.log(prob[mask]) - fitted
    total = np.log(prob[mask]) - np.log(prob[mask]).mean()
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 0.0
    return float(-1.0 / slope), r2 >= 0.9


def _conjugate_gaps(evals: np.ndarray) -> np.ndarray:
    """min over j != i of |lambda_i - conj(lambda_j)|, for every i.

    That distance is at least |Re lambda_i - Re lambda_j|, so a scan
    over offsets in real-part order stops at the first offset where no
    pair is closer in real part than the best partner of either end.
    The distance is symmetric in i and j bit for bit, so each pair is
    computed once.
    """
    order = np.argsort(evals.real, kind="stable")
    z = evals[order]
    best = np.full(z.size, np.inf)
    for k in range(1, z.size):
        gap = z.real[k:] - z.real[:-k]
        near = np.flatnonzero((gap < best[:-k]) | (gap < best[k:]))
        if not near.size:
            break
        d = np.abs(z[near] - np.conj(z[near + k]))
        best[near] = np.minimum(best[near], d)
        best[near + k] = np.minimum(best[near + k], d)
    gaps = np.empty_like(best)
    gaps[order] = best
    return gaps


def _check_window(window: int) -> None:
    # interfaces sit on bond centres, half a site from the nearest one:
    # below 1 no state is localized and every class but bulk is empty
    if window < 1:
        raise ValueError(f"window must be at least 1 site, got {window}")


def classify_states(evals: np.ndarray, vectors: np.ndarray, spec: WalkSpec,
                    eig_conditions: np.ndarray | None = None,
                    window: int = DEFAULT_WINDOW) -> SpectrumResult:
    """Sort raw eigenpairs into the five state classes.

    ``vectors`` holds one unit-norm eigenvector per column.  Pairs come
    back sorted by (Re eps, Im eps).  Ambiguity near a class boundary
    (localization fraction at the 0.5 threshold, or an imaginary part
    right at the reality tolerance) is flagged on the pair, never
    silently dropped.
    """
    _check_window(window)
    lattice = spec.lattice
    interfaces = spec.profile.interfaces(lattice)
    dmin = _interface_distance(lattice, interfaces)
    near = dmin <= window

    evals = np.asarray(evals)
    eps = quasienergy(evals)
    abs_lam = np.abs(evals)
    # a real matrix pairs every complex eigenvalue with its conjugate
    conj_gap = _conjugate_gaps(evals)

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
        im_rel = abs(lam.imag) / abs_lam[i]
        real_eig = im_rel <= TOL_REAL
        if TOL_REAL / 2 <= im_rel <= 2 * TOL_REAL:
            pair.ambiguous = True

        if localized:
            if real_eig or min(dist0, distpi) <= TOL_EDGE:
                pair.classification = ("edge_zero" if dist0 <= distpi
                                       else "edge_pi")
            elif (min(dist0, distpi) <= EDGE_BAND
                  and conj_gap[i] <= PAIR_TOL * max(abs_lam[i], 1.0)):
                pair.classification = "defective_pair_member"
            else:
                pair.classification = "impurity"
            idx = int(np.argmax(prob))
            pair.loc_center = float(lattice.positions()[idx])
            fit = _fit_localization(prob, lattice, idx)
            if fit is not None:
                pair.loc_length, pair.loc_reliable = fit
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
    return SpectrumResult(spec=spec, pairs=pairs, counts=counts, eps_m=eps_m)


def _completeness_radius(gamma: float) -> float:
    """Distance from +1 (or -1) that holds every edge-like eigenvalue.

    On the ring each of G and G^-1 enters a step once with norm
    e^|gamma| and every coin and shift has norm 1, so the spectrum lies
    in the annulus e^-2|gamma| <= |lambda| <= e^2|gamma|.  An edge-like
    state (real, or a defective pair member) has its argument within
    ``EDGE_BAND`` of 0 or pi, and the farthest such point from +-1 is a
    corner r e^(i EDGE_BAND) of that sector with r at either radius.
    """
    return max(abs(r * complex(math.cos(EDGE_BAND), math.sin(EDGE_BAND)) - 1)
               for r in (math.exp(-2 * abs(gamma)), math.exp(2 * abs(gamma))))


def _mu_radius(gamma: float) -> float:
    """Distance from +1 (or -1) that holds mu = (lambda + 1/lambda)/2 of
    every edge-like eigenvalue.

    mu - 1 = (lambda - 1)^2 / (2 lambda), so lambda = r e^(i phi) gives
    |mu - 1| = cosh(ln r) - cos(phi), which grows with |ln r| and |phi|.
    Over the sector of :func:`_completeness_radius` (|phi| <=
    ``EDGE_BAND``, e^-2|gamma| <= r <= e^2|gamma|) it peaks at the four
    corners, all at cosh(2 gamma) - cos(EDGE_BAND); mu(-lambda) =
    -mu(lambda) gives the same about -1.
    """
    return math.cosh(2 * gamma) - math.cos(EDGE_BAND)


def _band_order(A) -> np.ndarray:
    """Reverse Cuthill-McKee order of the pattern of A + A^T.

    Every factor of a walk step moves a site by at most one, so in this
    order each window matrix is banded, with a bandwidth set by the
    protocol and not by the lattice.
    """
    pattern = (abs(A) + abs(A).T).tocsr()
    return scipy.sparse.csgraph.reverse_cuthill_mckee(pattern,
                                                      symmetric_mode=True)


class _BandedLU(scipy.sparse.linalg.LinearOperator):
    """x -> (B - sigma I)^-1 x from the LAPACK banded LU of B - sigma I;
    ``kl`` and ``ku`` count the sub- and superdiagonals of the band."""

    def __init__(self, lu: np.ndarray, ipiv: np.ndarray, kl: int, ku: int):
        super().__init__(np.float64, (lu.shape[1], lu.shape[1]))
        self.lu, self.ipiv, self.kl, self.ku = lu, ipiv, kl, ku

    def _matvec(self, x):
        return scipy.linalg.lapack.dgbtrs(self.lu, self.kl, self.ku, x,
                                          self.ipiv)[0]


def _shift_invert(B, sigma: float) -> _BandedLU | None:
    """(B - sigma I)^-1 for a banded sparse B, or None if the factor is
    exactly singular (``dgbtrf`` finds a zero pivot)."""
    C = B.tocoo()
    offset = C.row - C.col
    kl, ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
    # LAPACK band storage, with kl more rows on top for the pivoting fill
    ab = np.zeros((2 * kl + ku + 1, B.shape[0]))
    ab[kl + ku + offset, C.col] = C.data
    ab[kl + ku] -= sigma
    lu, ipiv, info = scipy.linalg.lapack.dgbtrf(ab, kl, ku, overwrite_ab=True)
    return None if info > 0 else _BandedLU(lu, ipiv, kl, ku)


def _side(side, radius: float):
    """Eigenpairs of the banded B nearest sigma, for ``side`` = (B, v0,
    sigma), or None.

    Shift-invert ARPACK on a banded LU of B - sigma I
    (:func:`_shift_invert`), from the start vector v0 and seeded
    restart draws.  It starts at ``WINDOW_K0`` eigenvalues and doubles
    the count until the farthest one lies beyond ``radius``, so nothing
    inside it is missed.  None means the side cannot be trusted:
    B - sigma I exactly singular, k beyond a quarter of the dimension,
    or no convergence.
    """
    B, v0, sigma = side
    inverse = _shift_invert(B, sigma)
    if inverse is None:
        return None
    k = WINDOW_K0
    while k <= B.shape[0] / 4:
        try:
            lam, vec = scipy.sparse.linalg.eigs(B, k, sigma=sigma,
                                                OPinv=inverse, v0=v0, rng=0)
        except RuntimeError:
            # ArpackNoConvergence and ArpackError are RuntimeErrors
            return None
        if np.abs(lam - sigma).max() > radius:
            return lam, vec
        k *= 2
    return None


def _window(matrices, radius: float):
    """Eigenpairs of each sparse matrix nearest +1 and -1, or None.

    Each matrix is put in its :func:`_band_order`, with a start vector
    drawn from a seeded generator, which makes its window a function of
    the matrix alone.  The sides, sigma = +1 and -1 of every matrix,
    are independent :func:`_side` solves, shared out in one
    :func:`ptwalk._pool.ordered_map` call; each depends on its matrix
    alone, so the window is the same however the sides are shared out.
    None means some side cannot be trusted.
    """
    orders, sides = [], []
    for A in matrices:
        order = _band_order(A)
        B = A[order][:, order]
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, A.shape[0])[order]
        orders.append(order)
        sides += [(B, v0, 1.0), (B, v0, -1.0)]
    found = []
    # in process, the sides after one that cannot be trusted never run
    for side in ordered_map(functools.partial(_side, radius=radius), sides):
        if side is None:
            return None
        found.append(side)
    # rows back from the band order to site order
    return [(np.concatenate([plus[0], minus[0]]),
             np.concatenate([plus[1], minus[1]], axis=1)[np.argsort(order)])
            for order, plus, minus in zip(orders, found[::2], found[1::2])]


def _clusters(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Single-linkage groups: indices chained by distances below ``tol``.

    Two values closer than ``tol`` are closer in real part too, so the
    scan over offsets in real-part order stops at the first offset with
    no real-part gap below ``tol``.  The groups are the connected
    components of the near pairs it finds, in order of their first member.
    """
    order = np.argsort(values.real, kind="stable")
    z = values[order]
    pairs = [np.empty((2, 0), dtype=int)]
    for k in range(1, z.size):
        near = z.real[k:] - z.real[:-k] < tol
        if not near.any():
            break
        i = np.flatnonzero(near & (np.abs(z[k:] - z[:-k]) < tol))
        pairs.append([i, i + k])
    i, j = np.hstack(pairs)
    graph = scipy.sparse.coo_array((np.ones(i.size), (i, j)), (z.size, z.size))
    count, labels = scipy.sparse.csgraph.connected_components(graph)
    return [order[labels == r] for r in range(count)]


def _solve_clusters(R: scipy.sparse.csr_matrix, bases: list[np.ndarray],
                    values: np.ndarray):
    """Eigenpairs of R from eigenvectors of M = (R + R^-1)/2.

    M is block diagonal; ``bases`` holds eigenvectors of each diagonal
    block (block after block, rows and columns alike) and ``values``
    their eigenvalues.  M commutes with R, so a cluster of equal values
    spans a space that R maps into itself: its orthonormalized basis Q
    turns R into the small block Q^H R Q, whose eigenpairs are
    eigenpairs of R.  That needs each cluster to hold the whole
    eigenspace of its values, which the callers' residual gates check.
    Clusters are single-linkage groups within ``CLUSTER_TOL`` of the
    largest |value|, so no near-degenerate eigenvector is split from its
    partners.  Returns the eigenvalues, the unit eigenvectors and one
    column slice per cluster.
    """
    n = R.shape[0]
    rows = np.cumsum([0] + [b.shape[0] for b in bases])
    cols = np.cumsum([0] + [b.shape[1] for b in bases])
    evals = np.empty(cols[-1], dtype=complex)
    vectors = np.empty((n, cols[-1]), dtype=complex)
    spans = []
    col = 0
    for group in _clusters(values, CLUSTER_TOL * np.abs(values).max()):
        q = np.zeros((n, group.size), dtype=np.result_type(*bases))
        filled = 0
        for basis, top, bottom, lo, hi in zip(bases, rows[:-1], rows[1:],
                                             cols[:-1], cols[1:]):
            picked = group[(group >= lo) & (group < hi)] - lo
            q[top:bottom, filled:filled + picked.size] = np.linalg.qr(
                basis[:, picked])[0]
            filled += picked.size
        lam, z = scipy.linalg.eig(q.conj().T @ (R @ q))
        span = slice(col, col + group.size)
        evals[span] = lam
        vectors[:, span] = q @ z
        spans.append(span)
        col += group.size
    vectors /= np.linalg.norm(vectors, axis=0)
    return evals, vectors, spans


def _rotate(A: scipy.sparse.csr_matrix, vectors: np.ndarray) -> None:
    """vectors <- A @ vectors in place, a column block at a time."""
    for start in range(0, vectors.shape[1], _BLOCK):
        block = slice(start, start + _BLOCK)
        vectors[:, block] = A @ vectors[:, block]


def _max_residual(U: scipy.sparse.csr_matrix, evals: np.ndarray,
                  vectors: np.ndarray) -> float:
    """Largest |U v - lambda v|, a column block at a time."""
    worst = 0.0
    for start in range(0, evals.size, _BLOCK):
        b = slice(start, start + _BLOCK)
        r = U @ vectors[:, b] - vectors[:, b] * evals[b]
        worst = max(worst, float(np.linalg.norm(r, axis=0).max()))
    return worst


def _t_order(dim: int) -> np.ndarray:
    """Row order of T = sigma1 on every site: T v is v[_t_order(dim)]."""
    return np.arange(dim) ^ 1


def _pt_conditions(vectors: np.ndarray, spans: list[slice]) -> np.ndarray:
    """Condition numbers of unit eigenvectors of U with T U^T T = U.

    T U is symmetric (T = sigma1 on every site), so (T v)^T is a left
    eigenvector for v.  Within a cluster the rows of G^-1 (T V)^T, with
    G = V^T T V, are the dual basis of the columns V, and each row's
    norm is that pair's condition number.  A singular G makes them
    infinite.
    """
    swap = _t_order(vectors.shape[0])
    conditions = np.empty(vectors.shape[1])
    for span in spans:
        v = vectors[:, span]
        tv = v[swap]
        try:
            dual = np.linalg.solve(v.T @ tv, tv.T)
        except np.linalg.LinAlgError:
            conditions[span] = np.inf
        else:
            conditions[span] = np.linalg.norm(dual, axis=1)
    return conditions


def _structure(spec: WalkSpec) -> str:
    """Which relations the walk's recipe gives it, read from its parameters.

    ``orthogonal``: gamma = 0, so every factor is a rotation or a
    permutation and U^T U = I.  Otherwise the coin angles decide.
    ``pt-fold``: they mirror onto themselves and the two theta2 coins
    agree (delta = 0, no disorder), so in the symmetric frame
    P U P = U^-1 and T U^T T = U, with P = parity x sigma3 and
    T = sigma1 on every site.  ``skew``: they mirror but the theta2
    coins differ, which leaves only U K U^T = K with
    K = parity x i sigma2, so 1/lambda is an eigenvalue with lambda.
    ``general``: they do not mirror, so no relation with parity holds
    (T U^T T = U still does when the theta2 coins agree, but no path
    uses it).
    """
    if spec.gamma == 0:
        return "orthogonal"
    if not mirror_symmetric(spec):
        return "general"
    _, first, second = spec._lattice_angles
    return "pt-fold" if np.array_equal(first, second) else "skew"


def _orthogonal(op: WalkOperator, compute_condition: bool):
    """Eigenpairs of a gamma = 0 walk: M = (U + U^T)/2 is symmetric, one
    ``eigh`` gives its eigenspaces, and every condition number is 1
    since U is normal."""
    U = op.sparse
    c, q = scipy.linalg.eigh(((U + U.T) * 0.5).toarray(), driver="evd",
                             overwrite_a=True)
    evals, vectors, _ = _solve_clusters(U, [q], c)
    return evals, vectors, np.ones(op.dim) if compute_condition else None


def _parity_frame(op: WalkOperator):
    """E = [even, T even], which spans the P = +1 sector and its
    T-image, and R = E^T U E in the symmetric frame; R[:n, :n] is the
    +1 block of M for n = ``num_sites``."""
    even = parity_even(op.spec.lattice)
    E = scipy.sparse.hstack([even, even[_t_order(op.dim)]]).tocsr()
    return E, (E.T @ symmetric_frame(op).sparse @ E).tocsr()


def _fold(op: WalkOperator, window: bool, compute_condition: bool):
    """Eigenpairs of a ``pt-fold`` walk from the +1 parity block of M, or
    None if its window cannot be trusted.

    In the symmetric frame M = (U + P U P)/2 commutes with P and splits
    into two parity sectors of ``num_sites`` dimensions each.
    T = sigma1 on every site maps the P = +1 sector onto the -1 sector,
    and T U^T T = U makes the -1 block the transpose of the +1 block.
    So one ``eig`` of the +1 block, with its left eigenvectors, solves
    both; ``window=True`` takes the mu-window of the block and of its
    transpose instead.  Each value of mu then has one eigenvector per
    sector, and :func:`_solve_clusters` recovers lambda and 1/lambda
    from the two.  Condition numbers are taken in the symmetric frame,
    where T U^T T = U holds, before a stepwise walk's eigenvectors are
    rotated back by C(theta1/2)^T.
    """
    n = op.spec.lattice.num_sites
    E, R = _parity_frame(op)
    block = R[:n, :n]
    if window:
        found = _window([block, block.T.tocsr()], _mu_radius(op.spec.gamma))
        if found is None:
            return None
        values = np.concatenate([mu for mu, _ in found])
        bases = [basis for _, basis in found]
    else:
        mu, left, right = scipy.linalg.eig(block.toarray(), left=True,
                                           overwrite_a=True)
        values, bases = np.concatenate([mu, mu]), [right, left.conj()]
    evals, vectors, spans = _solve_clusters(R, bases, values)
    _rotate(E, vectors)
    conditions = (_pt_conditions(vectors, spans) if compute_condition
                  else None)
    if op.frame == "stepwise":
        _rotate(half_coin(op.spec).T, vectors)
    return evals, vectors, conditions


def _mu_window(op: WalkOperator):
    """Window eigenpairs from the mu-window of M = (U + U^-1)/2 itself,
    for walks where no relation doubles mu; None if it cannot be
    trusted."""
    U = op.sparse
    found = _window([((U + op.inverse) * 0.5).tocsr()],
                    _mu_radius(op.spec.gamma))
    if found is None:
        return None
    (values, basis), = found
    evals, vectors, _ = _solve_clusters(U, [basis], values)
    return evals, vectors, None


def _lambda_window(op: WalkOperator):
    """Window eigenpairs from the lambda-window of U, or None."""
    found = _window([op.sparse], _completeness_radius(op.spec.gamma))
    if found is None:
        return None
    (evals, vectors), = found
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    return evals, vectors, None


def _gated(op: WalkOperator, found):
    """``found`` if every pair meets ``RESIDUAL_TOL`` on U, else None."""
    if found is None or _max_residual(op.sparse, *found[:2]) > RESIDUAL_TOL:
        return None
    return found


def _dense(op: WalkOperator, compute_condition: bool):
    """Eigenpairs of the dense ``matrix``; condition numbers come from
    its left eigenvectors, 1/|w^H v| for unit w and v."""
    found = scipy.linalg.eig(op.matrix, left=compute_condition)
    evals, vectors = found[0], found[-1]
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    conditions = None
    if compute_condition:
        left = found[1]
        with np.errstate(divide="ignore"):
            conditions = (np.linalg.norm(left, axis=0)
                          / np.abs(np.einsum("ij,ij->j", left.conj(), vectors)))
    return evals, vectors, conditions


def eigendecompose(op: WalkOperator, compute_condition: bool = True, *,
                   interface_only: bool = False,
                   window: int = DEFAULT_WINDOW) -> SpectrumResult:
    """Eigendecomposition plus classification; ``solver`` on the result
    names the path that answered.

    The walk's :func:`_structure` picks the path:

    ============  ================  ====================
    structure     whole spectrum    ``interface_only``
    ============  ================  ====================
    orthogonal    ``orthogonal``    ``interface``
    pt-fold       ``pt-fold``       ``interface-fold``
    skew          ``dense``         ``interface``
    general       ``dense``         ``interface-mu``
    ============  ================  ====================

    ``orthogonal`` is one ``eigh`` of (U + U^T)/2, ``pt-fold`` one
    ``eig`` of a parity block (:func:`_fold`) and ``dense`` a dense
    ``scipy.linalg.eig``.  Eigenvalue condition numbers are 1 over the
    cosine of the angle between matching left and right eigenvectors:
    exactly 1 on ``orthogonal`` (U is normal), from the left
    eigenvectors T v on ``pt-fold`` and from the dense left
    eigenvectors otherwise.  Values beyond ``COND_THRESHOLD`` flag the
    pair as near defective.

    ``interface_only=True``, which needs ``compute_condition=False``,
    computes only the window around +1 and -1 that holds every
    ``edge_zero``, ``edge_pi`` and ``defective_pair_member`` state,
    with shift-invert ARPACK: in mu out to :func:`_mu_radius` on the
    parity block and its transpose (``interface-fold``) or on
    M = (U + U^-1)/2 (``interface-mu``), and in lambda on U out to
    :func:`_completeness_radius` where every mu is double
    (``interface``).  ``counts["bulk"]`` and ``counts["impurity"]``
    then cover the window alone, and ``eps_m`` is None.

    A structured or mu result answers only if every pair has
    |U v - lambda v| <= ``RESIDUAL_TOL``; otherwise ``dense``
    respectively ``interface`` does, and where the lambda-window cannot
    be trusted the dense path answers as ``dense-fallback``.
    ``window`` is the localization window of :func:`classify_states`.
    """
    if interface_only and compute_condition:
        raise ValueError("condition numbers need the full eigenvector "
                         "matrix; pass compute_condition=False")
    _check_window(window)
    structure = _structure(op.spec)
    found = None
    if interface_only:
        if structure == "pt-fold":
            solver = "interface-fold"
            found = _gated(op, _fold(op, True, False))
        elif structure == "general":
            solver = "interface-mu"
            found = _gated(op, _mu_window(op))
        if found is None:
            solver = "interface"
            found = _lambda_window(op)
    elif structure == "orthogonal":
        solver = "orthogonal"
        found = _gated(op, _orthogonal(op, compute_condition))
    elif structure == "pt-fold":
        solver = "pt-fold"
        found = _gated(op, _fold(op, False, compute_condition))
    if found is None:
        solver = "dense-fallback" if interface_only else "dense"
        found = _dense(op, compute_condition)
    evals, vectors, conditions = found
    result = classify_states(evals, vectors, op.spec,
                             eig_conditions=conditions, window=window)
    result.solver = solver
    if solver.startswith("interface"):
        result.eps_m = None
    return result


@dataclass(frozen=True, eq=False)
class EdgeCountMap:
    theta1_values: np.ndarray
    theta2_values: np.ndarray
    gamma: float
    n_zero: np.ndarray
    n_pi: np.ndarray
    counted: np.ndarray  # bool; False where the outer bulk gap is closed
    solvers: dict[str, int]  # counted cells per eigendecompose solver label


def edge_count_map(inner: tuple[float, float], theta1_values, theta2_values,
                   gamma: float, half_width: int = 50,
                   num_sites: int = 801,
                   threads: int | None = None) -> EdgeCountMap:
    """Count protected interface modes against a grid of outer phases.

    The inner phase must be gapped (GapClosedError otherwise).  Cells
    whose outer bulk gap is closed are skipped rather than counted,
    since an interface into a gapless bulk pins nothing.  Every cell is
    a ``three_step`` walk, the kind whose closed-form bulk gap does the
    gating.  The gapped cells are shared out among this process and
    forked workers, at most ``threads`` of them in all (no cap if None;
    1 solves them one after another in this process, each with the
    sides of its window shared out instead); the map is the same for
    any worker count, and a cell that raises raises here as it would
    in a serial loop over the cells.
    """
    if not bulk_gap_status(inner[0], inner[1], gamma).gap_open:
        raise GapClosedError("inner bulk phase is gapless")
    lattice = Lattice(num_sites=num_sites)
    # WalkSpec refuses a half_width that leaves no interface; check it
    # here too, since a grid of gapless cells builds no WalkSpec at all
    WalkSpec(kind="three_step", lattice=lattice, gamma=gamma,
             profile=CoinProfile.inner_outer(inner, inner, half_width))
    t1s = np.asarray(theta1_values, dtype=float)
    t2s = np.asarray(theta2_values, dtype=float)
    n_zero = np.zeros((t1s.size, t2s.size), dtype=int)
    n_pi = np.zeros_like(n_zero)
    counted = np.zeros(n_zero.shape, dtype=bool)
    solvers: dict[str, int] = {}

    def count(cell):
        profile = CoinProfile.inner_outer(inner, (t1s[cell[0]], t2s[cell[1]]),
                                          half_width)
        spec = WalkSpec(kind="three_step", lattice=lattice, profile=profile,
                        gamma=gamma)
        result = eigendecompose(build_walk_operator(spec),
                                compute_condition=False, interface_only=True)
        counts = result.counts
        return counts["edge_zero"], counts["edge_pi"], result.solver

    cells = [(i, j) for i in range(t1s.size) for j in range(t2s.size)
             if bulk_gap_status(t1s[i], t2s[j], gamma).gap_open]
    for cell, (zero, pi, solver) in zip(cells,
                                        ordered_map(count, cells, threads)):
        n_zero[cell] = zero
        n_pi[cell] = pi
        counted[cell] = True
        solvers[solver] = solvers.get(solver, 0) + 1
    return EdgeCountMap(theta1_values=t1s, theta2_values=t2s, gamma=gamma,
                        n_zero=n_zero, n_pi=n_pi, counted=counted,
                        solvers=solvers)


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
