"""Response of interface modes to symmetry breaking and disorder.

The probe is a shift ``delta`` of the first theta2 coin.  It kills the
time-reversal-like protections while keeping the walk matrix real, so
interface eigenvalues must either stay on the real axis or leave it in
conjugate pairs; the transition happens at an exceptional point where
two of them coalesce.  This module tracks interface eigenvalues along
a delta grid, locates the exceptional point by a root search on the
signed squared gap of the colliding pair, and runs disordered
ensembles where every coin angle gets an independent uniform jitter.

A sweep point is labelled by a regime:

* ``all_real``: every tracked eigenvalue within ``TOL_IM`` of the axis.
* ``at_exceptional``: still real, but two tracked eigenvalues have
  collided and their eigenvectors have coalesced (overlap above 0.9),
  i.e. the grid point sits on the transition itself.  Plain
  degeneracy with orthogonal eigenvectors, as in the unperturbed
  unitary walk, does not qualify.
* ``conjugate_pairs``: at least one tracked eigenvalue is off the axis.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph

from ._pool import ordered_map
from .errors import BracketError, TrackingError
from .ioutil import write_csv
from .operators import WalkSpec, build_walk_operator
from .spectrum import eigendecompose

TOL_IM = 1e-8          # absolute, |Im lambda| regarded as off the real axis
JUMP_FACTOR = 10.0     # tracked step may exceed its secant estimate this much
MAX_INSERTED = 64      # bisection points a sweep may add
MIN_STEP = 1e-6        # narrowest delta step bisection may create
TOL_DELTA = 5e-4       # bracket width at which the EP search stops
COLLISION_TOL = 1e-6   # real-axis eigenvalue collision distance
OVERLAP_COALESCED = 0.9

EDGE_LIKE = ("edge_zero", "edge_pi", "defective_pair_member")


def _edge_eigensystem(spec: WalkSpec, delta: float):
    """Eigenvalues and vectors of the interface-localized states at delta."""
    kind = spec.kind
    if not kind.startswith("three_step_perturbed"):
        kind = "three_step_perturbed"
    profile = dataclasses.replace(spec.profile, delta=delta)
    probed = dataclasses.replace(spec, kind=kind, profile=profile)
    result = eigendecompose(build_walk_operator(probed),
                            compute_condition=False, interface_only=True)
    selected = result.select(*EDGE_LIKE)
    lams = np.array([p.lam for p in selected], dtype=complex)
    if selected:
        vecs = np.column_stack([p.vector for p in selected])
    else:
        vecs = np.zeros((probed.lattice.dim, 0), dtype=complex)
    return lams, vecs


def _max_im(lams: np.ndarray) -> float:
    """Largest |Im lambda| of the tracked states, 0 for none."""
    return float(np.max(np.abs(lams.imag), initial=0.0))


def _regime(lams: np.ndarray, vecs: np.ndarray) -> str:
    if _max_im(lams) > TOL_IM:
        return "conjugate_pairs"
    for i in range(lams.size):
        for j in range(i + 1, lams.size):
            if abs(lams[i] - lams[j]) < COLLISION_TOL * max(1.0, abs(lams[i])):
                overlap = abs(np.vdot(vecs[:, i], vecs[:, j]))
                if overlap > OVERLAP_COALESCED:
                    return "at_exceptional"
    return "all_real"


def _matching(cost: np.ndarray) -> np.ndarray:
    """Column matched to each row of the square ``cost``, least in total.
    csgraph reads a zero as no edge, so costs are floored at ``tiny``."""
    graph = scipy.sparse.csr_array(np.maximum(cost, np.finfo(float).tiny))
    return scipy.sparse.csgraph.min_weight_full_bipartite_matching(graph)[1]


@dataclass(frozen=True, eq=False)
class SweepPoint:
    delta: float
    lams: np.ndarray  # aligned to branch ids
    regime: str
    inserted: bool  # added by refinement rather than requested


@dataclass(frozen=True, eq=False)
class DeltaSweepResult:
    spec: WalkSpec
    points: list[SweepPoint]
    n_branches: int
    ep_bracket: tuple[float, float] | None


def delta_sweep(spec: WalkSpec, deltas) -> DeltaSweepResult:
    """Track interface eigenvalues along a grid of delta values.

    Branches are continued by minimum-cost assignment between
    consecutive grid points.  A branch moving more than
    ``JUMP_FACTOR`` times its secant estimate, while the regime stays
    the same, signals a possible identity mixup, and the step is
    bisected (the regime-change step across the exceptional point is
    exempt: eigenvalue motion has a square-root singularity there, so
    a large step is expected, and the conjugate pairing keeps the
    assignment honest).  If bisection cannot resolve a jump above
    ``MIN_STEP``, or needs more than ``MAX_INSERTED`` points, the sweep
    raises TrackingError rather than return a possibly scrambled branch
    history.

    Every requested delta is solved before tracking starts, the solves
    shared out among this process and forked workers (see
    :func:`ptwalk._pool.ordered_map`); matching, the jump checks and
    bisection run here, and so do the solves of the points bisection
    inserts, each with the sides of its window shared out instead.  The
    sweep is the same for any worker count, and a solve that raises
    raises where the tracking reaches its delta.
    """
    grid = np.unique(np.asarray(deltas, dtype=float))
    if grid.size < 2:
        raise ValueError("need at least two delta values")
    requested = set(float(d) for d in grid)
    grid_solves = ordered_map(functools.partial(_edge_eigensystem, spec), grid)
    solved = {}

    def solve(delta):
        # tracking reaches each requested delta first in grid order
        if delta not in requested:
            return _edge_eigensystem(spec, delta)
        if delta not in solved:
            solved[delta] = next(grid_solves)
        return solved[delta]

    lams0, vecs0 = solve(grid[0])
    if lams0.size == 0:
        raise TrackingError("no interface-localized states at the first delta")
    order = np.lexsort((lams0.imag, lams0.real))
    points = [SweepPoint(delta=float(grid[0]), lams=lams0[order],
                         regime=_regime(lams0, vecs0), inserted=False)]
    n_branches = lams0.size

    prev = points[0].lams
    prev_delta = grid[0]
    prev_step: np.ndarray | None = None  # per-branch |move| of last step
    prev_width = None
    inserted_budget = MAX_INSERTED

    pending = list(grid[1:][::-1])  # stack, next target on top
    while pending:
        target = pending[-1]
        lams_new, vecs_new = solve(target)
        width = target - prev_delta
        failure = None
        if lams_new.size != n_branches:
            failure = (f"tracked state count changed from {n_branches} to "
                       f"{lams_new.size} near delta={target:.6g}")
        else:
            aligned = lams_new[_matching(np.abs(prev[:, None] - lams_new))]
            moves = np.abs(aligned - prev)
            regime = _regime(lams_new, vecs_new)
            if prev_step is not None and regime == points[-1].regime:
                est = prev_step * (width / prev_width) + 1e-12
                if np.any(moves > np.maximum(JUMP_FACTOR * est, 1e-4)):
                    failure = ("unresolvable branch crossing near "
                               f"delta={target:.6g}")
        if failure is not None:
            if inserted_budget > 0 and width > MIN_STEP:
                pending.append((prev_delta + target) / 2.0)
                inserted_budget -= 1
                continue
            raise TrackingError(failure)
        pending.pop()
        points.append(SweepPoint(delta=float(target), lams=aligned,
                                 regime=regime,
                                 inserted=float(target) not in requested))
        prev_step = moves
        prev_width = width
        prev = aligned
        prev_delta = target

    bracket = None
    for a, b in zip(points, points[1:]):
        if a.regime == "all_real" and b.regime != "all_real":
            bracket = (a.delta, b.delta)
            break
    return DeltaSweepResult(spec=spec, points=points, n_branches=n_branches,
                            ep_bracket=bracket)


@dataclass(frozen=True)
class ExceptionalPoint:
    delta: float
    lower: float
    upper: float
    coalescence_overlap: float
    n_solves: int


def _signed_gap(lams: np.ndarray) -> float | None:
    """Signed squared gap f of the tracked eigenvalues, None for fewer
    than two: -4 max|Im lambda|^2 once a pair is complex, else the least
    squared distance between the real parts of two of them.  Near an
    exceptional point the colliding pair splits as sqrt(delta_EP -
    delta), so f is close to linear through delta_EP; its sign is the
    bracket test's."""
    if lams.size < 2:
        return None
    max_im = _max_im(lams)
    if max_im > TOL_IM:
        return -4.0 * max_im ** 2
    return float(np.min(np.diff(np.sort(lams.real))) ** 2)


def _secant(lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """Root of the line through (lo, f_lo) and (hi, f_hi), f_lo >= 0 > f_hi."""
    return lo + f_lo * (hi - lo) / (f_lo - f_hi)


def _next_probe(last, lo, f_lo, hi, f_hi) -> float:
    """Where the search solves next, strictly inside (lo, hi).

    The estimate of the root of f is inverse quadratic interpolation
    through the ``last`` three probes (delta, f) when their f are known
    and distinct, else the secant of the bracket ends.  An estimate
    within ``TOL_DELTA`` of an end moves to just under ``TOL_DELTA``
    from it (or to the midpoint, if that is nearer the estimate), so
    the next probe can close the bracket and no end creeps.  With no
    estimate, or one outside the bracket, the probe is the midpoint.
    """
    mid = (lo + hi) / 2.0
    fs = [f for _, f in last]
    if len(last) == 3 and None not in fs and len(set(fs)) == 3:
        (da, fa), (db, fb), (dc, fc) = last
        estimate = (da * fb * fc / ((fa - fb) * (fa - fc))
                    + db * fa * fc / ((fb - fa) * (fb - fc))
                    + dc * fa * fb / ((fc - fa) * (fc - fb)))
    elif f_lo is not None and f_hi is not None:
        estimate = _secant(lo, f_lo, hi, f_hi)
    else:
        return mid
    if not lo <= estimate <= hi:
        return mid
    step = 0.95 * TOL_DELTA
    x = estimate
    if estimate - lo < TOL_DELTA and estimate - lo <= hi - estimate:
        x = lo + step
    elif hi - estimate < TOL_DELTA:
        x = hi - step
    if abs(mid - estimate) < abs(x - estimate):
        x = mid
    return x if lo < x < hi else mid


def find_exceptional_point(spec: WalkSpec, delta_lo: float,
                           delta_hi: float) -> ExceptionalPoint:
    """Find the delta where interface eigenvalues leave the axis.

    The bracket must straddle the transition: all tracked eigenvalues
    real at ``delta_lo`` and at least one complex pair at ``delta_hi``
    (BracketError otherwise; with no gain the interface modes pair up
    at any nonzero delta, so no valid lower end exists and the search
    is refused the same way).  A single transition inside the bracket
    is assumed; the reported ``coalescence_overlap`` is the overlap of
    the newly paired eigenvectors at the upper end, which approaches 1
    at the exceptional point and certifies a genuine coalescence
    rather than an ordinary crossing.

    The search runs on the signed squared gap f (see
    :func:`_signed_gap`), which is close to linear through the
    exceptional point: each probe goes where interpolation of f puts
    its root (see :func:`_next_probe`), and replaces the bracket end
    whose side of the transition it shares, so the bracket keeps a
    sign change.  The search stops once the bracket is narrower than
    ``TOL_DELTA``, or once its midpoint can no longer be told apart
    from an end in float64 (far from zero, adjacent floats lie farther
    apart than ``TOL_DELTA``).  ``delta`` is the secant root of f across
    the final bracket, or its midpoint if an end has no f.

    The two bracket ends are solved side by side, by this process and
    a forked worker (see :func:`ptwalk._pool.ordered_map`); the
    search runs here, with the sides of each probe's window shared
    out the same way.  The answer, ``n_solves`` included, is the same
    for any worker count, and the lower end is checked, and its
    solve's error raised, before the upper end's.
    """
    if not delta_lo < delta_hi:
        raise ValueError("need delta_lo < delta_hi")
    n_solves = 0

    def probe(eigensystem):
        nonlocal n_solves
        n_solves += 1
        lams, vecs = eigensystem
        return _max_im(lams), _signed_gap(lams), lams, vecs

    ends = ordered_map(functools.partial(_edge_eigensystem, spec),
                       (delta_lo, delta_hi))
    max_im, f_lo, _, _ = probe(next(ends))
    if max_im > TOL_IM:
        raise BracketError(
            f"interface eigenvalues already complex at delta={delta_lo:.6g} "
            f"(max |Im lambda| = {max_im:.3e}); move the lower end down")
    max_im, f_hi, lams_hi, vecs_hi = probe(next(ends))
    if max_im <= TOL_IM:
        raise BracketError(
            f"interface eigenvalues still real at delta={delta_hi:.6g}; "
            "move the upper end up")

    lo, hi = delta_lo, delta_hi
    probes = [(lo, f_lo), (hi, f_hi)]
    mid = (lo + hi) / 2.0
    while hi - lo > TOL_DELTA and lo < mid < hi:
        x = _next_probe(probes[-3:], lo, f_lo, hi, f_hi)
        max_im, f, lams, vecs = probe(_edge_eigensystem(spec, x))
        probes.append((x, f))
        if max_im > TOL_IM:
            hi, f_hi, lams_hi, vecs_hi = x, f, lams, vecs
        else:
            lo, f_lo = x, f
        mid = (lo + hi) / 2.0

    # the newborn pair: largest |Im| eigenvalue and its conjugate partner
    i = int(np.argmax(np.abs(lams_hi.imag)))
    diffs = np.abs(lams_hi - np.conj(lams_hi[i]))
    diffs[i] = np.inf
    j = int(np.argmin(diffs))
    overlap = float(abs(np.vdot(vecs_hi[:, i], vecs_hi[:, j])))
    delta = (mid if f_lo is None or f_hi is None
             else _secant(lo, f_lo, hi, f_hi))
    return ExceptionalPoint(delta=delta, lower=lo, upper=hi,
                            coalescence_overlap=overlap, n_solves=n_solves)


@dataclass(frozen=True)
class DisorderRecord:
    seed: int
    theta_r: float
    max_im_lambda_edge: float
    regime: str


@dataclass(frozen=True, eq=False)
class DisorderEnsemble:
    spec: WalkSpec
    theta_r: float
    records: list[DisorderRecord]

    @property
    def fraction_all_real(self) -> float:
        hits = sum(1 for r in self.records if r.regime == "all_real")
        return hits / len(self.records)

    @property
    def majority_regime(self) -> str:
        return ("all_real" if self.fraction_all_real >= 0.5
                else "conjugate_pairs")


def disorder_ensemble(spec: WalkSpec, theta_r: float, n_seeds: int = 32,
                      seeds=None,
                      threads: int | None = None) -> DisorderEnsemble:
    """Interface eigenvalue reality across disorder realizations.

    Every realization is keyed by its seed alone, so ensembles are
    reproducible elementwise.  ``seeds`` defaults to
    ``range(n_seeds)`` and must not be empty.
    Realizations are shared out among this process and forked workers,
    at most ``threads`` of them in all (no cap if None; 1 solves them
    one after another in this process, each with the sides of its
    window shared out instead); the records are the same for any worker
    count, and a realization that raises raises here as it would in a
    serial loop over the seeds.  ``spec`` should carry the wanted
    ``delta``; its kind is switched to
    ``three_step_perturbed_disordered`` here.
    """
    if seeds is None:
        seeds = range(n_seeds)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("a disorder ensemble needs at least one seed")

    def realize(seed) -> DisorderRecord:
        profile = dataclasses.replace(spec.profile,
                                      disorder_amplitude=theta_r,
                                      disorder_seed=int(seed))
        probed = dataclasses.replace(
            spec, kind="three_step_perturbed_disordered", profile=profile)
        lams, vecs = _edge_eigensystem(probed, profile.delta)
        return DisorderRecord(seed=int(seed), theta_r=theta_r,
                              max_im_lambda_edge=_max_im(lams),
                              regime=_regime(lams, vecs))

    records = list(ordered_map(realize, seeds, threads))
    return DisorderEnsemble(spec=spec, theta_r=theta_r, records=records)


def write_delta_sweep_csv(sweep: DeltaSweepResult, path) -> None:
    def rows():
        for point in sweep.points:
            for branch_id, lam in enumerate(point.lams):
                yield [point.delta, lam.real, lam.imag, branch_id,
                       point.regime]

    write_csv(path, ["delta", "re_lambda", "im_lambda", "branch_id",
                     "regime"], rows())


def write_disorder_csv(ensemble: DisorderEnsemble, path) -> None:
    rows = ([r.seed, r.theta_r, r.max_im_lambda_edge, r.regime]
            for r in ensemble.records)
    write_csv(path, ["seed", "theta_r", "max_im_lambda_edge", "regime"], rows)
