"""The benchmark's workloads, their requests and the checks on them.

A workload is run as a sequence of passes.  ``BUILDERS[workload](seed,
index, ctx)`` returns the requests of pass ``index``: each is one public
``ptwalk`` call that returns one user-level answer (a grid cell, a
spectrum, a sweep, an EP search, an ensemble or an inference), plus a
check of that answer against the value the acceptance tests or an
independent oracle fix for it.  Checks and digests run outside the timed
call.

The parameter sets are those of the ``reproduce`` ids and the acceptance
checks (c01-c11); only their number per pass and, for the dynamics, the
trace length are scaled so that a pass fits a run.  The workload seed
picks the disorder realizations and nothing else.

Every call goes through the ``ptwalk`` package namespace at call time,
so the tracer's wrappers see it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle
import ptwalk

PI = math.pi
GAP_TOL = 1e-9  # the tol_gap default of winding_number and bulk_gap_status

INNER = (0.4 * PI, 0.1 * PI)
OUTER = {  # outer angles by shifted winding number (c04, fig4)
    0: (0.7 * PI, 0.05 * PI),
    1: (0.9 * PI, 0.2 * PI),
    2: (-0.2 * PI, 0.3 * PI),
    3: (-0.6 * PI, 0.2 * PI),
}
LEFT_LARGE_GAP = (0.75 * PI, 0.05 * PI)
LEFT_SMALL_GAP = (0.125 * PI, 0.1 * PI)
RIGHT_LARGE_GAP = {3: (-PI / 3, 0.0), 2: (-PI / 10, 2 * PI / 5),
                   1: (-PI / 15, 2 * PI / 3)}
RIGHT_SMALL_GAP = {3: (-PI / 5, -PI / 12), 2: (-PI / 10, 2 * PI / 5),
                   1: (-PI / 20, -PI / 7)}

FIG5_GRID = np.linspace(-PI, PI, 9)

# interface-track: the fig6 delta range at every 4th fig6 grid point
FIG6_DELTAS = np.linspace(0.0, 0.1, 21)[::4]
FIG5_ROW = 1  # theta1 = -3pi/4: 7 of its 9 cells are gapped (counts 4 and 6)
C07_CASES = ((1, 0.1), (2, 0.001), (2, 0.1))
C07_SEEDS_PER_ENSEMBLE = 2
# c06: the exceptional point and its tolerance
EP_DELTA, EP_TOL = 0.0696, 0.001
# return-spectroscopy: inference trace length.  The c09 family check
# holds only at T = 10^4; at a few thousand steps dnu = 2 comes back
# ambiguous and the detected families change with T, so these requests
# are checked against T-independent values only.
INFER_STEPS = 3500
INFER_COMPANION_SITES = 301
# Mean normalized return probability over t = 12..24 and its parity, by
# gap and dnu.  The window ends at t = 24, so neither depends on T.  The
# small-gap values are c10's; the large-gap ones are those of a 24-step
# evolve at this version (no acceptance check fixes them).
PERSISTENCE = {
    ("small", 3): (0.082193, "odd"),
    ("small", 2): (0.000652, "even"),
    ("small", 1): (0.083875, "odd"),
    ("large", 3): (0.172303, "odd"),
    ("large", 2): (0.135815, "odd"),
    ("large", 1): (0.051652, "odd"),
}
PERSISTENCE_TOL = 1e-4


@dataclass(frozen=True)
class Context:
    threads: int   # the ``threads`` argument of calls that take one
    out_dir: Path  # where full-spectrum writes its CSVs


@dataclass(frozen=True)
class Request:
    key: str                      # names the inputs; equal keys, equal digests
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when right, else the reason
    digest: Callable[[Any], str] | None = None


# ---------------------------------------------------------------------------
# digests

_DIGEST_SKIP = {"spec", "vector"}  # input echo, eigenvectors


def _canon(value, out: list[str]) -> None:
    if value is None or isinstance(value, (bool, int, str)):
        out.append(repr(value))
    elif isinstance(value, float):
        out.append(format(value, ".17g"))
    elif isinstance(value, complex):
        out.append(format(value.real, ".17g"))
        out.append(format(value.imag, ".17g"))
    elif isinstance(value, np.ndarray):
        for v in value.ravel().tolist():
            _canon(v, out)
    elif isinstance(value, np.generic):
        _canon(value.item(), out)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _canon(v, out)
    elif isinstance(value, dict):
        for k in sorted(value):
            out.append(repr(k))
            _canon(value[k], out)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.name not in _DIGEST_SKIP:
                out.append(f.name)
                _canon(getattr(value, f.name), out)
    elif isinstance(value, BaseException):
        out.append(type(value).__name__)
        out.append(str(value))
    else:
        raise TypeError(f"no digest for {type(value).__name__}")


def value_digest(value) -> str:
    """sha256 of the returned values written at 17 significant digits."""
    out: list[str] = []
    _canon(value, out)
    return hashlib.sha256("\n".join(out).encode()).hexdigest()


# ---------------------------------------------------------------------------
# walks

def interface_spec(outer, gamma=0.1, num_sites=801, delta=0.0, kind=None,
                   half_width=50, **profile_kw) -> ptwalk.WalkSpec:
    profile = ptwalk.CoinProfile.inner_outer(INNER, outer, half_width,
                                             delta=delta, **profile_kw)
    if kind is None:
        kind = "three_step_perturbed" if delta else "three_step"
    return ptwalk.WalkSpec(kind=kind, lattice=ptwalk.Lattice(num_sites),
                           profile=profile, gamma=gamma)


def split_spec(left, right, delta, num_sites=801) -> ptwalk.WalkSpec:
    profile = ptwalk.CoinProfile.left_right(left, right, delta=delta)
    return ptwalk.WalkSpec(kind="three_step_perturbed",
                           lattice=ptwalk.Lattice(num_sites),
                           profile=profile, gamma=0.0)


def _seeds(seed: int, index: int, label: str, n: int) -> list[int]:
    """Disorder seeds for one input of one pass, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}:{index}:{label}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return rng.integers(0, 2**31, size=n).tolist()


# ---------------------------------------------------------------------------
# interface-track

def _check_edge_map(emap) -> str | None:
    for i, t1 in enumerate(emap.theta1_values):
        for j, t2 in enumerate(emap.theta2_values):
            exact = oracle.max_abs_d0(t1, t2, emap.gamma)
            if not emap.counted[i, j]:
                if exact < 1.0 - GAP_TOL - 1e-12:
                    return f"cell ({i}, {j}) skipped, but its gap is open"
                continue
            if exact >= 1.0 - GAP_TOL:
                return f"cell ({i}, {j}) counted, but its gap is closed"
            want = 2 * oracle.nu_shifted(t1, t2, emap.gamma)
            got = (int(emap.n_zero[i, j]), int(emap.n_pi[i, j]))
            if got != (want, want):
                return f"cell ({i}, {j}) counts {got}, want {want} each"
    return None


def _check_ep(ep) -> str | None:
    if abs(ep.delta - EP_DELTA) > EP_TOL:
        return f"delta_ep {ep.delta!r} outside {EP_DELTA} +- {EP_TOL}"
    if ep.coalescence_overlap <= 0.9:
        return f"coalescence overlap {ep.coalescence_overlap!r} <= 0.9"
    return None


def _check_sweep(sweep) -> str | None:
    for point in sweep.points:
        if point.delta < EP_DELTA - EP_TOL and point.regime != "all_real":
            return f"{point.regime} below the EP, at delta {point.delta!r}"
        if point.delta > EP_DELTA + EP_TOL and point.regime != "conjugate_pairs":
            return f"{point.regime} above the EP, at delta {point.delta!r}"
    return None


def _check_ensemble(nu: int, theta_r: float, seeds: list[int]):
    def check(ens) -> str | None:
        if [(r.seed, r.theta_r) for r in ens.records] != \
                [(s, theta_r) for s in seeds]:
            return "records do not follow the requested seeds and theta_r"
        # c07 fixes the all-real fraction for these two cases; its
        # majority statement for (2, 0.1) is over 32 fixed seeds, so a
        # seeded (2, 0.1) ensemble is checked by its digest alone
        if (nu, theta_r) != (2, 0.1) and ens.fraction_all_real != 1.0:
            return f"all-real fraction {ens.fraction_all_real!r}, want 1.0"
        return None

    return check


def interface_track(seed: int, index: int, ctx: Context) -> list[Request]:
    c06 = interface_spec(OUTER[2], num_sites=301)
    fig6 = interface_spec(OUTER[2], num_sites=301, kind="three_step_perturbed")
    c04_t1, c04_t2 = OUTER[3]
    row = FIG5_GRID[FIG5_ROW]
    reqs = [
        Request(key="c06-ep-301",
                call=lambda: ptwalk.find_exceptional_point(c06, 0.05, 0.08),
                check=_check_ep),
        Request(key="c04-cell-801",
                call=lambda: ptwalk.edge_count_map(
                    INNER, [c04_t1], [c04_t2], gamma=0.1, half_width=50,
                    num_sites=801, threads=ctx.threads),
                check=_check_edge_map),
        Request(key="fig6-sweep-301",
                call=lambda: ptwalk.delta_sweep(fig6, FIG6_DELTAS),
                check=_check_sweep),
    ]
    for nu, theta_r in C07_CASES:
        spec = interface_spec(OUTER[nu], num_sites=301, delta=0.05)
        seeds = _seeds(seed, index, f"c07:{nu}:{theta_r}",
                       C07_SEEDS_PER_ENSEMBLE)
        reqs.append(Request(
            key=f"c07:{nu}:{theta_r}:{seeds}",
            call=lambda spec=spec, theta_r=theta_r, seeds=seeds:
                ptwalk.disorder_ensemble(spec, theta_r, seeds=seeds,
                                         threads=ctx.threads),
            check=_check_ensemble(nu, theta_r, seeds)))
    reqs.append(Request(
        key=f"fig5-row{FIG5_ROW}-301",
        call=lambda: ptwalk.edge_count_map(
            INNER, [row], FIG5_GRID, gamma=0.1, half_width=50, num_sites=301,
            threads=ctx.threads),
        check=_check_edge_map))
    return reqs


def self_test() -> str | None:
    """``threads`` must not change a digest (tiny sizes, run untimed)."""
    spec = interface_spec(OUTER[2], num_sites=101, delta=0.05)
    grid = FIG5_GRID[::4]
    calls = {
        "disorder_ensemble": lambda threads: ptwalk.disorder_ensemble(
            spec, 0.05, n_seeds=2, threads=threads),
        "edge_count_map": lambda threads: ptwalk.edge_count_map(
            INNER, grid, grid, gamma=0.1, half_width=20, num_sites=101,
            threads=threads),
    }
    for name, call in calls.items():
        if value_digest(call(1)) != value_digest(call(2)):
            return f"{name}: threads=1 and threads=2 digests differ"
    return None


# ---------------------------------------------------------------------------
# full-spectrum

def _conjugate_gap(evals: np.ndarray) -> float:
    """Largest distance from an eigenvalue to its nearest conjugate partner."""
    worst = 0.0
    conj = np.conj(evals)
    for start in range(0, evals.size, 256):
        block = evals[start:start + 256]
        d = np.abs(block[:, None] - conj[None, :])
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


def _spectrum(name: str, key: str, spec, ctx: Context, window: int,
              extra) -> Request:
    path = ctx.out_dir / f"{name}.csv"

    def call():
        result = ptwalk.eigendecompose(ptwalk.build_walk_operator(spec),
                                       compute_condition=True, window=window)
        ptwalk.spectrum.write_spectrum_csv(result, path)
        return result

    def check(result) -> str | None:
        dim = spec.lattice.dim
        if sum(result.counts.values()) != dim or len(result.pairs) != dim:
            return f"{len(result.pairs)} pairs for a {dim}-dim walk"
        with open(path, "rb") as fh:
            rows = fh.read().count(b"\n")
        if rows != dim + 1:
            return f"{rows} CSV lines, want {dim + 1}"
        evals = np.array([p.lam for p in result.pairs])
        gap = _conjugate_gap(evals)
        if gap > 1e-8:  # the walk matrix is real
            return f"eigenvalues not closed under conjugation ({gap:.3e})"
        conds = np.array([p.eig_condition for p in result.pairs])
        if not np.all(conds >= 1.0 - 1e-9):
            return "an eigenvalue condition number below 1"
        return extra(result)

    def digest(_result) -> str:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    return Request(key=key, call=call, check=check, digest=digest)


def _check_counts(want: int):
    def check(result):
        got = (result.counts["edge_zero"], result.counts["edge_pi"])
        if got != (want, want):
            return f"edge counts {got}, want {want} each"
        return None
    return check


def _check_eps_m(want_over_pi: float, tol: float):
    def check(result):
        got = result.eps_m / PI
        if abs(got - want_over_pi) > tol:
            return f"eps_m {got!r} pi, want {want_over_pi} +- {tol}"
        return None
    return check


def full_spectrum(seed: int, index: int, ctx: Context) -> list[Request]:
    (disorder_seed,) = _seeds(seed, index, "fig8", 1)
    fig8 = interface_spec(OUTER[2], gamma=0.1, delta=0.05,
                          kind="three_step_perturbed_disordered",
                          disorder_amplitude=0.1, disorder_seed=disorder_seed)
    return [
        # fig4d / c04: six protected modes at 0 and six at pi
        _spectrum("fig4d", "fig4d", interface_spec(OUTER[3]), ctx, 10,
                  _check_counts(6)),
        # fig7c_dnu2: perturbed at the c06 exceptional point
        _spectrum("fig7c_dnu2", "fig7c_dnu2",
                  interface_spec(OUTER[2], delta=0.0696), ctx, 10,
                  lambda result: None),
        # fig8c_gamma01 with a seeded disorder realization
        _spectrum("fig8c_gamma01", f"fig8c_gamma01-seed{disorder_seed}", fig8,
                  ctx, 10, lambda result: None),
        # fig13 / c08 small gap, dnu = 3: eps_m = 0.0237 pi
        _spectrum("c08-small-dnu3", "c08-small-dnu3",
                  split_spec(LEFT_SMALL_GAP, RIGHT_SMALL_GAP[3], 0.05,
                             num_sites=601),
                  ctx, 50, _check_eps_m(0.0237, 0.0005)),
    ]


# ---------------------------------------------------------------------------
# return-spectroscopy

def _check_inference(gap: str, nu: int):
    want, parity = PERSISTENCE[gap, nu]

    def check(report) -> str | None:
        if abs(report.persistence - want) > PERSISTENCE_TOL:
            return (f"persistence {report.persistence!r}, "
                    f"want {want} +- {PERSISTENCE_TOL}")
        if report.parity != parity:
            return f"parity {report.parity}, want {parity}"
        if (gap, nu) == ("large", 3):
            # c09: the measured splitting sits within one bin of the
            # companion spectrum's
            if report.omega_delta_measured is None or \
                    abs(report.omega_delta_measured - report.omega_delta_hint) \
                    > report.fourier.bin_width:
                return (f"omega_delta measured {report.omega_delta_measured!r}"
                        f" vs hint {report.omega_delta_hint!r}")
        return None

    return check


def _check_snapshot(steps: int):
    def check(trace) -> str | None:
        x, prob = trace.snapshots[steps]
        if abs(float(np.sum(prob)) - 1.0) > 1e-12:
            return "snapshot does not sum to 1"
        if not np.all(np.isfinite(trace.p0_normalized)):
            return "non-finite return probability"
        return None
    return check


def _check_parity(nu: int):
    def check(trace) -> str | None:
        mean = float(np.mean(trace.p0_normalized[12:25]))
        want = PERSISTENCE["small", nu][0]
        if abs(mean - want) > PERSISTENCE_TOL:
            return (f"mean p0 over t = 12..24 is {mean!r}, "
                    f"want {want} +- {PERSISTENCE_TOL}")
        return None
    return check


def return_spectroscopy(seed: int, index: int, ctx: Context) -> list[Request]:
    reqs = []
    for gap, left, rights in (("large", LEFT_LARGE_GAP, RIGHT_LARGE_GAP),
                              ("small", LEFT_SMALL_GAP, RIGHT_SMALL_GAP)):
        for nu in (3, 2, 1):
            spec = split_spec(left, rights[nu], 0.05)
            reqs.append(Request(
                key=f"infer-{gap}-dnu{nu}-T{INFER_STEPS}",
                call=lambda spec=spec: ptwalk.infer_edge_count(
                    spec, steps=INFER_STEPS,
                    spectrum_sites=INFER_COMPANION_SITES),
                check=_check_inference(gap, nu)))
    for name, outer in (("a", OUTER[2]), ("b", (-0.6 * PI, 0.15 * PI))):
        spec = interface_spec(outer)
        reqs.append(Request(
            key=f"fig9{name}",
            call=lambda spec=spec: ptwalk.evolve(spec, steps=246,
                                                 snapshot_times=(246,)),
            check=_check_snapshot(246)))
    for nu in (3, 2, 1):
        spec = split_spec(LEFT_SMALL_GAP, RIGHT_SMALL_GAP[nu], 0.05)
        reqs.append(Request(key=f"c10-dnu{nu}",
                            call=lambda spec=spec: ptwalk.evolve(spec, steps=24),
                            check=_check_parity(nu)))
    return reqs


BUILDERS = {
    "interface-track": interface_track,
    "full-spectrum": full_spectrum,
    "return-spectroscopy": return_spectroscopy,
}
