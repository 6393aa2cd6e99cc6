"""Span recording around the public calls of each ptwalk layer.

The tracer wraps the public functions of ``operators``, ``bulk``,
``spectrum``, ``perturbation``, ``dynamics`` and ``ioutil`` and puts the
wrapper in place of the original under every ``ptwalk`` module name that
looks it up (``ptwalk.spectrum.eigendecompose``,
``ptwalk.perturbation.eigendecompose`` and so on), so calls between
layers are seen as well as the benchmark's own calls.  Nothing inside
the package changes; ``uninstall`` puts the originals back.

Spans stay in memory.  A span's self time is its duration minus the
part of it that its child spans cover.  Calls made from worker threads
of ``edge_count_map`` and ``disorder_ensemble`` are parented to the
span the main thread is in.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

from ptwalk.perturbation import EDGE_LIKE


@dataclass(eq=False)
class Span:
    ident: int
    layer: str
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted((max(c.start, self.start), min(c.end, self.end))
                                 for c in self.children):
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        return self.duration - covered

    def ancestor(self, layer: str) -> "Span | None":
        node = self.parent
        while node is not None and node.layer != layer:
            node = node.parent
        return node


def _site_steps(spec, steps: int, window_cap=None) -> int:
    """Sum over steps of the active window width that ``evolve`` updates."""
    band = spec.bandwidth
    full = 2 * band * steps + 1
    width = min(full, window_cap if window_cap is not None else full + 127)
    return sum(min(2 * band * t + 1, width) for t in range(1, steps + 1))


def _after_build(span, args, kwargs, result):
    span.info["dim"] = result.dim


def _after_eigendecompose(span, args, kwargs, result):
    span.info["states"] = len(result.pairs)
    span.info["counts"] = dict(result.counts)
    span.info["near_defective"] = sum(p.near_defective for p in result.pairs)
    span.info["ambiguous"] = sum(p.ambiguous for p in result.pairs)


def _after_bloch(span, args, kwargs, result):
    span.info["k_points"] = int(result.k.size)


def _after_gap_status(span, args, kwargs, result):
    span.info["gap_open"] = bool(result.gap_open)


def _after_sweep(span, args, kwargs, result):
    span.info["inserted"] = sum(p.inserted for p in result.points)


def _after_ep(span, args, kwargs, result):
    span.info["n_solves"] = result.n_solves


def _after_evolve(span, args, kwargs, result):
    steps = kwargs.get("steps", args[1] if len(args) > 1 else None)
    span.info["site_steps"] = _site_steps(result.spec, steps,
                                          kwargs.get("window_cap"))
    span.info["leaked"] = float(result.leaked_probability)
    span.info["rescaled"] = result.log_scale > 0.0


def _count_rows(span, args, kwargs):
    """Pass ``write_csv`` a generator that counts the rows it consumes."""
    span.info["rows"] = 0

    def counted(rows):
        for row in rows:
            span.info["rows"] += 1
            yield row

    if len(args) > 2:
        args = (*args[:2], counted(args[2]), *args[3:])
    else:
        kwargs = {**kwargs, "rows": counted(kwargs["rows"])}
    return args, kwargs


def _after_write(span, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    span.info["bytes"] = os.path.getsize(path)


# (layer, defining module, function, hook run after the span ends)
WRAPPED = (
    ("operators", "ptwalk.operators", "build_walk_operator", _after_build),
    ("bulk", "ptwalk.bulk", "winding_number", None),
    ("bulk", "ptwalk.bulk", "bulk_gap_status", _after_gap_status),
    ("bulk", "ptwalk.bulk", "dispersion", None),
    ("bulk", "ptwalk.bulk", "bloch_coefficients", _after_bloch),
    ("spectrum", "ptwalk.spectrum", "eigendecompose", _after_eigendecompose),
    ("spectrum", "ptwalk.spectrum", "classify_states", None),
    ("spectrum", "ptwalk.spectrum", "edge_count_map", None),
    ("spectrum", "ptwalk.spectrum", "write_spectrum_csv", None),
    ("perturbation", "ptwalk.perturbation", "delta_sweep", _after_sweep),
    ("perturbation", "ptwalk.perturbation", "find_exceptional_point", _after_ep),
    ("perturbation", "ptwalk.perturbation", "disorder_ensemble", None),
    ("dynamics", "ptwalk.dynamics", "evolve", _after_evolve),
    ("dynamics", "ptwalk.dynamics", "dft", None),
    ("dynamics", "ptwalk.dynamics", "detect_modes", None),
    ("dynamics", "ptwalk.dynamics", "persistence_parity", None),
    ("dynamics", "ptwalk.dynamics", "infer_edge_count", None),
    ("ioutil", "ptwalk.ioutil", "write_csv", _after_write),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main = threading.get_ident()
        self._swapped: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(ident=next(self._ids), layer=layer, name=name,
                    parent=parent, start=time.perf_counter())
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def call(self, layer: str, name: str, fn):
        """Run ``fn`` inside a span of its own (used for whole requests)."""
        return self._wrap(layer, name, fn, None)()

    def _wrap(self, layer: str, name: str, fn, after):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(layer, name)
            if name == "write_csv":
                args, kwargs = _count_rows(span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ptwalk" or n.startswith("ptwalk.")]
        for layer, home, name, after in WRAPPED:
            original = getattr(sys.modules[home], name)
            wrapper = self._wrap(layer, name, original, after)
            for module in modules:
                if module.__dict__.get(name) is original:
                    self._swapped.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._swapped):
            setattr(module, name, original)
        self._swapped.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.ident, s.parent.ident if s.parent else 0,
                                     s.layer, s.name, s.start, s.end,
                                     s.error]) + "\n")


def _states_used(span: Span) -> int:
    """How many of a solve's eigenpairs its caller reads.

    A perturbation probe reads the interface-localized states, an edge
    map reads the protected counts, the companion solve of an inference
    reads the defective pairs plus the band-edge state for ``eps_m``, and
    a spectrum requested for its own sake (full-spectrum) reads them all.
    """
    counts = span.info["counts"]
    caller = span.parent.name if span.parent is not None else "request"
    if span.parent is not None and span.parent.layer == "perturbation":
        return sum(counts[c] for c in EDGE_LIKE)
    if caller == "edge_count_map":
        return counts["edge_zero"] + counts["edge_pi"]
    if caller == "infer_edge_count":
        return counts["defective_pair_member"] + 1
    return span.info["states"]


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes, as totals per pass."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def outermost(layer):
        return [s for s in spans if s.layer == layer
                and (s.parent is None or s.parent.layer != layer)]

    builds = named("build_walk_operator")
    solves = [s for s in named("eigendecompose") if "states" in s.info]
    bulk_calls = outermost("bulk")
    pert_calls = outermost("perturbation")
    evolves = named("evolve")
    writes = named("write_csv")

    states_computed = sum(s.info["states"] for s in solves)
    states_used = sum(_states_used(s) for s in solves)
    gap_closed = sum(1 for s in bulk_calls
                     if s.error == "GapClosedError"
                     or s.info.get("gap_open") is False)
    pert_solves = [s for s in named("eigendecompose")
                   if s.ancestor("perturbation") is not None]
    evolve_s = sum(s.duration for s in evolves)
    site_steps = sum(s.info.get("site_steps", 0) for s in evolves)

    totals = {
        "operators.builds": len(builds),
        "operators.build_s": sum(s.duration for s in builds),
        "operators.dense_mb": sum(s.info["dim"] ** 2 * 8 for s in builds
                                  if "dim" in s.info) / 1e6,
        "spectrum.solves": len(named("eigendecompose")),
        "spectrum.solve_s": sum(s.self_time() for s in named("eigendecompose")),
        "spectrum.classify_s": sum(s.duration for s in named("classify_states")),
        "spectrum.states_computed": states_computed,
        "spectrum.states_used": states_used,
        "spectrum.near_defective": sum(s.info["near_defective"] for s in solves),
        "spectrum.ambiguous": sum(s.info["ambiguous"] for s in solves),
        "bulk.calls": len(bulk_calls),
        "bulk.busy_s": sum(s.duration for s in bulk_calls),
        "bulk.k_points": sum(s.info.get("k_points", 0)
                             for s in named("bloch_coefficients")),
        "bulk.resolution_errors": sum(1 for s in bulk_calls
                                      if s.error == "ResolutionError"),
        "bulk.gap_closed": gap_closed,
        "perturbation.busy_s": sum(s.self_time() for s in spans
                                   if s.layer == "perturbation"),
        "perturbation.inserted_points": sum(s.info.get("inserted", 0)
                                            for s in named("delta_sweep")),
        "perturbation.ep_solves": sum(s.info.get("n_solves", 0)
                                      for s in named("find_exceptional_point")),
        "perturbation.tracking_errors": sum(1 for s in pert_calls
                                            if s.error == "TrackingError"),
        "dynamics.evolve_s": evolve_s,
        "dynamics.site_steps": site_steps,
        "dynamics.dft_s": sum(s.duration for s in named("dft")),
        "dynamics.detect_s": sum(s.duration for s in named("detect_modes")),
        "dynamics.companion_solve_s": sum(
            s.duration for s in named("eigendecompose")
            if s.parent is not None and s.parent.name == "infer_edge_count"),
        "dynamics.leaked_probability": sum(s.info.get("leaked", 0.0)
                                           for s in evolves),
        "dynamics.rescaled_traces": sum(1 for s in evolves
                                        if s.info.get("rescaled")),
        "ioutil.write_s": sum(s.duration for s in writes),
        "ioutil.bytes": sum(s.info.get("bytes", 0) for s in writes),
        "ioutil.rows": sum(s.info.get("rows", 0) for s in writes),
    }
    metrics = {name: value / passes for name, value in totals.items()}
    metrics["spectrum.used_state_ratio"] = (
        states_used / states_computed if states_computed else 0.0)
    metrics["perturbation.solves_per_request"] = (
        len(pert_solves) / len(pert_calls) if pert_calls else 0.0)
    metrics["dynamics.site_steps_per_s"] = (
        site_steps / evolve_s if evolve_s else 0.0)
    return metrics
