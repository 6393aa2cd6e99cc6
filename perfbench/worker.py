"""Closed-loop client for one workload; started by ``run.py``.

One client issues one request at a time and waits for its answer.
Passes repeat while the next one is expected to finish within
``--seconds`` (at least one pass always runs).  A request's latency is
its public call alone; its check and digest run after the clock stops.
The ``--setup-probes`` set-up timings are spread evenly over the gaps
between the first pass's requests, outside both the requests' clocks
and the ``--seconds`` budget, so they sample the machine over the same
stretch of time as the requests do.
With ``--trace 1`` every pass is run twice, untraced and then traced,
and the per-layer metrics come from the traced copies.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy
import scipy

import ptwalk
import tracing
import workloads


SETUP_PROBE = """\
import math
import ptwalk
profile = ptwalk.CoinProfile.inner_outer((0.4 * math.pi, 0.1 * math.pi),
                                         (-0.2 * math.pi, 0.3 * math.pi), 5)
spec = ptwalk.WalkSpec(kind="three_step", lattice=ptwalk.Lattice(21),
                       profile=profile, gamma=0.1)
ptwalk.eigendecompose(ptwalk.build_walk_operator(spec))
"""


def setup_time() -> float:
    """Seconds from starting a fresh interpreter to ptwalk imported and a
    first small solve done."""
    # no subprocess timeout: with one, the wait polls in steps of up to
    # 50 ms, which rounds every probe to that grain
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def probes_between(total: int, slots: int, times: list[float]):
    """A hook for after each of ``slots`` requests that brings the
    set-up timings in ``times`` to the same share of ``total``."""
    done = itertools.count(1)

    def after_request() -> None:
        target = round(next(done) * total / slots)
        while len(times) < target:
            times.append(setup_time())

    return after_request


def machine() -> dict:
    """Library versions and the BLAS each one was built against."""
    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}


def code_id(src: Path, info: dict) -> str:
    """Hash of the code that makes the answers: the ptwalk sources, the
    benchmark's own files and the library versions in ``info``."""
    h = hashlib.sha256(json.dumps(info, sort_keys=True).encode())
    bench = Path(__file__).resolve().parent
    for root in (src / "ptwalk", bench):
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root.parent)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(requests, records: list, tracer=None,
             after_request=None) -> float:
    """Issue each request in turn; return the pass's summed latency."""
    wall = 0.0
    for req in requests:
        status, error = "ok", None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = req.call()
            else:
                out = tracer.call("bench", "request", req.call)
        except Exception as exc:  # a failed request is recorded, not fatal
            out, status, error = exc, "failed", type(exc).__name__
        latency = time.perf_counter() - start
        wall += latency
        wrong = None
        try:
            if status == "ok":
                wrong = req.check(out)
            digest = (req.digest or workloads.value_digest)(out)
        except Exception as exc:  # a malformed answer
            wrong, digest = f"check raised {type(exc).__name__}: {exc}", None
        records.append([req.key, latency, status, error, wrong, digest,
                        tracer is not None])
        del out
        if after_request is not None:
            after_request()
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-probes", type=int, required=True)
    args = parser.parse_args(argv)

    if Path(ptwalk.__file__).resolve().parent.parent != Path(args.src).resolve():
        print(f"ptwalk imported from {ptwalk.__file__}, not {args.src}",
              file=sys.stderr)
        return 2

    warnings.simplefilter("ignore")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(threads=args.threads, out_dir=out_dir)
    build = workloads.BUILDERS[args.workload]

    # warm-up (untimed): first build, solve, evolution, DFT and winding
    spec = workloads.split_spec(workloads.LEFT_LARGE_GAP,
                                workloads.RIGHT_LARGE_GAP[3], 0.05,
                                num_sites=101)
    ptwalk.infer_edge_count(spec, steps=300, spectrum_sites=101)
    ptwalk.winding_number(*workloads.OUTER[2], 0.1)
    self_test = (workloads.self_test()
                 if args.workload == "interface-track" else None)

    records: list = []
    walls: list[float] = []
    traced_walls: list[float] = []
    setup: list[float] = []
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    index = 0
    last = 0.0
    while index == 0 or \
            time.perf_counter() - start - sum(setup) + last <= args.seconds:
        began, probed = time.perf_counter(), sum(setup)
        requests = build(args.seed, index, ctx)
        hook = (probes_between(args.setup_probes, len(requests), setup)
                if index == 0 and args.setup_probes else None)
        walls.append(run_pass(requests, records, after_request=hook))
        if tracer is not None:
            tracer.install()
            try:
                traced_walls.append(run_pass(build(args.seed, index, ctx),
                                             records, tracer))
            finally:
                tracer.uninstall()
        last = time.perf_counter() - began - (sum(setup) - probed)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    info = machine()
    result = {
        "machine": info,
        "code_id": code_id(Path(args.src), info),
        "walls": walls,
        "passes": index,
        "records": records,
        "peak_rss_mb": peak_rss_mb,
        "setup_probes_s": setup,
        "self_test": self_test,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, len(traced_walls))
        layers["bench.trace_overhead_s"] = (statistics.mean(traced_walls)
                                            - statistics.mean(walls))
        result["layers"] = layers
        tracer.write(out_dir / "spans.jsonl")
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
