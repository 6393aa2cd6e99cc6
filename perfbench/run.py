"""ptwalk benchmark: run one workload and print its metrics as JSON.

usage: python3 perfbench/run.py --workload <name> --seed <n>
                                --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy, and the
run exits with status 2 when that source tree is missing.

Load model: a closed loop with one client, which sends its next request
only after the previous answer is back (see ``worker.py``).  Thread
budget: the worker's BLAS thread count times the ``threads`` argument
given to calls that take one stays within the CPUs this process may
use.

With ``--trace 0`` the result carries the end-to-end metrics listed in
``BENCHMARK.json``: ``setup_s`` is the median over several fresh
processes, started between the requests of the first pass, of importing
ptwalk and finishing a first small solve; the others come from the
workload process.  With ``--trace 1`` it carries
the per-layer metrics from a separate traced copy of every pass.  The
line before the result records the machine, the thread budget and
the failures by type; ``perfbench/out/`` keeps that record, the
request digests of earlier runs of the same code and the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("interface-track", "full-spectrum", "return-spectroscopy")
BLAS_THREADS = 1
SETUP_PROBES = 15
DEADLINE_S = 170.0  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def check_digests(workload: str, code_id: str, records: list) -> list[str]:
    """Compare each request digest with earlier runs of the same code.

    The store is named by ``code_id``, a hash of the ptwalk sources, the
    benchmark's files and the Python, numpy, scipy and BLAS versions, so
    answers of other code (another commit, say) are never compared.
    """
    path = OUT / f"digests-{workload}-{code_id[:16]}.json"
    try:
        with open(path) as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    mismatched = []
    for key, _latency, _status, _error, _wrong, digest, _traced in records:
        if digest is None:
            continue
        if known.setdefault(key, digest) != digest:
            mismatched.append(key)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(known, fh)
    os.replace(tmp, path)
    return mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "ptwalk" / "__init__.py").is_file():
        print(f"perfbench: no ptwalk sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(2, nproc // BLAS_THREADS))
    OUT.mkdir(exist_ok=True)

    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--src", str(SRC),
           "--setup-probes", str(0 if args.trace else SETUP_PROBES),
           "--out", str(OUT / args.workload)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=DEADLINE_S - (time.perf_counter() - began))
    except subprocess.TimeoutExpired:
        print("perfbench: workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"perfbench: worker exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])
    setup = result["setup_probes_s"]

    # one record per request: key, latency, status, error type,
    # wrong-answer reason, digest, traced
    records = result["records"]
    attempted = len(records)
    failures: dict[str, int] = {}
    wrong = []
    for key, _latency, status, error, reason, _digest, _traced in records:
        if status == "failed":
            failures[error] = failures.get(error, 0) + 1
        if reason is not None:
            wrong.append(f"{key}: {reason}")
    wrong += [f"{key}: digest differs from an earlier answer"
              for key in check_digests(args.workload, result["code_id"],
                                       records)]
    failed = sum(failures.values())

    # a pass has fewer than 20 requests, so no percentile below 100
    # leaves 10 samples beyond it: the tail is the maximum
    latencies = [r[1] for r in records if not r[6]]
    values = {
        "wall_s": statistics.mean(result["walls"]),
        "request_s_p50": statistics.median(latencies),
        "request_s_tail": max(latencies),
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": failed / attempted,
        "wrong_ratio": len(wrong) / attempted,
    }
    if args.trace:
        values.update(result["layers"])
    else:
        values["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {**result["machine"], "nproc": nproc,
                    "platform": platform.platform()},
        "code_id": result["code_id"],
        "blas_threads": BLAS_THREADS, "threads": threads,
        "load": "closed loop, one client",
        "passes": result["passes"], "pass_walls_s": result["walls"],
        "samples": attempted, "latency_samples": len(latencies),
        "tail_percentile": 100.0,
        "setup_probes_s": setup,
        "failures_by_type": failures, "failed": failed,
        "wrong": len(wrong), "wrong_examples": wrong[:20],
        "self_test_failure": result["self_test"],
        "computed": {k: v for k, v in values.items()
                     if k in ("operators.dense_mb", "bulk.k_points",
                              "dynamics.site_steps")},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"record": record, "values": values,
                   "requests": [r[:3] for r in records]}, fh)

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not wrong and result["self_test"] is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
