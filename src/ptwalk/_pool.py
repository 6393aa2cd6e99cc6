"""Independent solves run side by side on worker processes.

Each call gets its own pool, forked from the caller and shut down
before the call returns, so a worker sees the caller's module state as
it stands at the call (a monkeypatched function included) and no worker
outlives the call.  Forking also means the function and the items reach
the workers without being pickled; only the results come back pickled.

Each worker runs OpenBLAS on at most its share of the CPUs.  OpenBLAS
threads spin while they wait for work: on a 2-vCPU VM, two workers that
each kept OpenBLAS's default two threads ran ``reproduce fig5`` and
``fig6`` 1.4-3.4x slower than one process did.
"""

from __future__ import annotations

import os

_task = None  # (fn, items), set in each worker by _install

# OpenBLAS's thread-count entry points, as numpy's bundled copy, scipy's
# bundled copy and a system build export them
_BLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell,
    which is also where it cannot fork safely."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _cap_blas(limit: int) -> None:
    """Lower every OpenBLAS loaded in this process to at most ``limit``
    threads; other BLAS libraries are left as they are."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if "openblas" in line}
    except OSError:
        return
    import ctypes

    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _BLAS_THREADS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                set_(min(get(), limit))
                break


def _install(fn, items, blas_threads: int) -> None:
    global _task
    _task = (fn, items)
    _cap_blas(blas_threads)


def _run(index: int):
    fn, items = _task
    return fn(items[index])


def ordered_map(fn, items, threads: int | None = None):
    """``map(fn, items)``, with the items shared among worker processes.

    Returns an iterator over the results in input order.  An item whose
    call raised re-raises its exception when the iterator reaches it, as
    the serial loop would.  The worker count is the least of the CPUs
    this process may use, the number of items and ``threads`` (no cap
    if None).  With one worker the items run lazily in this process,
    as plain ``map`` runs them; otherwise every item has run, and the
    pool is gone, by the time this returns.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    items = list(items)
    cpus = _cpu_count()
    workers = min(cpus, len(items), threads or len(items))
    if workers <= 1:
        return map(fn, items)

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, wait

    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_install,
                               initargs=(fn, items, cpus // workers))
    try:
        futures = [pool.submit(_run, i) for i in range(len(items))]
        wait(futures)
    finally:
        # after an interrupt, the items no worker has started never run
        pool.shutdown(cancel_futures=True)
    return (future.result() for future in futures)
