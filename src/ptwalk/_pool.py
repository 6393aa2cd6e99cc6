"""Independent solves shared out between this process and forked workers.

Each call forks its own workers with ``os.fork`` and reaps them before
it returns, so a worker sees the caller's module state as it stands at
the call (a monkeypatched function included) and no worker outlives
the call.  The caller is one of the workers: it runs its own share of
the items while the children run theirs.  Forking also means the
function and the items reach the children without being pickled; only
the results come back pickled.

The shares are fixed before the first fork: of ``W`` workers, worker
``r`` (the caller is 0) runs items ``r``, ``r + W``, ``r + 2W``, ...
Each child writes its results into its own memory file
(``os.memfd_create``), which the caller reads once the child has
exited, so no child waits for the caller to read and the pool starts
no thread.  A child that dies, or whose result or exception cannot be
pickled, raises at its item.

An item that runs on the pool runs any pool of its own in its process:
an interface solve whose cells are shared out runs the sides of each
cell's window one after another, and no worker forks again.

Each worker, the caller included, runs OpenBLAS on at most its share of
the CPUs; the caller's own thread count is back when the call returns.
OpenBLAS threads spin while they wait for work: on a 2-vCPU VM, two
workers that each kept OpenBLAS's default two threads ran ``reproduce
fig5`` and ``fig6`` 1.4-3.4x slower than one process did.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import struct
import sys

_nested = False  # True while this process runs an item of a pool

# OpenBLAS's thread-count entry points, as numpy's bundled copy, scipy's
# bundled copy and a system build export them
_BLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# one record of a child: item index, whether the call returned, and the
# length of the pickled result or exception that follows
_RECORD = struct.Struct("<I?Q")


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell or
    has no memory files, which is also where it cannot fork safely."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "memfd_create")):
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process, found once: ``import ptwalk`` loads numpy's and scipy's
    before any pool runs."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if "openblas" in line}
    except OSError:
        return ()
    import ctypes

    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _BLAS_THREADS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


def _cap_blas(limit: int) -> list:
    """Lower every OpenBLAS loaded in this process to at most ``limit``
    threads; other BLAS libraries are left as they are.  Returns the
    (set, count) pairs that put back what was lowered."""
    lowered = []
    for get, set_ in _openblas():
        count = get()
        if count > limit:
            set_(limit)
            lowered.append((set_, count))
    return lowered


def _call(fn, item) -> tuple:
    """(True, result) of ``fn(item)``, or (False, exception) if it
    raised."""
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc


def _record(index: int, ok: bool, value) -> bytes:
    """One framed record; a value that cannot be pickled becomes a
    PicklingError that says so."""
    try:
        payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        what = (f"the result of item {index}" if ok else
                f"item {index} raised {type(value).__name__}: {value}, which")
        payload = pickle.dumps(pickle.PicklingError(
            f"{what} cannot be pickled ({exc})"))
        ok = False
    return _RECORD.pack(index, ok, len(payload)) + payload


def _flush_std_streams() -> None:
    """Flush Python's stdout and stderr: before a fork, so that a child
    repeats nothing the caller had buffered, and as a child leaves, so
    that what its items printed is not lost."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass


def _child(fn, items, rank: int, workers: int, out: int,
           blas_threads: int) -> None:
    """Forked worker ``rank``: run its share of the items, write one
    record per item to the memory file ``out``, and leave through
    ``os._exit`` whatever happens."""
    global _nested
    _nested = True
    status = 1
    try:
        _cap_blas(blas_threads)
        with os.fdopen(out, "wb") as fh:
            for i in range(rank, len(items), workers):
                fh.write(_record(i, *_call(fn, items[i])))
                # an exit in a later item must not take this one with it
                fh.flush()
        status = 0
    finally:
        _flush_std_streams()
        os._exit(status)


def _outcomes(data: bytes, outcomes: dict) -> None:
    """Add the whole records in ``data`` to ``outcomes`` (index -> (ok,
    value)); a truncated last record is dropped."""
    view, at = memoryview(data), 0
    while at + _RECORD.size <= len(view):
        index, ok, size = _RECORD.unpack_from(view, at)
        at += _RECORD.size
        if at + size > len(view):
            return
        try:
            value = pickle.loads(view[at:at + size])
        except Exception as exc:
            ok, value = False, pickle.UnpicklingError(
                f"the {'result' if ok else 'exception'} of item {index} "
                f"cannot be unpickled ({exc})")
        outcomes[index] = (ok, value)
        at += size


def _fork_map(fn, items: list, workers: int, blas_threads: int) -> list:
    """(ok, value) of every item, in input order, from this process and
    ``workers - 1`` forked children, each child with its own share and
    memory file.  If this process raises, the children are killed and
    reaped before the exception leaves."""
    global _nested
    n = len(items)
    children = {}  # pid -> its memory file
    files = []
    outcomes = {}
    try:
        _flush_std_streams()
        for rank in range(1, workers):
            files.append(os.memfd_create("ptwalk-pool"))
            pid = os.fork()
            if pid == 0:
                _child(fn, items, rank, workers, files[-1], blas_threads)
            children[pid] = files[-1]
        lowered = _cap_blas(blas_threads)
        _nested = True
        try:
            for i in range(0, n, workers):
                outcomes[i] = _call(fn, items[i])
        finally:
            _nested = False
            for set_, count in lowered:
                set_(count)
        ended = ""
        for pid, out in list(children.items()):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code and not ended:
                ended = (f" with status {code}" if code > 0 else
                         f" on signal {-code}")
            _outcomes(os.pread(out, os.fstat(out).st_size, 0), outcomes)
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for out in files:
            os.close(out)
    return [outcomes.get(i) or (False, RuntimeError(
        f"a worker process ended{ended} before it returned item {i}"))
        for i in range(n)]


def _results(outcomes: list):
    for ok, value in outcomes:
        if not ok:
            raise value
        yield value


def ordered_map(fn, items, threads: int | None = None):
    """``map(fn, items)``, with the items shared among worker processes.

    Returns an iterator over the results in input order.  An item whose
    call raised re-raises its exception when the iterator reaches it, as
    the serial loop would; so does an item whose worker ended before
    returning it, or whose result or exception cannot be pickled.  The
    worker count is the least of the CPUs this process may use, the
    number of items and ``threads`` (no cap if None), and it is one
    inside an item of another pool.  With one worker the items run
    lazily in this process, as plain ``map`` runs them; otherwise this
    process is one of the workers, and every item has run, and every
    other worker has exited, by the time this returns.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    items = list(items)
    cpus = _cpu_count()
    workers = 1 if _nested else min(cpus, len(items), threads or len(items))
    if workers <= 1:
        return map(fn, items)
    return _results(_fork_map(fn, items, workers, cpus // workers))
