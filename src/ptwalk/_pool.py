"""Independent solves shared out between this process and forked workers.

Each call forks its own workers with ``os.fork`` and reaps them before
it returns, so a worker sees the caller's module state as it stands at
the call (a monkeypatched function included) and no worker outlives
the call.  The caller is one of the workers: it runs its own share of
the items while the children run theirs.  Forking also means the
function and the items reach the children without being pickled; only
the results come back pickled, each through its child's own pipe.

The items are handed out as they are asked for: every item index (past
``_MAX_TASKS`` items, the first of each run of a few) is written into
one pipe before the first fork, and each process takes the next one
with a 4-byte read, which a pipe serves whole.  A thread of the caller
reads each child's pipe while the caller runs its share, so a child
never waits long to hand a result over.  A child that dies, or whose
result or exception cannot be pickled, raises at its item.

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
import threading

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
# the task pipe holds every index before the first fork, and a Linux
# pipe holds at least one 4 kB page
_MAX_TASKS = 1024
_PIPE_BYTES = 1 << 20  # Linux's default cap on a pipe's size


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell,
    which is also where it cannot fork safely."""
    if not hasattr(os, "sched_getaffinity"):
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


def _widen(pipe: int) -> None:
    """Let ``pipe`` hold ``_PIPE_BYTES`` where the platform allows it.

    A child whose pipe is full waits for the caller's reader thread,
    which runs only when this process's main thread yields the GIL,
    every few milliseconds; a window side's eigenvectors (a few hundred
    kB) then took the child 25 ms to hand over through 64 kB.
    """
    try:
        import fcntl

        fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass


def _tasks(pipe: int, step: int, n: int):
    """The item indices this process takes from the task pipe, ``step``
    at a time, until the pipe is empty."""
    while record := os.read(pipe, 4):
        start = int.from_bytes(record, "little")
        yield from range(start, min(start + step, n))


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


def _child(fn, items, tasks: int, step: int, out: int,
           blas_threads: int) -> None:
    """A forked worker: run the items it takes, write one record per item
    to ``out``, and leave through ``os._exit`` whatever happens."""
    global _nested
    _nested = True
    status = 1
    try:
        _cap_blas(blas_threads)
        with os.fdopen(out, "wb") as pipe:
            for i in _tasks(tasks, step, len(items)):
                try:
                    record = _record(i, True, fn(items[i]))
                except Exception as exc:
                    record = _record(i, False, exc)
                pipe.write(record)
                # an exit in a later item must not take this one with it
                pipe.flush()
        status = 0
    finally:
        _flush_std_streams()
        os._exit(status)


def _drain(pipe: int, chunks: list) -> None:
    """Append what a child writes into ``pipe`` to ``chunks`` until the
    pipe is closed."""
    while data := os.read(pipe, _PIPE_BYTES):
        chunks.append(data)


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
    ``workers - 1`` forked children.  If this process raises, the
    children are killed and reaped before the exception leaves."""
    global _nested
    n = len(items)
    step = -(-n // _MAX_TASKS)
    children = {}  # pid -> read end of its pipe
    chunks = {}  # read end -> bytes read so far
    outcomes = {}
    readers = []
    tasks, hand_out = os.pipe()
    try:
        with open(hand_out, "wb") as fh:
            fh.write(b"".join(i.to_bytes(4, "little")
                              for i in range(0, n, step)))
        _flush_std_streams()
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            chunks[read_end] = []
            _widen(write_end)
            try:
                pid = os.fork()
                if pid == 0:
                    os.close(read_end)
                    _child(fn, items, tasks, step, write_end, blas_threads)
            finally:
                os.close(write_end)
            children[pid] = read_end
        # a child whose pipe is full waits until it is read, so the
        # pipes are read while this process runs its own share
        readers = [threading.Thread(target=_drain, args=item, daemon=True)
                   for item in chunks.items()]
        for reader in readers:
            reader.start()
        lowered = _cap_blas(blas_threads)
        _nested = True
        try:
            for i in _tasks(tasks, step, n):
                try:
                    outcomes[i] = (True, fn(items[i]))
                except Exception as exc:
                    outcomes[i] = (False, exc)
        finally:
            _nested = False
            for set_, count in lowered:
                set_(count)
        for reader in readers:
            reader.join()
        ended = ""
        for pid, read_end in list(children.items()):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code and not ended:
                ended = (f" with status {code}" if code > 0 else
                         f" on signal {-code}")
            _outcomes(b"".join(chunks[read_end]), outcomes)
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.join()
        for fd in (tasks, *chunks):
            os.close(fd)
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
