"""ordered_map, and the solves that run on it, pooled against in-process.

Each pooled test forces the worker count through ``_pool._cpu_count``,
so it runs on worker processes even on a one-CPU host.  After every
test no child process is left, running or unreaped."""

import ctypes
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ptwalk import _pool, perturbation, spectrum
from ptwalk.errors import BracketError, TrackingError
from ptwalk.operators import (
    CoinProfile,
    Lattice,
    WalkSpec,
    build_walk_operator,
)
from ptwalk.perturbation import (
    delta_sweep,
    disorder_ensemble,
    find_exceptional_point,
)
from ptwalk.spectrum import edge_count_map, eigendecompose

PI = math.pi
INNER = (0.4 * PI, 0.1 * PI)
OUTER_C = (-0.2 * PI, 0.3 * PI)


def interface_spec(num_sites=301, kind=None, **profile_kw):
    profile = CoinProfile.inner_outer(INNER, OUTER_C, 50, **profile_kw)
    kind = kind or ("three_step_perturbed" if profile_kw else "three_step")
    return WalkSpec(kind=kind, lattice=Lattice(num_sites), profile=profile,
                    gamma=0.1)


def assert_no_child():
    """This process has no child left, running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert_no_child()


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count ordered_map sees."""
    return lambda n: monkeypatch.setattr(_pool, "_cpu_count", lambda: n)


@pytest.fixture
def forks(monkeypatch):
    """Count the calls of os.fork, in this process and in every child."""
    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)
    fork = os.fork

    def counted():
        os.write(write_end, b".")
        return fork()

    def count():
        try:
            return len(os.read(read_end, 4096))
        except BlockingIOError:  # no fork wrote
            return 0

    monkeypatch.setattr(os, "fork", counted)
    yield count
    os.close(read_end)
    os.close(write_end)


def meet(folder, processes=2, timeout=10.0):
    """Return once calls in ``processes`` different processes have come
    here, so that no one process runs all of them."""
    (folder / str(os.getpid())).touch()
    deadline = time.monotonic() + timeout
    while len(list(folder.iterdir())) < processes:
        assert time.monotonic() < deadline, "no other process came"
        time.sleep(0.001)


class Interrupted(KeyboardInterrupt):
    pass


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class NeedsTwoArguments(Exception):
    """Pickles, but cannot be unpickled: unpickling calls the class with
    the one message argument."""
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def fails_from(first, label):
    """A stand-in solve that raises for every item from ``first`` on,
    naming the item, and returns the item otherwise."""
    def solve(item):
        if item >= first:
            raise np.linalg.LinAlgError(f"{label} {item} did not converge")
        return item
    return solve


# OpenBLAS's thread-count getter, as numpy's bundled copy, scipy's
# bundled copy and a system build export it
BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def blas_threads():
    """Thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                        if "openblas" in line})
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        name = next((n for n in BLAS_GETTERS if hasattr(lib, n)), None)
        if name is not None:
            get = getattr(lib, name)
            get.argtypes, get.restype = [], ctypes.c_int
            counts.append(get())
    return counts


@pytest.mark.parametrize("openblas_threads", [None, "4"],
                         ids=["unset", "four"])
def test_import_pins_every_openblas_to_one_thread(openblas_threads):
    # a fresh interpreter, whatever OPENBLAS_NUM_THREADS says
    if not blas_threads():
        pytest.skip("no OpenBLAS loaded")
    tests = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k not in {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]))
    code = "import ptwalk, test_pool; print(*test_pool.blas_threads())"
    counts = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env=env).stdout.split()
    assert counts == ["1"] * len(blas_threads())


class TestOrderedMap:
    @pytest.mark.parametrize("n_cpus", [2, 4])
    def test_every_worker_runs_one_blas_thread(self, cpus, tmp_path,
                                              n_cpus):
        # one item per worker, the caller included, each reading the
        # thread counts while every other worker runs
        if not blas_threads():
            pytest.skip("no OpenBLAS loaded")
        cpus(n_cpus)

        def threads_seen(item):
            meet(tmp_path, processes=n_cpus)
            return os.getpid(), blas_threads()

        seen = list(_pool.ordered_map(threads_seen, range(n_cpus)))
        assert os.getpid() in {pid for pid, _ in seen}
        assert len({pid for pid, _ in seen}) == n_cpus
        ones = [1] * len(blas_threads())
        assert [threads for _, threads in seen] == [ones] * n_cpus
        assert blas_threads() == ones

    def test_results_in_input_order(self, cpus):
        cpus(2)
        offset = 10  # a closure: the function is never pickled
        assert list(_pool.ordered_map(lambda i: i * i + offset, range(9))) \
            == [i * i + offset for i in range(9)]
        assert_no_child()

    def test_more_items_than_the_task_pipe_holds(self, cpus):
        # thousands of items, shared out, come back in input order
        cpus(2)
        n = 3073
        assert list(_pool.ordered_map(lambda i: -i, range(n))) \
            == [-i for i in range(n)]

    def test_items_run_on_the_caller_and_a_child(self, cpus, tmp_path):
        # the first two items meet, so they run in two processes
        cpus(2)

        def pid(item):
            if item < 2:
                meet(tmp_path)
            return os.getpid()

        pids = set(_pool.ordered_map(pid, range(6)))
        assert os.getpid() in pids
        assert len(pids) == 2

    @pytest.mark.parametrize("n_cpus,n_items,threads", [
        (1, 4, None), (2, 4, 1), (2, 1, None), (4, 1, 2),
    ], ids=["one-cpu", "threads-1", "one-item", "one-item-threads-2"])
    def test_one_worker_runs_lazily_in_process(self, cpus, n_cpus, n_items,
                                               threads):
        cpus(n_cpus)
        calls = []

        def fn(item):
            calls.append(item)
            return os.getpid()

        results = _pool.ordered_map(fn, range(n_items), threads)
        assert calls == []
        assert next(results) == os.getpid()
        assert calls == [0]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_exception_raised_where_the_loop_reaches_it(self, cpus, n_cpus):
        cpus(n_cpus)
        results = _pool.ordered_map(fails_from(2, "item"), range(5))
        assert [next(results), next(results)] == [0, 1]
        with pytest.raises(np.linalg.LinAlgError,
                           match="^item 2 did not converge$"):
            next(results)

    def test_interrupt_cancels_the_items_not_started(self, cpus):
        # the child's first item signals the caller, as Ctrl-C would;
        # the caller kills and reaps the child and runs none of the rest
        cpus(2)
        caller = os.getpid()
        started, start = os.pipe()
        signalled = []

        def fn(item):
            os.write(start, b".")
            if os.getpid() != caller and not signalled:
                signalled.append(item)
                os.kill(caller, signal.SIGUSR1)
            time.sleep(0.05)

        def interrupt(signum, frame):
            raise Interrupted

        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(Interrupted):
                _pool.ordered_map(fn, range(40))
        finally:
            signal.signal(signal.SIGUSR1, previous)
            os.close(start)
        assert_no_child()
        assert len(os.read(started, 4096)) < 40
        os.close(started)

    @pytest.mark.parametrize("misstep,error,message", [
        ("exit", RuntimeError,
         "a worker process ended with status 3 before it returned item {}"),
        ("unpicklable-exception", pickle.PicklingError,
         "item {} raised Unpicklable: held a lock, which cannot be pickled"),
        ("unpicklable-result", pickle.PicklingError,
         "the result of item {} cannot be pickled"),
        ("exception-not-unpicklable", pickle.UnpicklingError,
         "the exception of item {} cannot be unpickled"),
    ], ids=["exit", "unpicklable-exception", "unpicklable-result",
            "exception-not-unpicklable"])
    def test_a_child_failure_is_raised_at_its_item(self, cpus, tmp_path,
                                                   misstep, error, message):
        # the caller and the child take one item each; the child's item
        # fails on the way back, and the iterator raises there, after
        # the caller's item if that came first
        cpus(2)
        caller = os.getpid()

        def fn(item):
            meet(tmp_path)
            if os.getpid() == caller:
                return item
            if misstep == "exit":
                os._exit(3)
            if misstep == "unpicklable-exception":
                raise Unpicklable("held a lock")
            if misstep == "unpicklable-result":
                return threading.Lock()
            raise NeedsTwoArguments("a", "b")

        got = []
        with pytest.raises(error) as raised:
            for value in _pool.ordered_map(fn, range(2)):
                got.append(value)
        assert got in ([], [0])
        assert re.match(re.escape(message.format(len(got))),
                        str(raised.value))

    def test_a_child_that_dies_partway_keeps_what_it_returned(self, cpus,
                                                               tmp_path):
        # the child (items 1, 3, 5) returns item 1 and exits on item 3
        cpus(2)
        caller = os.getpid()
        marker = tmp_path / "returned-one"

        def fn(item):
            if os.getpid() != caller:
                if marker.exists():
                    os._exit(3)
                marker.touch()
            return item

        got = []
        with pytest.raises(RuntimeError) as raised:
            for value in _pool.ordered_map(fn, range(6)):
                got.append(value)
        assert got == [0, 1, 2]
        assert str(raised.value) == ("a worker process ended with status 3 "
                                     "before it returned item 3")

    @pytest.mark.parametrize("misstep", ["none", "raise", "exit"])
    def test_large_results_come_back_whole(self, cpus, misstep):
        # 8 MB per item, far more than a pipe buffer holds; item 3 runs
        # in the child, and no descriptor outlives the call
        cpus(2)
        caller = os.getpid()
        fds = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else None
        before = fds and sorted(os.listdir(fds))

        def big(item):
            return np.random.default_rng(item).random(1 << 20)

        def fn(item):
            if item == 3 and misstep == "raise":
                raise ValueError("item 3 failed")
            if item == 3 and misstep == "exit" and os.getpid() != caller:
                os._exit(3)
            return big(item)

        got = []
        error = {"none": None, "raise": ValueError,
                 "exit": RuntimeError}[misstep]
        if error is None:
            got = list(_pool.ordered_map(fn, range(4)))
        else:
            with pytest.raises(error, match="item 3"):
                for value in _pool.ordered_map(fn, range(4)):
                    got.append(value)
        assert [a.tobytes() for a in got] \
            == [big(i).tobytes() for i in range(4 if error is None else 3)]
        if fds:
            assert sorted(os.listdir(fds)) == before

    def test_short_reads_are_read_on(self, cpus, monkeypatch):
        # one read may return less than asked (at most 2 GiB - 4 kiB on
        # Linux); every record of the child's file still comes back
        cpus(2)
        pread = os.pread
        reads = []

        def short(fd, n, offset):
            reads.append(n)
            return pread(fd, min(n, 1000), offset)

        monkeypatch.setattr(os, "pread", short)
        items = [np.arange(i, i + 500.0) for i in range(6)]
        got = list(_pool.ordered_map(lambda a: a * 2, items))
        assert [a.tobytes() for a in got] == [(a * 2).tobytes() for a in items]
        assert len(reads) > 1

    def test_no_memory_files_means_one_worker(self, monkeypatch, forks):
        # without os.memfd_create the items run lazily in this process
        monkeypatch.delattr(os, "memfd_create")
        assert _pool._cpu_count() == 1
        threads = threading.active_count()
        calls = []

        def fn(item):
            calls.append(item)
            return threading.active_count()

        results = _pool.ordered_map(fn, range(3))
        assert calls == []
        assert list(results) == [threads] * 3
        assert forks() == 0

    def test_the_pool_starts_no_thread(self, cpus):
        # the caller's share runs beside no thread of the pool's
        cpus(2)
        threads = threading.active_count()
        seen = list(_pool.ordered_map(
            lambda i: (os.getpid(), threading.active_count()), range(4)))
        assert {n for pid, n in seen if pid == os.getpid()} == {threads}
        assert threading.active_count() == threads

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_must_be_positive(self, threads):
        with pytest.raises(ValueError, match="threads must be positive"):
            _pool.ordered_map(abs, range(3), threads)


def sweep_rows(sweep):
    return [(p.delta, p.lams.tobytes(), p.regime, p.inserted)
            for p in sweep.points]


# one walk for each window path, and the results compared by bytes
WINDOW_WALKS = {
    "interface-fold": interface_spec(),
    "interface-mu": interface_spec(kind="three_step_perturbed_disordered",
                                   delta=0.05, disorder_amplitude=0.1,
                                   disorder_seed=5),
    "interface": interface_spec(delta=0.07),
}


def window(spec):
    return eigendecompose(build_walk_operator(spec), compute_condition=False,
                          interface_only=True)


def pair_bytes(result):
    return [np.array([getattr(p, attr) for p in result.pairs]).tobytes()
            for attr in ("lam", "vector")]

class TestPooledEqualsInProcess:
    def test_delta_sweep(self, cpus):
        # the step to 0.069 outruns its secant estimate near the EP, so
        # bisection inserts a point, which is solved in this process
        sweeps = []
        for n in (1, 2):
            cpus(n)
            sweeps.append(delta_sweep(interface_spec(), [0.0, 0.001, 0.069]))
            assert_no_child()
        assert sum(p.inserted for p in sweeps[0].points) >= 1
        assert sweep_rows(sweeps[0]) == sweep_rows(sweeps[1])
        assert sweeps[0].ep_bracket == sweeps[1].ep_bracket
        assert sweeps[0].n_branches == sweeps[1].n_branches

    def test_find_exceptional_point(self, cpus):
        found = []
        for n in (1, 2):
            cpus(n)
            found.append(find_exceptional_point(interface_spec(), 0.05, 0.08))
            assert_no_child()
        assert found[0] == found[1]
        assert found[0].n_solves > 2

    @pytest.mark.parametrize("solver", WINDOW_WALKS)
    def test_window_sides(self, cpus, solver):
        # every side of the window on the pool against one after another
        results = []
        for n in (1, 2):
            cpus(n)
            results.append(window(WINDOW_WALKS[solver]))
        assert results[0].solver == results[1].solver == solver
        assert pair_bytes(results[0]) == pair_bytes(results[1])

    @pytest.mark.parametrize("window_solver,solver", [
        ("interface-fold", "pt-fold"), ("interface-mu", "dense"),
        ("interface", "dense"),
    ])
    def test_a_side_with_no_window(self, cpus, monkeypatch, window_solver,
                                   solver):
        # the -1 side of every window matrix has an exactly singular
        # factor, so the whole-spectrum solve answers, pooled as
        # in-process
        spec = WINDOW_WALKS[window_solver]
        whole = eigendecompose(build_walk_operator(spec),
                               compute_condition=False)
        shift_invert = spectrum._shift_invert

        def refusing(B, sigma):
            return None if sigma < 0 else shift_invert(B, sigma)

        monkeypatch.setattr(spectrum, "_shift_invert", refusing)
        results = []
        for n in (1, 2):
            cpus(n)
            results.append(window(spec))
        assert results[0].solver == results[1].solver == solver
        assert whole.solver == solver
        assert pair_bytes(results[0]) == pair_bytes(results[1])
        assert pair_bytes(results[0]) == pair_bytes(whole)

    @pytest.mark.parametrize("interface_only,solver", [
        (True, "dense"), (False, "dense"),
    ], ids=["window", "whole"])
    def test_a_vanishing_partner(self, cpus, monkeypatch, interface_only,
                                 solver):
        # a zero column in the R21 image, as where lambda = 1/lambda:
        # the pairs built from it miss the residual gate on the fold
        # window and on the whole parity block alike, so the dense path
        # answers, pooled as in-process
        spec = WINDOW_WALKS["interface-fold"]
        solve = spectrum._solve_clusters

        def zeroed(R, bases, values):
            if len(bases) == 2:
                bases[1][:, 0] = 0
            return solve(R, bases, values)

        monkeypatch.setattr(spectrum, "_solve_clusters", zeroed)
        results = []
        for n in (1, 2):
            cpus(n)
            results.append(eigendecompose(
                build_walk_operator(spec), compute_condition=False,
                interface_only=interface_only))
        assert results[0].solver == results[1].solver == solver
        assert pair_bytes(results[0]) == pair_bytes(results[1])


class TestNesting:
    """An item on the pool runs its own pools in its process."""

    CELLS = [-0.6 * PI, -0.2 * PI]

    def test_cells_run_their_window_sides_in_process(self, cpus, forks):
        cpus(2)
        emap = edge_count_map(INNER, self.CELLS, [0.2 * PI], gamma=0.1,
                              num_sites=101, half_width=20)
        assert emap.counted.all()
        assert forks() == 1

    def test_a_lone_cell_forks_for_its_window_sides(self, cpus, forks):
        cpus(2)
        emap = edge_count_map(INNER, self.CELLS[:1], [0.2 * PI], gamma=0.1,
                              num_sites=101, half_width=20)
        assert emap.solvers == {"interface-fold": 1}
        assert forks() == 1


class TestErrorsWhereTheLoopReachesThem:
    """A solve that raises raises with its own type and message, at the
    item a serial loop would have stopped at."""

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_edge_count_map(self, cpus, monkeypatch, n_cpus):
        # three gapped cells; the first solves, the other two raise
        cpus(n_cpus)
        t1s = [-0.6 * PI, -0.2 * PI, 0.9 * PI]
        solve = spectrum.eigendecompose

        def eigendecompose(op, **kw):
            cell = t1s.index(op.spec.profile.theta1_b)
            if cell == 0:
                return solve(op, **kw)
            raise np.linalg.LinAlgError(f"cell {cell} did not converge")

        monkeypatch.setattr(spectrum, "eigendecompose", eigendecompose)
        with pytest.raises(np.linalg.LinAlgError,
                           match="^cell 1 did not converge$"):
            edge_count_map(INNER, t1s, [0.2 * PI], gamma=0.1, num_sites=101,
                           half_width=20)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_disorder_ensemble(self, cpus, monkeypatch, n_cpus):
        cpus(n_cpus)
        solve = fails_from(1, "seed")

        def edge_eigensystem(spec, delta):
            solve(spec.profile.disorder_seed)
            return np.array([0.5 + 0j]), np.ones((spec.lattice.dim, 1))

        monkeypatch.setattr(perturbation, "_edge_eigensystem",
                            edge_eigensystem)
        with pytest.raises(np.linalg.LinAlgError,
                           match="^seed 1 did not converge$"):
            disorder_ensemble(interface_spec(delta=0.05), 0.1, n_seeds=4)

    @staticmethod
    def fake_sweep(fail_at, jump_at=None):
        """Two smooth branches; the solve at ``fail_at`` raises, and from
        ``jump_at`` on a third state appears, which no bisection
        resolves."""
        def edge_eigensystem(spec, delta):
            if delta == fail_at:
                raise np.linalg.LinAlgError(f"delta {delta} did not converge")
            lams = [0.1 * delta, -1.0 + 0.1 * delta]
            if jump_at is not None and delta >= jump_at:
                lams.append(0.9)
            return np.array(lams, dtype=complex), np.eye(4, len(lams))
        return edge_eigensystem

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("fail_at,jump_at,error,message", [
        (0.5, None, np.linalg.LinAlgError, "^delta 0.5 did not converge$"),
        (1.0, 0.5, TrackingError,
         "^tracked state count changed from 2 to 3 near delta=0.5$"),
    ], ids=["solve", "tracking-first"])
    def test_delta_sweep(self, cpus, monkeypatch, n_cpus, fail_at, jump_at,
                         error, message):
        cpus(n_cpus)
        monkeypatch.setattr(perturbation, "_edge_eigensystem",
                            self.fake_sweep(fail_at, jump_at))
        with pytest.raises(error, match=message):
            delta_sweep(interface_spec(), [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("lo_im,error,message", [
        (0.0, np.linalg.LinAlgError, "^upper end did not converge$"),
        (0.1, BracketError, "already complex at delta=0.05 "),
    ], ids=["upper-solve", "lower-bracket-first"])
    def test_find_exceptional_point(self, cpus, monkeypatch, n_cpus, lo_im,
                                    error, message):
        # the upper end's solve raises; a lower end that is already
        # complex is refused first, as the serial search refuses it
        cpus(n_cpus)

        def edge_eigensystem(spec, delta):
            if delta == 0.08:
                raise np.linalg.LinAlgError("upper end did not converge")
            return np.array([1 + lo_im * 1j, 1 - lo_im * 1j]), np.eye(2)

        monkeypatch.setattr(perturbation, "_edge_eigensystem",
                            edge_eigensystem)
        with pytest.raises(error, match=message):
            find_exceptional_point(interface_spec(), 0.05, 0.08)
