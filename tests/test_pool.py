"""ordered_map, and the solves that run on it, pooled against in-process.

Each pooled test forces the worker count through ``_pool._cpu_count``,
so it runs on worker processes even on a one-CPU host.  After every
test no child process is left."""

import ctypes
import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from ptwalk import _pool, perturbation, spectrum
from ptwalk.errors import BracketError, TrackingError
from ptwalk.operators import CoinProfile, Lattice, WalkSpec
from ptwalk.perturbation import (
    delta_sweep,
    disorder_ensemble,
    find_exceptional_point,
)
from ptwalk.spectrum import edge_count_map

PI = math.pi
INNER = (0.4 * PI, 0.1 * PI)
OUTER_C = (-0.2 * PI, 0.3 * PI)


def interface_spec(num_sites=301, **profile_kw):
    profile = CoinProfile.inner_outer(INNER, OUTER_C, 50, **profile_kw)
    kind = "three_step_perturbed" if profile_kw else "three_step"
    return WalkSpec(kind=kind, lattice=Lattice(num_sites), profile=profile,
                    gamma=0.1)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count ordered_map sees."""
    return lambda n: monkeypatch.setattr(_pool, "_cpu_count", lambda: n)


class Interrupted(Exception):
    pass


def fails_from(first, label):
    """A stand-in solve that raises for every item from ``first`` on,
    naming the item, and returns the item otherwise."""
    def solve(item):
        if item >= first:
            raise np.linalg.LinAlgError(f"{label} {item} did not converge")
        return item
    return solve


def openblas():
    """(get, set) of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                        if "openblas" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        names = next((n for n in _pool._BLAS_THREADS if hasattr(lib, n[0])),
                     None)
        if names is not None:
            get, set_ = (getattr(lib, name) for name in names)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append((get, set_))
    return found


class TestOrderedMap:
    @pytest.mark.parametrize("caller,n_cpus,in_worker", [
        (2, 2, 1), (2, 4, 2), (1, 4, 1),
    ], ids=["shared-out", "two-each", "never-raised"])
    def test_workers_share_out_the_blas_threads(self, cpus, caller, n_cpus,
                                                in_worker):
        # two workers; each runs OpenBLAS on at most its share of the
        # CPUs, and on no more threads than the caller did
        libs = openblas()
        if not libs:
            pytest.skip("no OpenBLAS loaded")
        cpus(n_cpus)
        before = [get() for get, _ in libs]
        try:
            for _, set_ in libs:
                set_(caller)
            seen = list(_pool.ordered_map(
                lambda item: [get() for get, _ in openblas()], range(2)))
            after = [get() for get, _ in libs]
        finally:
            for (_, set_), n in zip(libs, before):
                set_(n)
        assert seen == [[in_worker] * len(libs)] * 2
        assert after == [caller] * len(libs)

    def test_results_in_input_order(self, cpus):
        cpus(2)
        offset = 10  # a closure: the function is never pickled
        assert list(_pool.ordered_map(lambda i: i * i + offset, range(9))) \
            == [i * i + offset for i in range(9)]
        assert multiprocessing.active_children() == []

    def test_items_run_on_workers(self, cpus):
        cpus(2)
        pids = set(_pool.ordered_map(lambda _: os.getpid(), range(6)))
        assert os.getpid() not in pids
        assert len(pids) <= 2

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
        # the first item signals the caller while it waits, as Ctrl-C
        # would; the pool stops without running the rest
        cpus(2)
        started = multiprocessing.Value("i", 0)

        def fn(item):
            with started.get_lock():
                started.value += 1
            if item == 0:
                os.kill(os.getppid(), signal.SIGUSR1)
            time.sleep(0.05)

        def interrupt(signum, frame):
            raise Interrupted

        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(Interrupted):
                _pool.ordered_map(fn, range(40))
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert multiprocessing.active_children() == []
        assert started.value < 40

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_must_be_positive(self, threads):
        with pytest.raises(ValueError, match="threads must be positive"):
            _pool.ordered_map(abs, range(3), threads)


def sweep_rows(sweep):
    return [(p.delta, p.lams.tobytes(), p.regime, p.inserted)
            for p in sweep.points]


class TestPooledEqualsInProcess:
    def test_delta_sweep(self, cpus):
        # the step to 0.069 outruns its secant estimate near the EP, so
        # bisection inserts a point, which is solved in this process
        sweeps = []
        for n in (1, 2):
            cpus(n)
            sweeps.append(delta_sweep(interface_spec(), [0.0, 0.001, 0.069]))
            assert multiprocessing.active_children() == []
        assert sum(p.inserted for p in sweeps[0].points) >= 1
        assert sweep_rows(sweeps[0]) == sweep_rows(sweeps[1])
        assert sweeps[0].ep_bracket == sweeps[1].ep_bracket
        assert sweeps[0].n_branches == sweeps[1].n_branches

    def test_find_exceptional_point(self, cpus):
        found = []
        for n in (1, 2):
            cpus(n)
            found.append(find_exceptional_point(interface_spec(), 0.05, 0.08))
            assert multiprocessing.active_children() == []
        assert found[0] == found[1]
        assert found[0].n_solves > 2


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
