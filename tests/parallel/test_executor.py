"""Unit tests for the pluggable execution backends."""

from __future__ import annotations

import multiprocessing
import threading
import traceback
from concurrent.futures.process import _ExecutorManagerThread

import pytest

from repro.errors import ReproError
from repro.parallel import (
    BACKENDS,
    CircuitBreaker,
    Executor,
    RetryExhausted,
    RetryPolicy,
    WorkerError,
    get_executor,
    validate_backend,
)


def _square(x):
    return x * x


def _boom_worker(x):
    if x == 3:
        raise ValueError(f"bad shard {x}")
    return x


def _raise_unpicklable(x):
    raise _Unpicklable("cannot cross the pickle boundary")


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


class TestConstruction:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown parallel backend"):
            get_executor("gpu", 2)
        with pytest.raises(ReproError):
            validate_backend("cluster")

    def test_bad_n_jobs_rejected(self):
        for bad in (0, -2, 1.5, "four"):
            with pytest.raises(ReproError, match="n_jobs"):
                get_executor("serial", bad)

    def test_minus_one_means_all_cores(self):
        ex = get_executor("threads", -1)
        assert ex.n_jobs == multiprocessing.cpu_count()

    def test_all_backends_constructible(self):
        for backend in BACKENDS:
            assert Executor(backend, 2).backend == backend


class TestMapShards:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_shard_order(self, backend):
        ex = get_executor(backend, 4)
        shards = list(range(23))
        assert ex.map_shards(_square, shards) == [x * x for x in shards]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_input(self, backend):
        assert get_executor(backend, 4).map_shards(_square, []) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_more_workers_than_shards(self, backend):
        ex = get_executor(backend, 16)
        assert ex.map_shards(_square, [7]) == [49]

    def test_n_jobs_one_degenerates_to_serial(self):
        # Even the processes backend must not spin up a pool for one
        # worker; closures work, proving the serial path was taken.
        ex = get_executor("processes", 1)
        seen = []
        assert ex.map_shards(lambda x: seen.append(x) or x, [1, 2]) \
            == [1, 2]
        assert seen == [1, 2]

    def test_process_wave_leaves_no_pool_behind(self):
        # The next wave forks its workers: no thread or worker of this
        # wave's pool may still be alive when it does.
        before = set(multiprocessing.active_children())
        ex = get_executor("processes", 2)
        assert ex.map_shards(_square, [1, 2, 3]) == [1, 4, 9]
        leftover = [thread.name for thread in threading.enumerate()
                    if isinstance(thread, _ExecutorManagerThread)
                    or thread.name == "QueueFeederThread"]
        assert leftover == []
        assert set(multiprocessing.active_children()) <= before

    def test_dead_pool_manager_fails_the_wave(self, monkeypatch):
        """A pool whose manager thread is gone resolves no future (a
        CPython race can kill it: its broken-pool path walks the
        pending work items while a submit adds one). The wave must
        fail transiently in bounded time, not wait forever."""
        monkeypatch.setattr(_ExecutorManagerThread, "run",
                            lambda self: None)
        before = set(multiprocessing.active_children())
        ex = get_executor("processes", 2,
                          retry=RetryPolicy(max_attempts=2,
                                            base_delay=0.0),
                          breaker=CircuitBreaker(threshold=100))
        outcome = []

        def run():
            try:
                ex.map_shards(_square, [1, 2, 3])
            except Exception as exc:
                outcome.append(exc)

        waiter = threading.Thread(target=run, daemon=True)
        waiter.start()
        waiter.join(60)
        assert not waiter.is_alive(), "wave waited on a dead pool"
        assert isinstance(outcome[0].__cause__, RetryExhausted)
        assert ex.stats["transient_failures"] >= 3
        assert set(multiprocessing.active_children()) <= before


class TestExceptionPropagation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_original_exception_type(self, backend):
        ex = get_executor(backend, 2)
        with pytest.raises(ValueError, match="bad shard 3"):
            ex.map_shards(_boom_worker, [1, 2, 3, 4])

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_in_process_traceback_reaches_caller(self, backend):
        ex = get_executor(backend, 2)
        try:
            ex.map_shards(_boom_worker, [3])
        except ValueError as exc:
            frames = "".join(traceback.format_tb(exc.__traceback__))
            assert "_boom_worker" in frames
        else:  # pragma: no cover
            pytest.fail("worker exception was swallowed")

    def test_process_traceback_carried_by_cause(self):
        ex = get_executor("processes", 2)
        try:
            ex.map_shards(_boom_worker, [1, 3])
        except ValueError as exc:
            assert isinstance(exc.__cause__, WorkerError)
            # The remote traceback text names the failing frame and
            # the shard index it ran as.
            assert "_boom_worker" in str(exc.__cause__)
            assert "shard 1 raised in worker" in str(exc.__cause__)
        else:  # pragma: no cover
            pytest.fail("worker exception was swallowed")

    def test_unpicklable_exception_downgraded_not_lost(self):
        # Two shards so the pool actually spins up (one shard
        # degenerates to the in-process serial path by design).
        ex = get_executor("processes", 2)
        with pytest.raises(WorkerError, match="_Unpicklable"):
            ex.map_shards(_raise_unpicklable, [0, 1])
