"""Pluggable execution backends behind one ``map_shards`` interface.

Three backends, one contract:

* ``"serial"``    — plain in-process loop; the reference semantics
  every other backend must reproduce bit-for-bit.
* ``"threads"``   — :class:`concurrent.futures.ThreadPoolExecutor`.
  Python-level work is GIL-bound, but the permutation hot loop spends
  most of its time inside numpy (which releases the GIL around array
  kernels), so threads give real speedups without any pickling cost.
* ``"processes"`` — :class:`concurrent.futures.ProcessPoolExecutor`.
  True multi-core parallelism; shard functions and their payloads must
  be picklable (module-level functions, plain-data arguments).

Determinism is the executor's design constraint, not an afterthought:
``map_shards`` always returns results **in shard order**, regardless
of completion order, and never re-partitions the work it is handed —
the *caller* decides the shard structure (and derives per-shard seeds
via :mod:`repro.parallel.seeding`), so the same shards produce the
same results on any backend at any worker count.

Failure handling (see :mod:`repro.parallel.resilience` and
``docs/resilience.md``): **fatal** failures — deterministic exceptions
raised by the shard function — propagate immediately as the original
exception type (chained to a :class:`WorkerError` carrying the remote
traceback when it crossed a process boundary). **Transient** failures
— a killed worker, a broken pool, an overrun deadline — are retried
under the executor's :class:`~repro.parallel.resilience.RetryPolicy`:
the same shard object is re-run (its seeds travel with it, so a
recovered result is byte-identical to a fault-free run), the shared
:class:`~repro.parallel.resilience.CircuitBreaker` is notified (and
may degrade the backend processes → threads → serial for the next
wave), and exhaustion raises the last failure chained to a
:class:`RetryExhausted` recording the attempt count and the final
attempt's traceback.

When ``deadline`` is set, the processes backend bounds each unit's
wall clock: an overrun terminates the pool's workers and surfaces a
transient :class:`~repro.errors.DeadlineExceeded` for the unit.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.process import BaseProcess
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..errors import DeadlineExceeded, ReproError
from ..testing import faults
from .resilience import CircuitBreaker, RetryPolicy, global_breaker, \
    is_transient

__all__ = ["BACKENDS", "Executor", "RetryExhausted", "WorkerError",
           "get_executor", "validate_backend"]

BACKENDS = ("serial", "threads", "processes")

S = TypeVar("S")
R = TypeVar("R")

#: Sentinel distinguishing "no context" from a ``None`` context.
_NO_CONTEXT = object()

#: One unit's outcome inside a wave: (unit index, succeeded, value or
#: exception, formatted worker traceback when one crossed a process
#: boundary).
_Outcome = Tuple[int, bool, object, Optional[str]]

#: A submitted unit paired with its in-flight future (processes wave).
_Submitted = Tuple[int, "Future[Tuple[bool, object, Optional[str]]]"]


class WorkerError(ReproError):
    """A shard raised in a worker process.

    Carries the worker-side formatted traceback; ``map_shards``
    re-raises the original exception *from* this error, so both the
    original type and the remote frames stay visible::

        ValueError: negative support
        ...
        The above exception was the direct cause of ...
        WorkerError: shard 3 raised in worker:
        Traceback (most recent call last):
          File "...", line 42, in _score_shard
        ...
    """


class RetryExhausted(WorkerError):
    """A transiently-failing unit ran out of retry attempts.

    The original (last-attempt) exception is re-raised *from* this
    error; :attr:`attempts` is the total number of tries and
    :attr:`last_traceback` the formatted traceback of the final
    attempt, so post-mortems see exactly where the last retry died.
    """

    def __init__(self, message: str, attempts: int,
                 last_traceback: str) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_traceback = last_traceback


def validate_backend(backend: str) -> str:
    """Return ``backend`` or raise listing the valid names."""
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown parallel backend {backend!r}; "
            f"pick from {', '.join(BACKENDS)}")
    return backend


def validate_n_jobs(n_jobs: int) -> int:
    """Return ``n_jobs`` (``-1`` → CPU count) or raise."""
    if n_jobs == -1:
        return multiprocessing.cpu_count()
    if not isinstance(n_jobs, int) or n_jobs < 1:
        raise ReproError(
            f"n_jobs must be a positive integer or -1 (all cores), "
            f"got {n_jobs!r}")
    return n_jobs


class Executor:
    """Run shard functions through the configured backend.

    Parameters
    ----------
    backend:
        One of :data:`BACKENDS`. The breaker may degrade the *active*
        backend below the requested one after repeated transient
        failures.
    n_jobs:
        Worker count; ``-1`` means one per CPU core. ``n_jobs=1``
        always degenerates to the serial loop, whatever the backend.
    retry:
        The :class:`~repro.parallel.resilience.RetryPolicy` for
        transient failures (default: 4 attempts, deterministic capped
        exponential backoff). ``RetryPolicy(max_attempts=1)`` disables
        retries.
    deadline:
        Optional per-unit wall-clock bound in seconds, enforced on the
        processes backend (an overrun terminates the workers and
        counts as a transient failure of the unit).
    breaker:
        The :class:`~repro.parallel.resilience.CircuitBreaker` to
        consult and notify; defaults to the process-wide shared one.
    """

    def __init__(self, backend: str = "serial", n_jobs: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 deadline: Optional[float] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.backend = validate_backend(backend)
        self.n_jobs = validate_n_jobs(n_jobs)
        self.retry = retry if retry is not None else RetryPolicy()
        if deadline is not None and not deadline > 0:
            raise ReproError(
                f"deadline must be a positive number of seconds, "
                f"got {deadline!r}")
        self.deadline = deadline
        self.breaker = breaker if breaker is not None \
            else global_breaker()
        #: Cumulative resilience counters (diagnostics, not identity).
        self.stats: Dict[str, int] = {"waves": 0, "retries": 0,
                                      "transient_failures": 0}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Executor(backend={self.backend!r}, n_jobs={self.n_jobs})"

    # ------------------------------------------------------------------

    def map_shards(self, fn: Callable[..., R],
                   shards: Iterable[S],
                   context: object = _NO_CONTEXT) -> List[R]:
        """``[fn(shard) for shard in shards]``, possibly in parallel.

        Results come back in shard order on every backend. The shard
        structure is the caller's: this method never splits or merges
        shards, which is what makes results independent of the worker
        count — and what makes retries invisible in the output, since
        a retried shard re-runs with the seeds it carries.

        ``context`` hoists a payload shared by every unit out of the
        per-unit shards: when given, ``fn`` is called as
        ``fn(context, shard)`` and the processes backend ships the
        payload through the pool *initializer* — once per worker per
        wave (inherited for free under the fork start method, not
        pickled at all) — so per-unit submissions and **retries**
        re-send only the small shard, never the payload. Callers whose
        payload is a dataset should pass it here rather than closing
        over it, or the dataset is re-pickled for every unit of every
        retry wave.
        """
        items: Sequence[S] = list(shards)
        if not items:
            return []
        results: List[object] = [None] * len(items)
        attempts = [0] * len(items)
        pending = list(range(len(items)))
        clean = True
        while pending:
            backend = self.breaker.active_backend(self.backend)
            workers = min(self.n_jobs, len(pending))
            self.stats["waves"] += 1
            # A single worker degenerates to the in-process loop
            # (which is why closures work at n_jobs=1 on any
            # backend) — except when a deadline must be enforced,
            # which only the process pool can do.
            in_process = (workers == 1
                          and (backend != "processes"
                               or self.deadline is None))
            if backend == "serial" or in_process:
                outcomes = self._wave_serial(fn, items, pending,
                                             context)
            elif backend == "threads":
                outcomes = self._wave_threads(fn, items, pending,
                                              workers, context)
            else:
                outcomes = self._wave_processes(fn, items, pending,
                                                workers, context)
            retry: List[int] = []
            deepest = 0
            for index, ok, value, formatted in outcomes:
                if ok:
                    results[index] = value
                    continue
                clean = False
                error = value if isinstance(value, BaseException) \
                    else ReproError(f"shard {index} failed: {value!r}")
                attempts[index] += 1
                if not is_transient(error):
                    self._raise_fatal(backend, index, error, formatted)
                self.stats["transient_failures"] += 1
                self.breaker.record_transient(backend,
                                              error=repr(error))
                if attempts[index] >= self.retry.max_attempts:
                    self._raise_exhausted(index, error, formatted,
                                          attempts[index])
                retry.append(index)
                deepest = max(deepest, attempts[index])
            if retry:
                self.stats["retries"] += len(retry)
                delay = self.retry.delay(deepest)
                if delay > 0:
                    time.sleep(delay)
            pending = retry
        if clean:
            self.breaker.record_success()
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # failure surfacing
    # ------------------------------------------------------------------

    def _raise_fatal(self, backend: str, index: int,
                     error: BaseException,
                     formatted: Optional[str]) -> None:
        if backend == "processes" and formatted is not None:
            raise error from WorkerError(
                f"shard {index} raised in worker:\n{formatted}")
        # In-process backends: the exception object still carries its
        # original traceback; re-raise it unwrapped.
        raise error

    def _raise_exhausted(self, index: int, error: BaseException,
                         formatted: Optional[str],
                         attempts: int) -> None:
        last = formatted or "".join(
            traceback.format_exception(type(error), error,
                                       error.__traceback__))
        raise error from RetryExhausted(
            f"shard {index} failed transiently on every attempt "
            f"({attempts} of {attempts}); last failure:\n{last}",
            attempts=attempts, last_traceback=last)

    # ------------------------------------------------------------------
    # waves (one attempt of every still-pending unit)
    # ------------------------------------------------------------------

    def _wave_serial(self, fn: Callable[..., R], items: Sequence[S],
                     pending: Sequence[int],
                     context: object = _NO_CONTEXT) -> List[_Outcome]:
        outcomes: List[_Outcome] = []
        for index in pending:
            try:
                value = (fn(items[index]) if context is _NO_CONTEXT
                         else fn(context, items[index]))
                outcomes.append((index, True, value, None))
            except Exception as exc:
                outcomes.append((index, False, exc,
                                 traceback.format_exc()))
                if not is_transient(exc):
                    # Fatal: no retry is coming, so stop executing the
                    # rest of the wave (matches eager serial
                    # semantics).
                    break
        return outcomes

    def _wave_threads(self, fn: Callable[..., R], items: Sequence[S],
                      pending: Sequence[int], workers: int,
                      context: object = _NO_CONTEXT) -> List[_Outcome]:
        def guarded(index: int) -> _Outcome:
            try:
                value = (fn(items[index]) if context is _NO_CONTEXT
                         else fn(context, items[index]))
                return index, True, value, None
            except Exception as exc:
                return index, False, exc, traceback.format_exc()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(guarded, pending))

    def _wave_processes(self, fn: Callable[..., R], items: Sequence[S],
                        pending: Sequence[int], workers: int,
                        context: object = _NO_CONTEXT) -> List[_Outcome]:
        # fork keeps the parent's modules/sys.path visible without
        # re-importing, and makes already-registered plugin
        # corrections (and the armed fault plan) available in workers;
        # fall back to the platform default where fork is unavailable
        # (Windows, macOS spawn).
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        outcomes: List[_Outcome] = []
        if context is _NO_CONTEXT:
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=ctx)
            submit = lambda index: pool.submit(  # noqa: E731
                _guarded_call, fn, index, items[index])
        else:
            # The shared payload rides the pool initializer: once per
            # worker per wave (inherited, not pickled, under fork), so
            # per-unit submissions — and every retry — carry only the
            # small shard.
            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=ctx,
                initializer=_install_wave_context,
                initargs=(fn, context))
            submit = lambda index: pool.submit(  # noqa: E731
                _guarded_context_call, index, items[index])
        try:
            futures: List[_Submitted] = []
            for index in pending:
                try:
                    futures.append((index, submit(index)))
                except BrokenExecutor as exc:
                    # A worker died while this wave was still being
                    # submitted: the pool refuses further work, so the
                    # unsubmitted units fail transiently right here.
                    outcomes.append((index, False, exc, None))
            for index, future in futures:
                try:
                    ok, value, formatted = _await_unit(pool, future,
                                                       self.deadline)
                except (_FuturesTimeout, TimeoutError):
                    # The unit overran its deadline. The worker is
                    # hung, which poisons the pool: kill the workers
                    # so this wave ends in bounded time (the
                    # remaining futures fail fast as a broken pool).
                    _terminate_pool_workers(pool)
                    deadline = self.deadline or 0.0
                    ok, value, formatted = False, DeadlineExceeded(
                        f"shard {index} exceeded its {deadline:g}s "
                        f"deadline"), None
                except BrokenExecutor as exc:
                    # A worker died (SIGKILL, OOM-kill): every unit
                    # still in flight fails transiently.
                    ok, value, formatted = False, exc, None
                outcomes.append((index, ok, value, formatted))
        finally:
            # shutdown() drops the pool's references to its manager
            # thread and workers, so take them first.
            manager = getattr(pool, "_executor_manager_thread", None)
            processes = list(
                (getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            _reap_pool(manager, processes)
        return outcomes


#: How often a wave waiting on a unit checks that its pool's manager
#: thread is still alive.
_MANAGER_POLL_SECONDS = 0.5


def _await_unit(pool: ProcessPoolExecutor,
                future: "Future[Tuple[bool, object, Optional[str]]]",
                timeout: Optional[float],
                ) -> Tuple[bool, object, Optional[str]]:
    """``future.result(timeout)``, unless the pool cannot resolve it.

    Only the pool's manager thread resolves futures, and it can exit
    with one unresolved: in CPython 3.11 its broken-pool path walks
    the pending work items without the lock a concurrent ``submit``
    holds while adding one. Waiting on such a future never ends, so a
    wave whose manager has exited fails the unit with
    :class:`~concurrent.futures.process.BrokenProcessPool` (transient)
    and terminates the workers left blocked on the call queue.
    """
    manager = getattr(pool, "_executor_manager_thread", None)
    end = None if timeout is None else time.monotonic() + timeout
    while not future.done():
        if manager is not None and not manager.is_alive() \
                and not future.done():
            processes = list(
                (getattr(pool, "_processes", None) or {}).values())
            _terminate(processes)
            for process in processes:
                process.join(_REAP_SECONDS)
            raise BrokenProcessPool("the pool's manager thread exited "
                                    "and left a unit unresolved")
        wait_s = _MANAGER_POLL_SECONDS
        if end is not None:
            wait_s = min(wait_s, end - time.monotonic())
            if wait_s <= 0:
                raise _FuturesTimeout()
        futures_wait([future], timeout=wait_s)
    return future.result()


def _terminate_pool_workers(pool: ProcessPoolExecutor) -> None:
    """SIGTERM a pool's worker processes (hung-deadline recovery)."""
    processes = getattr(pool, "_processes", None) or {}
    _terminate(list(processes.values()))


def _terminate(processes: Iterable[BaseProcess]) -> None:
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - dead worker
            continue


#: How long a finished wave waits for its pool to wind down before
#: terminating the workers that are still alive.
_REAP_SECONDS = 5.0


def _reap_pool(manager: Optional[threading.Thread],
               processes: Sequence[BaseProcess]) -> None:
    """Wait, bounded, until a shut-down pool is gone.

    ``shutdown(wait=False)`` leaves the pool's manager and queue-feeder
    threads running until every worker has exited. Left alone they are
    still alive when the next wave forks its workers — a fork of a
    multi-threaded parent, where a lock held by one of those threads
    stays held forever in the child — and interpreter exit joins them,
    so one worker that never exits stalls the process at shutdown.
    Joining the manager thread (it joins the feeder and the workers)
    ends the pool inside the wave; workers still alive after
    :data:`_REAP_SECONDS` are terminated.
    """
    if manager is None:
        return
    manager.join(_REAP_SECONDS)
    if manager.is_alive():
        _terminate(processes)
        manager.join(_REAP_SECONDS)


#: Worker-side ``(fn, context)`` installed by the pool initializer for
#: context-hoisted waves (one slot per worker process; each wave's
#: fresh pool overwrites it).
_WAVE_CONTEXT: Optional[Tuple[Callable, object]] = None


def _install_wave_context(fn: Callable, context: object) -> None:
    """Pool initializer: park the wave's shared payload in the worker."""
    global _WAVE_CONTEXT
    _WAVE_CONTEXT = (fn, context)


def _guarded_call(fn: Callable[[S], R], index: int,
                  shard: S) -> Tuple[bool, object, Optional[str]]:
    """Run one shard in a worker, capturing the traceback on failure.

    Exception objects survive pickling back to the parent; traceback
    objects do not, so the formatted text rides along. Unpicklable
    exceptions are downgraded to a :class:`WorkerError` carrying their
    repr (the traceback text still shows the original type).

    This is also where the process-backend chaos faults live:
    ``worker-kill`` SIGKILLs the worker before the shard runs (the
    parent observes a broken pool, exactly like a real OOM-kill), and
    ``executor-hang`` sleeps past any sane deadline (the parent's
    deadline enforcement must recover). Both are no-ops unless armed
    (:mod:`repro.testing.faults`).
    """
    if faults.should_fire("worker-kill"):
        os.kill(os.getpid(), signal.SIGKILL)
    if faults.should_fire("executor-hang"):
        time.sleep(faults.hang_seconds())
    try:
        return True, fn(shard), None
    except BaseException as exc:
        formatted = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = WorkerError(
                f"unpicklable worker exception {exc!r} on shard {index}")
        return False, exc, formatted


def _guarded_context_call(index: int, shard: S,
                          ) -> Tuple[bool, object, Optional[str]]:
    """Context-hoisted flavour of :func:`_guarded_call`: the function
    and shared payload come from the worker's installed wave context,
    so this submission pickles only the unit index and shard."""
    assert _WAVE_CONTEXT is not None, "pool initializer did not run"
    fn, context = _WAVE_CONTEXT
    return _guarded_call(lambda unit: fn(context, unit), index, shard)


def get_executor(backend: str = "serial", n_jobs: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 deadline: Optional[float] = None,
                 breaker: Optional[CircuitBreaker] = None) -> Executor:
    """Construct a validated :class:`Executor`."""
    return Executor(backend=backend, n_jobs=n_jobs, retry=retry,
                    deadline=deadline, breaker=breaker)
