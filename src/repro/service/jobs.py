"""Async job orchestration: submit → queue → run → poll → result.

Jobs are the service's unit of work: ``mine`` (one pipeline run on a
registered dataset), ``holdout`` (the same, restricted to holdout
corrections — the split-data workflow gets its own kind so clients
cannot accidentally run an exploratory correction on the full data),
and ``experiment`` (the Section 5 replicated planted-rule loop).

A job's life is ``queued → running → done | failed``, with queued jobs
cancellable. Submission validates everything it can — kind, dataset
registration, correction/miner spellings (through the registries, so
unknown names carry their did-you-mean suggestions), parameter names —
so bad requests fail at submit time with a 4xx, not minutes later in a
worker.

Execution reuses the repro parallel subsystem: each job runs one
:class:`~repro.core.pipeline.Pipeline` whose permutation pass and
correction fan-out go through :mod:`repro.parallel`'s executor with
the manager's configured ``n_jobs``/``backend``. Because that
machinery is bit-identical at any worker count, service results are
byte-for-byte the results the CLI produces — which is also why worker
configuration is *excluded* from the artifact-cache key: a ``mine``
job is served from the :class:`~repro.service.store.ArtifactStore`
whenever the same (dataset fingerprint, miner, correction, params)
tuple was computed before, and the cached payload is the same
JSON the fresh run would have produced.

Determinism notes: job ids are sequential (``job-00000001``), not
random; jobs default ``seed=0`` so two submissions of the same request
are the same computation; payloads carry no timestamps (wall-clock
metadata lives on the :class:`Job`, outside the cached payload).
"""

from __future__ import annotations

import csv
import difflib
import io
import math
import queue
import sqlite3
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..corrections.base import FDR, CorrectionResult
from ..corrections.registry import resolve_correction
from ..data.dataset import Dataset
from ..errors import JobNotFound, ReproError, ServiceError
from ..evaluation.export import _BASE_HEADER, rule_rows
from ..mining.registry import resolve_miner
from ..parallel import get_executor, is_transient
from .journal import DEFAULT_STALE_AFTER, JobJournal
from .registry import DatasetRegistry
from .store import ArtifactStore

__all__ = ["JOB_KINDS", "JOB_STATES", "Job", "JobManager",
           "bh_q_values"]

JOB_KINDS = ("mine", "holdout", "experiment")
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Mining-job parameters and their defaults. ``dataset`` is required;
#: everything else falls back to the CLI's defaults (``seed`` pinned
#: to 0 rather than None: a service request must be repeatable).
_MINE_DEFAULTS = {
    "correction": "bh",
    "algorithm": "closed",
    "alpha": 0.05,
    "min_conf": 0.0,
    "max_length": None,
    "scorer": "fisher",
    "seed": 0,
    "n_permutations": 1000,
    "holdout_split": "random",
    "redundancy_delta": None,
}

_EXPERIMENT_DEFAULTS = {
    "records": 2000,
    "attributes": 40,
    "rules": 1,
    "coverage": 400,
    "confidence": 0.65,
    "min_sup": 150,
    "algorithm": "closed",
    "alpha": 0.05,
    "replicates": 10,
    "n_permutations": 150,
    "methods": ("No correction", "BC", "BH"),
    "seed": 0,
}

#: Synthetic experiments have no registered dataset; their cache rows
#: use this sentinel for the fingerprint key slot.
_EXPERIMENT_FINGERPRINT = "synthetic:experiment"


def bh_q_values(p_values: Sequence[float],
                n_tests: Optional[int] = None) -> Dict[float, float]:
    """Benjamini–Hochberg q-value for each distinct p-value.

    ``q_i = min_{j >= i} p_(j) * n / j`` over the ascending-sorted
    p-values (the standard right-to-left running minimum, capped at
    1). Returned as a p → q mapping: every rule with the same p-value
    has the same q-value, so callers look their rules up by p.
    """
    ordered = sorted(float(p) for p in p_values)
    if not ordered:
        return {}
    n = max(int(n_tests or 0), len(ordered))
    mapping: Dict[float, float] = {}
    best = 1.0
    for index in range(len(ordered) - 1, -1, -1):
        best = min(best, ordered[index] * n / (index + 1))
        mapping[ordered[index]] = best
    return mapping


@dataclass
class Job:
    """One submitted unit of work and its lifecycle record.

    ``params`` is the *normalized* request (defaults filled in,
    spellings canonicalised) — the exact dict that keys the artifact
    cache. ``payload`` is the JSON-ready result once ``state`` is
    ``"done"``; ``cached`` records whether it came from the artifact
    store instead of a fresh run.
    """

    job_id: str
    kind: str
    dataset: Optional[str]
    params: Dict[str, object]
    state: str = "queued"
    cached: bool = False
    error: Optional[str] = None
    payload: Optional[Dict[str, object]] = field(default=None,
                                                 repr=False)
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    timeout: Optional[float] = None
    heartbeat_at: Optional[float] = None
    traceback: Optional[str] = field(default=None, repr=False)

    def info(self) -> Dict[str, object]:
        """JSON-ready status document (poll endpoint body)."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "dataset": self.dataset,
            "params": dict(self.params),
            "state": self.state,
            "cached": self.cached,
            "error": self.error,
            "attempts": self.attempts,
            "timeout": self.timeout,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    def snapshot(self) -> Dict[str, object]:
        """The full durable record (what the job journal persists):
        :meth:`info` plus the payload, traceback and heartbeat."""
        record = self.info()
        record["payload"] = (None if self.payload is None
                             else dict(self.payload))
        record["traceback"] = self.traceback
        record["heartbeat_at"] = self.heartbeat_at
        return record


def _allowed_params(kind: str):
    """The parameter names a job of ``kind`` accepts."""
    if kind == "experiment":
        return set(_EXPERIMENT_DEFAULTS)
    return set(_MINE_DEFAULTS) | {"dataset", "min_sup"}


def _reject_unknown(given, allowed, kind: str) -> None:
    unknown = sorted(set(given) - set(allowed))
    if not unknown:
        return
    message = (f"unknown parameter(s) {unknown} for a {kind!r} job; "
               f"allowed: {sorted(allowed)}")
    close = difflib.get_close_matches(unknown[0], sorted(allowed),
                                      n=1, cutoff=0.6)
    if close:
        message += f" — did you mean {close[0]!r}?"
    raise ServiceError(message)


def _canonical_correction(value: str) -> str:
    """CLI convention: canonical name, unless the requested spelling
    binds context overrides (``"HD_BC"`` → structured split)."""
    resolved = resolve_correction(str(value))
    return str(value) if resolved.overrides else resolved.name


class JobManager:
    """Thread-pooled job queue over a registry and an artifact store.

    Parameters
    ----------
    registry / store:
        The shared dataset registry and artifact cache.
    workers:
        Worker threads consuming the queue. ``0`` means no background
        workers — tests then drain explicitly with
        :meth:`process_pending` (and :meth:`reap` for time-based
        transitions) for single-threaded determinism.
    n_jobs / backend:
        The :mod:`repro.parallel` configuration each job's pipeline
        runs with. Deliberately *not* part of the cache key: results
        are bit-identical at any worker count.
    journal:
        Optional :class:`~repro.service.journal.JobJournal`. When
        present, every state transition is journaled before it is
        acted on, and construction **replays** the journal: finished
        jobs come back servable, queued jobs re-enter the queue, and
        orphaned running jobs (their process died mid-run) are
        retried — or failed once they have burned ``max_retries`` —
        exactly as ``docs/resilience.md`` specifies.
    max_retries:
        How many times a job may be *re-enqueued* after a transient
        failure or an orphaning crash (0 = never; the first attempt
        is not a retry). Deterministic jobs make retries safe: a
        re-run computes byte-identical results.
    job_timeout:
        Default per-job wall-clock bound in seconds (overridable per
        submit). Enforcement is cooperative — a worker thread cannot
        be killed — so an overrunning job is marked ``failed`` by the
        reaper and its eventual result is discarded.
    job_ttl:
        Age in seconds after which *finished* jobs are pruned from
        memory by the reaper (the journal keeps their history).
    stale_after / assume_exclusive:
        Orphan detection at replay time. A ``running`` row is an
        orphan when its heartbeat is older than ``stale_after``
        seconds — or unconditionally under ``assume_exclusive``
        (the default: one service process owns the journal, so any
        ``running`` row at boot is from a dead process). Pass
        ``assume_exclusive=False`` when several processes share one
        journal.
    """

    def __init__(self, registry: DatasetRegistry, store: ArtifactStore,
                 workers: int = 1, n_jobs: int = 1,
                 backend: str = "serial",
                 journal: Optional[JobJournal] = None,
                 max_retries: int = 2,
                 job_timeout: Optional[float] = None,
                 job_ttl: Optional[float] = None,
                 heartbeat_interval: float = 5.0,
                 stale_after: float = DEFAULT_STALE_AFTER,
                 assume_exclusive: bool = True) -> None:
        executor = get_executor(backend, n_jobs)  # validates both
        if max_retries < 0:
            raise ServiceError(
                f"max_retries must be >= 0, got {max_retries}")
        if job_timeout is not None and not job_timeout > 0:
            raise ServiceError(
                f"job_timeout must be positive, got {job_timeout!r}")
        if job_ttl is not None and not job_ttl > 0:
            raise ServiceError(
                f"job_ttl must be positive, got {job_ttl!r}")
        self.registry = registry
        self.store = store
        self.n_jobs = executor.n_jobs
        self.backend = executor.backend
        self.max_retries = int(max_retries)
        self.job_timeout = job_timeout
        self.job_ttl = job_ttl
        self.heartbeat_interval = float(heartbeat_interval)
        self.stale_after = float(stale_after)
        self._journal = journal
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._counter = 0
        self._executed = 0
        self._cache_hits = 0
        self._retried = 0
        self._timed_out = 0
        self._expired = 0
        self._journal_errors = 0
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._workers: List[threading.Thread] = []
        self._stop = threading.Event()
        self._reaper: Optional[threading.Thread] = None
        if journal is not None:
            self._recover(assume_exclusive=assume_exclusive)
        for index in range(max(0, int(workers))):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"repro-job-worker-{index}",
                                      daemon=True)
            thread.start()
            self._workers.append(thread)
        if self._workers and (journal is not None
                              or job_timeout is not None
                              or job_ttl is not None):
            self._reaper = threading.Thread(
                target=self._reaper_loop, name="repro-job-reaper",
                daemon=True)
            self._reaper.start()

    def __reduce__(self):
        # Process-local by design: live worker threads, a queue and a
        # lock cannot cross a process boundary. Parallelism inside a
        # job goes through the pipeline's n_jobs/backend instead.
        raise TypeError(
            "JobManager is process-local and cannot be pickled")

    # ------------------------------------------------------------------
    # submission & validation
    # ------------------------------------------------------------------

    def submit(self, kind: str, params: Dict[str, object],
               timeout: Optional[float] = None) -> Job:
        """Validate and enqueue one job; returns it in state queued.

        ``timeout`` overrides the manager's default per-job deadline
        for this job only. It is deliberately a *submission* argument,
        not a job parameter: worker configuration never enters
        ``params``, which key the artifact cache.
        """
        if timeout is not None and not timeout > 0:
            raise ServiceError(
                f"job timeout must be positive, got {timeout!r}")
        if kind not in JOB_KINDS:
            message = (f"unknown job kind {kind!r}; "
                       f"valid kinds: {sorted(JOB_KINDS)}")
            close = difflib.get_close_matches(str(kind), JOB_KINDS,
                                              n=1, cutoff=0.6)
            if close:
                message += f" — did you mean {close[0]!r}?"
            raise ServiceError(message)
        params = dict(params or {})
        if kind == "experiment":
            dataset_name = None
            normalized = self._validate_experiment(params)
        else:
            dataset_name, normalized = self._validate_mine(kind, params)
        with self._lock:
            self._counter += 1
            job = Job(job_id=f"job-{self._counter:08d}", kind=kind,
                      dataset=dataset_name, params=normalized,
                      created_at=time.time(),
                      timeout=(timeout if timeout is not None
                               else self.job_timeout))
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
        # Journal *before* enqueueing: a crash in between replays the
        # job back into the queue instead of losing it.
        self._journal_record(job, "submitted")
        self._queue.put(job.job_id)
        return job

    def _validate_mine(self, kind: str, params: Dict[str, object],
                       ) -> Tuple[str, Dict[str, object]]:
        _reject_unknown(params, _allowed_params(kind), kind)
        if "dataset" not in params:
            raise ServiceError(
                f"a {kind!r} job needs a 'dataset' parameter "
                f"(registered name or fingerprint)")
        if "min_sup" not in params:
            raise ServiceError(f"a {kind!r} job needs 'min_sup'")
        entry = self.registry.get(str(params["dataset"]))
        normalized = dict(_MINE_DEFAULTS)
        for name in _MINE_DEFAULTS:
            if name in params and params[name] is not None:
                normalized[name] = params[name]
        min_sup = int(params["min_sup"])
        if min_sup < 1:
            raise ServiceError(f"min_sup must be >= 1, got {min_sup}")
        if min_sup > entry.dataset.n_records:
            raise ServiceError(
                f"min_sup={min_sup} exceeds dataset "
                f"{entry.name!r} size {entry.dataset.n_records}")
        normalized["min_sup"] = min_sup
        resolved = resolve_correction(str(normalized["correction"]))
        if kind == "holdout" and not resolved.spec.needs_holdout:
            raise ServiceError(
                f"a 'holdout' job needs a holdout correction "
                f"(e.g. 'HD_BC', 'RH_BH'); {normalized['correction']!r} "
                f"resolves to {resolved.name!r}, which scores the "
                f"full dataset — submit it as a 'mine' job")
        normalized["correction"] = _canonical_correction(
            str(normalized["correction"]))
        normalized["algorithm"] = resolve_miner(
            str(normalized["algorithm"])).name
        if normalized["holdout_split"] not in ("random", "structured"):
            raise ServiceError(
                f"holdout_split must be 'random' or 'structured', "
                f"got {normalized['holdout_split']!r}")
        if normalized["scorer"] not in ("fisher", "fisher-midp",
                                        "chi2"):
            raise ServiceError(
                f"unknown scorer {normalized['scorer']!r}")
        normalized["alpha"] = float(normalized["alpha"])
        normalized["min_conf"] = float(normalized["min_conf"])
        normalized["seed"] = int(normalized["seed"])
        normalized["n_permutations"] = int(normalized["n_permutations"])
        if normalized["max_length"] is not None:
            normalized["max_length"] = int(normalized["max_length"])
        if normalized["redundancy_delta"] is not None:
            normalized["redundancy_delta"] = float(
                normalized["redundancy_delta"])
        # The dataset is keyed by *content*, not by registered name.
        normalized["dataset"] = entry.name
        return entry.name, normalized

    def _validate_experiment(self, params: Dict[str, object],
                             ) -> Dict[str, object]:
        _reject_unknown(params, _allowed_params("experiment"),
                        "experiment")
        normalized = dict(_EXPERIMENT_DEFAULTS)
        for name in _EXPERIMENT_DEFAULTS:
            if name in params and params[name] is not None:
                normalized[name] = params[name]
        methods = normalized["methods"]
        if isinstance(methods, str):
            methods = tuple(part.strip() for part in methods.split(",")
                            if part.strip())
        normalized["methods"] = [
            _canonical_correction(str(m)) for m in methods]
        if not normalized["methods"]:
            raise ServiceError(
                "an 'experiment' job needs at least one method")
        normalized["algorithm"] = resolve_miner(
            str(normalized["algorithm"])).name
        for name in ("records", "attributes", "rules", "coverage",
                     "min_sup", "replicates", "n_permutations", "seed"):
            normalized[name] = int(normalized[name])
        for name in ("confidence", "alpha"):
            normalized[name] = float(normalized[name])
        return normalized

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job for ``job_id`` (did-you-mean on unknown ids)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            known = list(self._order)
        message = f"no job {job_id!r}; known jobs: {known[-10:]}"
        close = difflib.get_close_matches(str(job_id), known,
                                          n=1, cutoff=0.6)
        if close:
            message += f" — did you mean {close[0]!r}?"
        raise JobNotFound(message)

    def jobs(self) -> List[Job]:
        """All jobs in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def result(self, job_id: str) -> Dict[str, object]:
        """The payload of a done job; ServiceError otherwise."""
        job = self.get(job_id)
        with self._lock:
            if job.state != "done":
                raise ServiceError(
                    f"job {job_id} is {job.state!r}, not 'done'"
                    + (f": {job.error}" if job.error else ""))
            assert job.payload is not None
            return job.payload

    def result_csv(self, job_id: str) -> str:
        """The significant rules of a done mine/holdout job as CSV.

        Rendered from the payload's round-tripped
        :class:`~repro.corrections.base.CorrectionResult` with the
        same writer the CLI's ``--csv-out`` uses — cached or fresh,
        the bytes match an uncached run exactly.
        """
        job = self.get(job_id)
        payload = self.result(job_id)
        if job.kind == "experiment":
            raise ServiceError(
                f"job {job_id} is an experiment; only mine/holdout "
                f"results render as rule CSVs")
        entry = self.registry.get(str(payload["dataset"]["name"]))
        result = CorrectionResult.from_json(payload["result"])
        return render_rules_csv(result.significant, entry.dataset)

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (running/finished jobs cannot be)."""
        job = self.get(job_id)
        with self._lock:
            if job.state != "queued":
                raise ServiceError(
                    f"job {job_id} is {job.state!r}; only queued jobs "
                    f"can be cancelled")
            job.state = "cancelled"
            job.finished_at = time.time()
        self._journal_record(job, "cancelled")
        return job

    def stats(self) -> Dict[str, object]:
        """Execution counters plus a per-state census."""
        with self._lock:
            states = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            return {"executed": self._executed,
                    "cache_hits": self._cache_hits,
                    "jobs": dict(states),
                    "workers": len(self._workers),
                    "n_jobs": self.n_jobs,
                    "backend": self.backend,
                    "retried": self._retried,
                    "timed_out": self._timed_out,
                    "expired": self._expired,
                    "max_retries": self.max_retries,
                    "job_timeout": self.job_timeout,
                    "job_ttl": self.job_ttl,
                    "journal": (None if self._journal is None
                                else self._journal.path),
                    "journal_errors": self._journal_errors}

    def journal_stats(self) -> Optional[Dict[str, object]]:
        """The journal's health component, or ``None`` without one."""
        if self._journal is None:
            return None
        stats = self._journal.stats()
        stats["errors"] = self._journal_errors
        return stats

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def process_pending(self) -> int:
        """Drain the queue on the calling thread; returns jobs run.

        The synchronous path for ``workers=0`` deployments and for
        tests that want deterministic single-threaded scheduling.
        """
        processed = 0
        while True:
            try:
                job_id = self._queue.get_nowait()
            except queue.Empty:
                return processed
            if job_id is None:
                continue
            if self._process(job_id):
                processed += 1

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until ``job_id`` leaves the queued/running states."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.get(job_id)
            with self._lock:
                state = job.state
            if state not in ("queued", "running"):
                return job
            if not self._workers:
                self.process_pending()
                continue
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {state!r} after "
                    f"{timeout:g}s")
            time.sleep(0.02)

    def close(self) -> None:
        """Drain gracefully: stop workers after in-flight jobs finish.

        The ``None`` sentinels queue *behind* any already-queued job
        ids, so every job submitted before ``close`` still runs;
        workers exit when they reach a sentinel. The reaper stops
        last, after a final sweep, so shutdown-time timeouts are
        still journaled. Queued jobs that no worker reached stay
        ``queued`` in the journal and are re-enqueued on next boot.
        """
        self._stop.set()
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout=30.0)
        self._workers = []
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
            self._reaper = None
        self.reap()

    # ------------------------------------------------------------------
    # journal plumbing & crash recovery
    # ------------------------------------------------------------------

    def _journal_record(self, job: Job, event: str, detail: str = "",
                        strict: bool = True) -> None:
        """Persist one transition. ``strict`` propagates journal
        failures (submit-time: the client must know durability
        failed); non-strict callers — already inside a failure path —
        count the error and move on so one sick journal cannot wedge
        a worker thread."""
        if self._journal is None:
            return
        with self._lock:
            snapshot = job.snapshot()
        try:
            self._journal.record(snapshot, event, detail)
        except sqlite3.OperationalError:
            with self._lock:
                self._journal_errors += 1
            if strict:
                raise

    def _recover(self, assume_exclusive: bool) -> None:
        """Replay the journal into memory (constructor-time only).

        Finished jobs come back servable; ``queued`` jobs re-enter
        the queue; ``running`` rows are orphans of a dead process —
        detected by heartbeat staleness (or assumed, under an
        exclusive journal) — and are re-enqueued until their attempt
        budget (``max_retries`` + the first attempt) is spent, then
        failed loudly.
        """
        assert self._journal is not None
        now = time.time()
        budget = self.max_retries + 1
        for record in self._journal.load():
            job = Job(
                job_id=str(record["job_id"]),
                kind=str(record["kind"]),
                dataset=record["dataset"],
                params=dict(record["params"]),
                state=str(record["state"]),
                cached=bool(record["cached"]),
                error=record["error"],
                payload=record["payload"],
                created_at=float(record["created_at"]),
                started_at=record["started_at"],
                finished_at=record["finished_at"],
                attempts=int(record["attempts"] or 0),
                timeout=record["timeout"],
                heartbeat_at=record["heartbeat_at"],
                traceback=record["traceback"])
            with self._lock:
                self._jobs[job.job_id] = job
                self._order.append(job.job_id)
                tail = job.job_id.rsplit("-", 1)[-1]
                if tail.isdigit():
                    self._counter = max(self._counter, int(tail))
            if job.state == "queued":
                self._journal_record(job, "recovered",
                                     detail="re-enqueued at boot",
                                     strict=False)
                self._queue.put(job.job_id)
            elif job.state == "running":
                beat = job.heartbeat_at or job.started_at or 0.0
                stale = (now - float(beat)) >= self.stale_after
                if not (assume_exclusive or stale):
                    # Another live process owns this job; leave it.
                    continue
                if job.attempts < budget:
                    with self._lock:
                        job.state = "queued"
                        job.started_at = None
                        job.heartbeat_at = None
                    self._journal_record(
                        job, "recovered",
                        detail=f"orphaned running job re-enqueued "
                               f"(attempt {job.attempts} of {budget})",
                        strict=False)
                    self._queue.put(job.job_id)
                else:
                    with self._lock:
                        job.state = "failed"
                        job.error = (
                            f"orphaned: the owning process died "
                            f"mid-run and the job already used its "
                            f"{budget} attempts")
                        job.finished_at = now
                    self._journal_record(job, "failed",
                                         detail="orphan budget spent",
                                         strict=False)

    # ------------------------------------------------------------------
    # time-based transitions (heartbeats, timeouts, TTL)
    # ------------------------------------------------------------------

    def reap(self) -> Dict[str, int]:
        """One sweep of the time-based lifecycle rules.

        Heartbeats every running job (proving to a future replay that
        this process was alive), fails running jobs past their
        deadline (cooperatively: the computing thread keeps going but
        its result will be discarded), and prunes finished jobs older
        than the TTL from memory. Called periodically by the reaper
        thread, or explicitly in ``workers=0`` deployments/tests.
        """
        now = time.time()
        timed_out: List[Job] = []
        expired: List[Job] = []
        running: List[str] = []
        with self._lock:
            for job in self._jobs.values():
                if job.state == "running":
                    deadline = job.timeout
                    if (deadline is not None
                            and job.started_at is not None
                            and now - job.started_at >= deadline):
                        job.state = "failed"
                        job.error = (f"timed out after {deadline:g}s "
                                     f"(cooperative enforcement; the "
                                     f"worker's result will be "
                                     f"discarded)")
                        job.finished_at = now
                        self._timed_out += 1
                        timed_out.append(job)
                    else:
                        job.heartbeat_at = now
                        running.append(job.job_id)
                elif (self.job_ttl is not None
                        and job.state in ("done", "failed",
                                          "cancelled")
                        and job.finished_at is not None
                        and now - job.finished_at >= self.job_ttl):
                    expired.append(job)
            for job in expired:
                del self._jobs[job.job_id]
                self._order.remove(job.job_id)
                self._expired += 1
        for job in timed_out:
            self._journal_record(job, "timeout", strict=False)
        for job in expired:
            self._journal_record(job, "expired",
                                 detail="pruned from memory by TTL",
                                 strict=False)
        if running and self._journal is not None:
            try:
                self._journal.heartbeat(running, at=now)
            except sqlite3.OperationalError:
                with self._lock:
                    self._journal_errors += 1
        return {"timed_out": len(timed_out), "expired": len(expired),
                "heartbeats": len(running)}

    def _reaper_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.reap()
            except Exception:
                # The reaper must survive anything — a dead reaper
                # silently disables timeouts and heartbeats. The
                # failure is recorded, not swallowed.
                with self._lock:
                    self._journal_errors += 1

    # ------------------------------------------------------------------
    # worker execution
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            try:
                self._process(job_id)
            except Exception:
                # Loop-boundary catch-all: nothing a single job does —
                # including a journal that stopped accepting writes —
                # may take the worker thread down with it. The
                # traceback lands on the job record; the worker moves
                # to the next job.
                details = traceback_module.format_exc()
                with self._lock:
                    job = self._jobs.get(job_id)
                    if job is not None and job.state in ("queued",
                                                         "running"):
                        job.state = "failed"
                        job.error = ("internal worker error "
                                     "(see traceback)")
                        job.traceback = details
                        job.finished_at = time.time()
                if job is not None:
                    self._journal_record(job, "failed",
                                         detail="worker-loop catch-all",
                                         strict=False)

    def _process(self, job_id: str) -> bool:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != "queued":
                # cancelled (or already claimed) while queued
                return False
            job.state = "running"
            job.started_at = time.time()
            job.heartbeat_at = job.started_at
            job.attempts += 1
        self._journal_record(job, "started",
                             detail=f"attempt {job.attempts}",
                             strict=False)
        try:
            payload, cached = self._execute(job)
        except ReproError as exc:
            return self._finish_failed(job, exc, str(exc),
                                       traceback_module.format_exc())
        except sqlite3.OperationalError as exc:
            # Artifact-store writes exhausted their busy retry — a
            # classified (and, when it is lock contention, transient)
            # failure, eligible for re-enqueue.
            return self._finish_failed(job, exc,
                                       f"storage error: {exc}",
                                       traceback_module.format_exc())
        except Exception as exc:
            # Defensive catch-all (the satellite contract): a bug in a
            # correction plugin or a numpy edge must fail the *job*,
            # with its traceback recorded, not kill the worker.
            return self._finish_failed(
                job, exc, f"unexpected {type(exc).__name__}: {exc}",
                traceback_module.format_exc())
        discarded = False
        with self._lock:
            if job.state != "running":
                # Timed out or cancelled while computing: the
                # authoritative state is already final — drop the
                # late result on the floor.
                discarded = True
            else:
                job.state = "done"
                job.payload = payload
                job.cached = cached
                job.finished_at = time.time()
                if cached:
                    self._cache_hits += 1
                else:
                    self._executed += 1
        if discarded:
            self._journal_record(job, "discarded",
                                 detail="result arrived after the "
                                        "job left the running state",
                                 strict=False)
        else:
            self._journal_record(job, "done", strict=False)
        return True

    def _finish_failed(self, job: Job, exc: BaseException, error: str,
                       details: str) -> bool:
        """Fail or re-enqueue ``job`` after an execution error.

        Transient failures (:func:`repro.parallel.is_transient` — a
        killed worker that exhausted the executor's own retries, lock
        contention, a deadline) are re-enqueued while the job has
        attempt budget left; everything else fails now. Either way
        the last traceback stays on the record.
        """
        transient = is_transient(exc)
        with self._lock:
            if job.state != "running":
                # Already timed out/cancelled: keep the earlier state.
                return True
            if transient and job.attempts <= self.max_retries:
                job.state = "queued"
                job.started_at = None
                job.heartbeat_at = None
                job.traceback = details
                requeue = True
            else:
                job.state = "failed"
                job.error = error
                job.traceback = details
                job.finished_at = time.time()
                requeue = False
            if requeue:
                self._retried += 1
        if requeue:
            self._journal_record(
                job, "retried",
                detail=f"transient failure, attempt {job.attempts} "
                       f"of {self.max_retries + 1}: {error}",
                strict=False)
            self._queue.put(job.job_id)
        else:
            self._journal_record(job, "failed", detail=error,
                                 strict=False)
        return True

    def _execute(self, job: Job) -> Tuple[Dict[str, object], bool]:
        # Submission already checked the names; a journal replayed
        # from another build may carry parameters this one removed.
        _reject_unknown(job.params, _allowed_params(job.kind), job.kind)
        if job.kind == "experiment":
            return self._execute_experiment(job)
        return self._execute_mine(job)

    def _cache_slots(self, job: Job):
        """The four artifact-key slots for a job (fingerprint, miner,
        correction, params)."""
        params = dict(job.params)
        if job.kind == "experiment":
            miner = str(params.pop("algorithm"))
            correction = ",".join(params.pop("methods"))
            return (_EXPERIMENT_FINGERPRINT, miner, correction, params)
        entry = self.registry.get(str(params.pop("dataset")))
        miner = str(params.pop("algorithm"))
        correction = str(params.pop("correction"))
        return (entry.fingerprint, miner, correction, params)

    def _execute_mine(self, job: Job) -> Tuple[Dict[str, object], bool]:
        from ..core.pipeline import Pipeline

        fingerprint, miner, correction, key_params = \
            self._cache_slots(job)
        cached = self.store.get(fingerprint, miner, correction,
                                key_params)
        if cached is not None:
            return dict(cached.payload), True
        entry = self.registry.get(str(job.params["dataset"]))
        params = job.params
        pipeline = Pipeline(
            min_sup=int(params["min_sup"]), corrections=(correction,),
            algorithm=miner, alpha=float(params["alpha"]),
            min_conf=float(params["min_conf"]),
            max_length=params["max_length"],
            scorer=str(params["scorer"]), seed=int(params["seed"]),
            n_permutations=int(params["n_permutations"]),
            holdout_split=str(params["holdout_split"]),
            redundancy_delta=params["redundancy_delta"],
            n_jobs=self.n_jobs, backend=self.backend)
        outcome = pipeline.run(entry.dataset)
        result = outcome.results[correction]
        q_map: Optional[Dict[float, float]] = None
        if result.control == FDR and outcome.ruleset is not None:
            q_map = bh_q_values(outcome.ruleset.p_values(),
                                result.n_tests)
        rows = _payload_rows(result, entry.dataset, q_map)
        payload = {
            "kind": job.kind,
            "dataset": {"name": entry.name,
                        "fingerprint": fingerprint},
            "miner": miner,
            "correction": correction,
            "params": dict(key_params),
            "result": result.to_json(),
            "n_patterns_mined": outcome.state.n_patterns_mined,
            "n_rules_tested": result.n_tests,
            "n_significant": result.n_significant,
            "rules": rows,
        }
        self.store.put(fingerprint, miner, correction,
                       key_params, payload, rows)
        return payload, False

    def _execute_experiment(self, job: Job,
                            ) -> Tuple[Dict[str, object], bool]:
        from ..data.synthetic import GeneratorConfig
        from ..evaluation.runner import ExperimentRunner

        fingerprint, miner, correction, key_params = \
            self._cache_slots(job)
        cached = self.store.get(fingerprint, miner, correction,
                                key_params)
        if cached is not None:
            return dict(cached.payload), True
        params = job.params
        config = GeneratorConfig(
            n_records=int(params["records"]),
            n_attributes=int(params["attributes"]),
            n_rules=int(params["rules"]),
            min_coverage=int(params["coverage"]),
            max_coverage=int(params["coverage"]),
            min_confidence=float(params["confidence"]),
            max_confidence=float(params["confidence"]))
        runner = ExperimentRunner(
            methods=tuple(params["methods"]),
            alpha=float(params["alpha"]),
            n_permutations=int(params["n_permutations"]),
            algorithm=miner, n_jobs=self.n_jobs, backend=self.backend)
        outcome = runner.run(config, min_sup=int(params["min_sup"]),
                             n_replicates=int(params["replicates"]),
                             seed=int(params["seed"]))
        header = ["method", "n_datasets", "power", "fwer", "fdr",
                  "avg_false_positives", "avg_significant"]
        table = {}
        for method in params["methods"]:
            row = outcome.aggregates[method].row()
            table[method] = {name: value
                             for name, value in zip(header, row)}
        payload = {
            "kind": "experiment",
            "params": dict(key_params),
            "methods": list(params["methods"]),
            "algorithm": miner,
            "mean_tested": {key: float(value) for key, value
                            in sorted(outcome.mean_tested.items())},
            "table": table,
        }
        self.store.put(fingerprint, miner, correction,
                       key_params, payload)
        return payload, False


def _payload_rows(result: CorrectionResult, dataset: Dataset,
                  q_map: Optional[Dict[float, float]],
                  ) -> List[Dict[str, object]]:
    """JSON-ready rendered rows of the significant rules, p-ordered.

    These feed both the result payload and the artifact store's
    indexed ``artifact_rules``/``rule_items`` columns.
    """
    n = dataset.n_records
    rows: List[Dict[str, object]] = []
    for rule in sorted(result.significant, key=lambda r: r.p_value):
        n_c = dataset.class_support(rule.class_index)
        lift = rule.lift(n, n_c)
        q_value = q_map.get(float(rule.p_value)) if q_map else None
        rows.append({
            "rule": dataset.catalog.describe_pattern(rule.items),
            "class": dataset.class_names[rule.class_index],
            "length": rule.length,
            "coverage": rule.coverage,
            "support": rule.support,
            "confidence": float(rule.confidence),
            "p_value": float(rule.p_value),
            "q_value": (float(q_value)
                        if q_value is not None else None),
            "lift": float(lift) if math.isfinite(lift) else None,
            "items": sorted(str(dataset.catalog.item(i))
                            for i in rule.items),
        })
    return rows


def render_rules_csv(rules, dataset: Dataset) -> str:
    """Rules as CSV text, byte-identical to
    :func:`repro.evaluation.export.rules_to_csv`'s file output (same
    header, same row builder, same dialect)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(_BASE_HEADER)
    writer.writerows(rule_rows(rules, dataset))
    return buffer.getvalue()
