"""Crash durability: the job journal, boot replay, timeouts, TTL."""

from __future__ import annotations

import json
import sqlite3
import time

import pytest

from repro.errors import ServiceError, TransientError
from repro.service.journal import JobJournal
from repro.service.jobs import JobManager
from repro.service.registry import DatasetRegistry
from repro.service.store import ArtifactStore
from repro.testing import faults

from .conftest import small_dataset


@pytest.fixture(autouse=True)
def _no_faults():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture
def registry():
    reg = DatasetRegistry()
    reg.register("small", small_dataset())
    return reg


def make_manager(registry, journal=None, **kwargs):
    kwargs.setdefault("workers", 0)
    return JobManager(registry, ArtifactStore(), journal=journal,
                      **kwargs)


def mine_params(**overrides):
    params = {"dataset": "small", "min_sup": 10,
              "n_permutations": 25}
    params.update(overrides)
    return params


class TestJournalRecords:
    def test_lifecycle_is_journaled(self, registry, tmp_path):
        journal = JobJournal(str(tmp_path / "jobs.sqlite"))
        manager = make_manager(registry, journal)
        job = manager.submit("mine", mine_params())
        manager.process_pending()
        events = [event["event"] for event in journal.events(job.job_id)]
        assert events == ["submitted", "started", "done"]
        snapshot = journal.load()[0]
        assert snapshot["state"] == "done"
        assert snapshot["payload"]["n_rules_tested"] > 0
        assert snapshot["attempts"] == 1
        manager.close()
        journal.close()

    def test_journal_survives_process_boundary(self, registry,
                                               tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        manager = make_manager(registry, journal)
        job = manager.submit("mine", mine_params())
        manager.process_pending()
        manager.close()
        journal.close()
        # a fresh journal handle (as a restarted process would open)
        reopened = JobJournal(path)
        assert reopened.load()[0]["job_id"] == job.job_id
        assert reopened.load()[0]["state"] == "done"
        reopened.close()

    def test_journal_not_picklable(self):
        import pickle

        journal = JobJournal()
        with pytest.raises(TypeError):
            pickle.dumps(journal)
        journal.close()


class TestRecovery:
    def test_queued_jobs_reenter_queue(self, registry, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        manager = make_manager(registry, journal)
        job = manager.submit("mine", mine_params())
        # crash before any worker ran it: close without draining
        manager.close()
        journal.close()

        journal2 = JobJournal(path)
        manager2 = make_manager(registry, journal2)
        recovered = manager2.get(job.job_id)
        assert recovered.state == "queued"
        assert manager2.process_pending() == 1
        assert manager2.get(job.job_id).state == "done"
        events = [e["event"] for e in journal2.events(job.job_id)]
        assert "recovered" in events
        manager2.close()
        journal2.close()

    def test_orphaned_running_job_retried(self, registry, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        manager = make_manager(registry, journal)
        job = manager.submit("mine", mine_params())
        # simulate a crash mid-run: record the running state, then
        # abandon the manager without finishing the job
        with manager._lock:
            job.state = "running"
            job.started_at = time.time()
            job.attempts = 1
        journal.record(job.snapshot(), "started")
        journal.close()

        journal2 = JobJournal(path)
        manager2 = make_manager(registry, journal2, max_retries=2)
        recovered = manager2.get(job.job_id)
        assert recovered.state == "queued"  # orphan, budget left
        manager2.process_pending()
        done = manager2.get(job.job_id)
        assert done.state == "done"
        assert done.attempts == 2
        manager2.close()
        journal2.close()

    def test_orphan_with_spent_budget_fails(self, registry, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        manager = make_manager(registry, journal, max_retries=1)
        job = manager.submit("mine", mine_params())
        with manager._lock:
            job.state = "running"
            job.started_at = time.time()
            job.attempts = 2  # the first try + the one retry: spent
        journal.record(job.snapshot(), "started")
        journal.close()

        journal2 = JobJournal(path)
        manager2 = make_manager(registry, journal2, max_retries=1)
        failed = manager2.get(job.job_id)
        assert failed.state == "failed"
        assert "orphaned" in failed.error
        manager2.close()
        journal2.close()

    def test_fresh_heartbeat_respected_when_shared(self, registry,
                                                   tmp_path):
        # assume_exclusive=False: a running row with a *fresh*
        # heartbeat belongs to a live sibling process — hands off.
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        manager = make_manager(registry, journal)
        job = manager.submit("mine", mine_params())
        with manager._lock:
            job.state = "running"
            job.started_at = time.time()
            job.heartbeat_at = time.time()
            job.attempts = 1
        journal.record(job.snapshot(), "started")
        journal.close()

        journal2 = JobJournal(path)
        manager2 = make_manager(registry, journal2,
                                assume_exclusive=False)
        assert manager2.get(job.job_id).state == "running"
        manager2.close()
        journal2.close()

    def test_done_jobs_stay_servable_after_restart(self, registry,
                                                   tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        manager = make_manager(registry, journal)
        job = manager.submit("mine", mine_params())
        manager.process_pending()
        payload = manager.result(job.job_id)
        csv_text = manager.result_csv(job.job_id)
        manager.close()
        journal.close()

        journal2 = JobJournal(path)
        manager2 = make_manager(registry, journal2)
        assert manager2.result(job.job_id) == payload
        assert manager2.result_csv(job.job_id) == csv_text
        manager2.close()
        journal2.close()

    def test_counter_resumes_past_recovered_ids(self, registry,
                                                tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        manager = make_manager(registry, journal)
        first = manager.submit("mine", mine_params())
        manager.close()
        journal.close()

        journal2 = JobJournal(path)
        manager2 = make_manager(registry, journal2)
        second = manager2.submit("mine", mine_params(seed=1))
        assert second.job_id != first.job_id
        manager2.close()
        journal2.close()

    def test_replayed_job_with_unknown_policy_fails_alone(self, registry,
                                                          tmp_path):
        # A journal written by a build that still had the forest
        # "policy" job parameter: that queued job fails with the
        # unknown-parameter error, its neighbours still run.
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        manager = make_manager(registry, journal)
        before = manager.submit("mine", mine_params(
            correction="Perm_FWER"))
        legacy = manager.submit("mine", mine_params(
            correction="Perm_FWER", seed=1))
        after = manager.submit("mine", mine_params(seed=2))
        manager.close()
        journal.close()
        with sqlite3.connect(path) as conn:
            (text,) = conn.execute(
                "SELECT params_json FROM jobs WHERE job_id = ?",
                (legacy.job_id,)).fetchone()
            params = json.loads(text)
            params["policy"] = "diffsets"
            conn.execute(
                "UPDATE jobs SET params_json = ? WHERE job_id = ?",
                (json.dumps(params), legacy.job_id))
        conn.close()

        journal2 = JobJournal(path)
        manager2 = make_manager(registry, journal2)
        assert manager2.get(legacy.job_id).params["policy"] == "diffsets"
        manager2.process_pending()
        failed = manager2.get(legacy.job_id)
        assert failed.state == "failed"
        assert "unknown parameter(s) ['policy'] for a 'mine' job" \
            in failed.error
        for job in (before, after):
            assert manager2.get(job.job_id).state == "done"
        manager2.close()
        journal2.close()


class TestTimeoutsAndTTL:
    def test_running_job_past_deadline_fails(self, registry):
        manager = make_manager(registry, job_timeout=0.01)
        job = manager.submit("mine", mine_params())
        with manager._lock:
            job.state = "running"
            job.started_at = time.time() - 10.0
        swept = manager.reap()
        assert swept["timed_out"] == 1
        assert manager.get(job.job_id).state == "failed"
        assert "timed out" in manager.get(job.job_id).error
        manager.close()

    def test_late_result_discarded_after_timeout(self, registry):
        manager = make_manager(registry, job_timeout=0.01)
        job = manager.submit("mine", mine_params())
        with manager._lock:
            job.state = "running"
            job.started_at = time.time() - 10.0
            job.attempts = 1
        manager.reap()
        # the worker thread finally finishes: its result must not
        # resurrect the failed job
        assert manager._process(job.job_id) is False
        assert manager.get(job.job_id).state == "failed"
        assert manager.get(job.job_id).payload is None
        manager.close()

    def test_submit_timeout_overrides_default(self, registry):
        manager = make_manager(registry, job_timeout=600.0)
        job = manager.submit("mine", mine_params(), timeout=0.25)
        assert job.timeout == 0.25
        manager.close()

    def test_submit_rejects_bad_timeout(self, registry):
        manager = make_manager(registry)
        with pytest.raises(ServiceError):
            manager.submit("mine", mine_params(), timeout=0.0)
        manager.close()

    def test_ttl_prunes_finished_jobs(self, registry):
        manager = make_manager(registry, job_ttl=0.01)
        job = manager.submit("mine", mine_params())
        manager.process_pending()
        with manager._lock:
            manager.get(job.job_id).finished_at = time.time() - 10.0
        swept = manager.reap()
        assert swept["expired"] == 1
        with pytest.raises(Exception):
            manager.get(job.job_id)
        assert manager.stats()["expired"] == 1
        manager.close()

    def test_reap_heartbeats_running_jobs(self, registry, tmp_path):
        journal = JobJournal(str(tmp_path / "jobs.sqlite"))
        manager = make_manager(registry, journal)
        job = manager.submit("mine", mine_params())
        with manager._lock:
            job.state = "running"
            job.started_at = time.time()
        journal.record(job.snapshot(), "started")
        swept = manager.reap()
        assert swept["heartbeats"] == 1
        beat = journal.load()[0]["heartbeat_at"]
        assert beat is not None and time.time() - beat < 5.0
        manager.close()
        journal.close()


class TestWorkerResilience:
    def test_unexpected_exception_recorded_with_traceback(
            self, registry, monkeypatch):
        manager = make_manager(registry)
        job = manager.submit("mine", mine_params())

        def explode(job):
            raise RuntimeError("plugin bug: boom")

        monkeypatch.setattr(manager, "_execute", explode)
        manager.process_pending()
        failed = manager.get(job.job_id)
        assert failed.state == "failed"
        assert "RuntimeError" in failed.error
        assert "plugin bug: boom" in failed.traceback
        assert "explode" in failed.traceback
        manager.close()

    def test_transient_failure_requeued_then_succeeds(
            self, registry, monkeypatch):
        manager = make_manager(registry, max_retries=2)
        job = manager.submit("mine", mine_params())
        real_execute = manager._execute
        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("injected transient failure")
            return real_execute(job)

        monkeypatch.setattr(manager, "_execute", flaky)
        manager.process_pending()
        done = manager.get(job.job_id)
        assert done.state == "done"
        assert done.attempts == 2
        assert manager.stats()["retried"] == 1
        manager.close()

    def test_transient_failures_exhaust_budget(self, registry,
                                               monkeypatch):
        manager = make_manager(registry, max_retries=1)
        job = manager.submit("mine", mine_params())

        def always_transient(job):
            raise TransientError("never recovers")

        monkeypatch.setattr(manager, "_execute", always_transient)
        manager.process_pending()
        failed = manager.get(job.job_id)
        assert failed.state == "failed"
        assert failed.attempts == 2  # first try + one retry
        assert "never recovers" in failed.error
        assert "always_transient" in failed.traceback
        manager.close()

    def test_worker_thread_survives_processing_errors(self, registry,
                                                      monkeypatch):
        manager = JobManager(registry, ArtifactStore(), workers=1)
        try:
            job = manager.submit("mine", mine_params())

            def explode(job):
                raise RuntimeError("boom")

            monkeypatch.setattr(manager, "_execute", explode)
            manager.wait(job.job_id, timeout=30.0)
            assert manager.get(job.job_id).state == "failed"
            # the worker is still alive and processes the next job
            monkeypatch.undo()
            second = manager.submit("mine", mine_params(seed=3))
            manager.wait(second.job_id, timeout=60.0)
            assert manager.get(second.job_id).state == "done"
        finally:
            manager.close()


class TestBusyRetry:
    def test_store_put_retries_through_injected_busy(self, registry):
        store = ArtifactStore()
        faults.arm("sqlite-busy:1.0:2")  # two injected collisions
        key = store.put("fp", "closed", "bh", {"a": 1},
                        {"payload": True})
        assert store.get_by_key(key) is not None
        stats = faults.fault_stats()["sqlite-busy"]
        assert stats["fires"] == 2
        faults.disarm()
        store.close()

    def test_store_put_exhausts_loudly(self, registry):
        store = ArtifactStore()
        faults.arm("sqlite-busy:1.0")  # unlimited: never recovers
        with pytest.raises(sqlite3.OperationalError,
                           match="database is locked"):
            store.put("fp", "closed", "bh", {"a": 1},
                      {"payload": True})
        faults.disarm()
        store.close()

    def test_journal_record_retries_through_injected_busy(
            self, tmp_path):
        journal = JobJournal(str(tmp_path / "jobs.sqlite"))
        snapshot = {"job_id": "job-00000001", "kind": "mine",
                    "dataset": "small", "params": {"min_sup": 5},
                    "state": "queued", "cached": False, "error": None,
                    "traceback": None, "payload": None, "attempts": 0,
                    "timeout": None, "created_at": 1.0,
                    "started_at": None, "finished_at": None,
                    "heartbeat_at": None}
        faults.arm("sqlite-busy:1.0:2")
        journal.record(snapshot, "submitted")
        faults.disarm()
        assert journal.load()[0]["state"] == "queued"
        journal.close()
