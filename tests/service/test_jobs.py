"""JobManager: validation, lifecycle, caching, determinism."""

from __future__ import annotations

import threading

import pytest

from repro.core.pipeline import Pipeline
from repro.errors import (
    CorrectionError,
    DatasetNotRegistered,
    JobNotFound,
    ServiceError,
)
from repro.service.jobs import JOB_KINDS, JobManager, bh_q_values
from repro.service.registry import DatasetRegistry
from repro.service.store import ArtifactStore

from .conftest import small_dataset


@pytest.fixture
def manager():
    registry = DatasetRegistry()
    registry.register("small", small_dataset())
    handle = JobManager(registry, ArtifactStore(), workers=0)
    yield handle
    handle.store.close()


def _submit_mine(manager, **params):
    base = {"dataset": "small", "min_sup": 10, "correction": "BH"}
    base.update(params)
    return manager.submit("mine", base)


class TestValidation:
    def test_unknown_kind_did_you_mean(self, manager):
        with pytest.raises(ServiceError, match="did you mean 'mine'"):
            manager.submit("mien", {})

    def test_kinds_exported(self):
        assert set(JOB_KINDS) == {"mine", "holdout", "experiment"}

    def test_unknown_dataset_did_you_mean(self, manager):
        with pytest.raises(DatasetNotRegistered,
                           match="did you mean 'small'"):
            _submit_mine(manager, dataset="smal")

    def test_unknown_param_did_you_mean(self, manager):
        with pytest.raises(ServiceError,
                           match="did you mean 'correction'"):
            _submit_mine(manager, corection="BH")

    def test_removed_policy_param_rejected(self, manager):
        with pytest.raises(ServiceError,
                           match=r"unknown parameter\(s\) \['policy'\]"):
            _submit_mine(manager, policy="packed")

    def test_unknown_correction_propagates_registry_message(
            self, manager):
        with pytest.raises(CorrectionError, match="did you mean"):
            _submit_mine(manager, correction="bonferonni")

    def test_min_sup_bounds(self, manager):
        with pytest.raises(ServiceError, match="min_sup"):
            _submit_mine(manager, min_sup=0)
        with pytest.raises(ServiceError, match="exceeds"):
            _submit_mine(manager, min_sup=10_000)

    def test_holdout_kind_requires_holdout_correction(self, manager):
        with pytest.raises(ServiceError, match="holdout correction"):
            manager.submit("holdout", {"dataset": "small",
                                       "min_sup": 10,
                                       "correction": "BH"})

    def test_spellings_canonicalised(self, manager):
        job = _submit_mine(manager, correction="BH",
                           algorithm="fp-growth")
        assert job.params["correction"] == "bh"
        assert job.params["algorithm"] == "fpgrowth"

    def test_override_spelling_kept(self, manager):
        job = manager.submit("holdout", {"dataset": "small",
                                         "min_sup": 10,
                                         "correction": "HD_BC"})
        # "HD_BC" binds the structured split; canonicalising it would
        # silently drop the binding (the CLI keeps it too).
        assert job.params["correction"] == "HD_BC"


class TestLifecycle:
    def test_ids_sequential(self, manager):
        first = _submit_mine(manager)
        second = _submit_mine(manager, min_sup=11)
        assert (first.job_id, second.job_id) == ("job-00000001",
                                                 "job-00000002")

    def test_submit_run_result(self, manager):
        job = _submit_mine(manager)
        assert job.state == "queued"
        assert manager.process_pending() == 1
        assert job.state == "done" and job.error is None
        payload = manager.result(job.job_id)
        assert payload["correction"] == "bh"
        assert payload["n_significant"] == len(
            payload["result"]["significant"])
        assert payload["rules"][0]["q_value"] is not None

    def test_unknown_job_did_you_mean(self, manager):
        _submit_mine(manager)
        with pytest.raises(JobNotFound,
                           match="did you mean 'job-00000001'"):
            manager.get("job-00000010")

    def test_result_before_done_rejected(self, manager):
        job = _submit_mine(manager)
        with pytest.raises(ServiceError, match="queued"):
            manager.result(job.job_id)

    def test_cancel_queued_only(self, manager):
        job = _submit_mine(manager)
        manager.cancel(job.job_id)
        assert job.state == "cancelled"
        assert manager.process_pending() == 0  # skipped, not run
        with pytest.raises(ServiceError, match="only queued"):
            manager.cancel(job.job_id)

    def test_failure_recorded(self, manager):
        job = _submit_mine(manager)
        manager.registry.unregister("small")  # vanishes before run
        manager.process_pending()
        assert job.state == "failed"
        assert "small" in job.error
        with pytest.raises(ServiceError, match="failed"):
            manager.result(job.job_id)


class TestCaching:
    def test_repeat_served_from_store_identically(self, manager):
        first = _submit_mine(manager)
        second = _submit_mine(manager)
        manager.process_pending()
        assert (first.cached, second.cached) == (False, True)
        assert manager.result(first.job_id) == \
            manager.result(second.job_id)
        assert manager.stats()["executed"] == 1
        assert manager.stats()["cache_hits"] == 1

    def test_param_change_misses(self, manager):
        _submit_mine(manager)
        other = _submit_mine(manager, min_sup=11)
        manager.process_pending()
        assert other.cached is False
        assert manager.stats()["executed"] == 2

    def test_payload_matches_fresh_pipeline_run(self, manager):
        job = _submit_mine(manager)
        manager.process_pending()
        payload = manager.result(job.job_id)
        fresh = Pipeline(min_sup=10, corrections=("bh",),
                         seed=0).run(small_dataset())
        assert payload["result"] == fresh.results["bh"].to_json()

    def test_cached_csv_byte_identical(self, manager):
        first = _submit_mine(manager)
        second = _submit_mine(manager)
        manager.process_pending()
        assert manager.result_csv(first.job_id) == \
            manager.result_csv(second.job_id)

    def test_concurrent_submissions_deterministic(self):
        """Many threads hammering identical submits: every job lands
        done with the same payload, exactly one execution."""
        registry = DatasetRegistry()
        registry.register("small", small_dataset())
        manager = JobManager(registry, ArtifactStore(), workers=4)
        try:
            jobs = []
            lock = threading.Lock()

            def submit():
                job = manager.submit("mine", {"dataset": "small",
                                              "min_sup": 10,
                                              "correction": "BH"})
                with lock:
                    jobs.append(job)

            threads = [threading.Thread(target=submit)
                       for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            done = [manager.wait(job.job_id, timeout=120.0)
                    for job in jobs]
            assert all(job.state == "done" for job in done)
            payloads = [manager.result(job.job_id) for job in jobs]
            assert all(payload == payloads[0] for payload in payloads)
            # Races may execute the same artifact more than once
            # (INSERT OR IGNORE keeps one), but at least one ran and
            # the store holds exactly one artifact.
            assert manager.store.stats()["artifacts"] == 1
            assert manager.stats()["executed"] >= 1
        finally:
            manager.close()
            manager.store.close()


class TestExperimentJobs:
    def test_experiment_runs_and_caches(self, manager):
        params = {"records": 200, "attributes": 6, "replicates": 2,
                  "coverage": 40, "min_sup": 20,
                  "methods": "No correction,BC",
                  "n_permutations": 20}
        first = manager.submit("experiment", params)
        second = manager.submit("experiment", params)
        manager.process_pending()
        assert first.state == "done"
        assert second.cached is True
        payload = manager.result(first.job_id)
        # spellings canonicalise: "No correction" -> "none", "BC" ->
        # "bonferroni"
        assert payload["methods"] == ["none", "bonferroni"]
        assert set(payload["table"]) == {"none", "bonferroni"}
        row = payload["table"]["bonferroni"]
        assert row["n_datasets"] == 2
        assert 0.0 <= row["fwer"] <= 1.0

    def test_experiment_has_no_csv(self, manager):
        job = manager.submit("experiment",
                             {"records": 120, "attributes": 5,
                              "replicates": 1, "coverage": 30,
                              "min_sup": 15, "methods": "BC",
                              "n_permutations": 10})
        manager.process_pending()
        with pytest.raises(ServiceError, match="experiment"):
            manager.result_csv(job.job_id)


class TestBhQValues:
    def test_monotone_and_capped(self):
        mapping = bh_q_values([0.01, 0.02, 0.03, 0.9], 4)
        assert mapping[0.01] == pytest.approx(0.04)
        assert mapping[0.9] == pytest.approx(0.9)
        ordered = [mapping[p] for p in (0.01, 0.02, 0.03, 0.9)]
        assert ordered == sorted(ordered)
        assert all(q <= 1.0 for q in ordered)

    def test_n_tests_denominator(self):
        # 2 scored p-values but 10 tested hypotheses: q uses n=10.
        mapping = bh_q_values([0.01, 0.5], 10)
        assert mapping[0.01] == pytest.approx(0.1)

    def test_empty(self):
        assert bh_q_values([], 5) == {}
