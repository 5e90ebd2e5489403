"""Out-of-core paths ≡ in-RAM paths, end to end, byte for byte.

The acceptance criteria of the sharded-arena work, pinned through the
*real* entry points:

* **CLI memmap identity** — ``repro mine`` on an ``.arena`` input
  (memmap-backed, zero-copy to workers) emits CSVs byte-identical to
  the same mine on the ``.csv`` source, across miners × jobs 1/4 ×
  native kernels on/off;
* **sharded scoring identity** — a :class:`ShardedDataset` driven
  through the full :class:`Pipeline` (mining + permutation correction)
  exports the same CSV as the whole in-RAM dataset;
* **service identity** — an ``.arena`` source registered with the
  service serves the same result CSV as the CSV-loaded twin;
* **address-space cap** — a multi-segment arena whose data block is
  larger than the cap headroom mines to completion under a hard
  ``ulimit -v``, while materializing it in RAM fails (the
  ``outofcore_cap_smoke`` drill the CI job reuses).
"""

from __future__ import annotations

import filecmp
import multiprocessing
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro._native as _native
from repro.cli import main
from repro.core.pipeline import Pipeline
from repro.data import (
    Dataset,
    GeneratorConfig,
    ShardedDataset,
    generate,
    save_csv,
)
from repro.evaluation.export import rules_to_csv

MINERS = ("closed", "apriori", "fpgrowth", "representative")


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
        return True
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return False


@pytest.fixture(scope="module")
def data():
    config = GeneratorConfig(
        n_records=300, n_attributes=8, n_rules=1,
        min_coverage=60, max_coverage=60,
        min_confidence=0.9, max_confidence=0.9)
    return generate(config, seed=23).dataset


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("outofcore") / "dataset.csv"
    save_csv(data, str(path))
    return path


@pytest.fixture(scope="module")
def dataset_arena(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("outofcore") / "dataset.arena"
    data.save_arena(path, n_segments=4)
    return path


def _mine(input_path, out, log_path, *, algorithm="closed", jobs=1,
          backend="serial"):
    argv = ["mine", str(input_path), "--min-sup", "30",
            "--algorithm", algorithm, "--correction", "Perm_FWER",
            "--permutations", "40", "--seed", "0",
            "--jobs", str(jobs),
            "--backend", backend, "--csv-out", str(out)]
    with open(log_path, "w") as log:
        assert main(argv, out=log) == 0
    return out


class TestCliMemmapIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("algorithm", MINERS)
    def test_arena_input_matches_csv_input(self, dataset_csv,
                                           dataset_arena, tmp_path,
                                           algorithm, jobs):
        backend = "serial" if jobs == 1 else "processes"
        if backend == "processes" and not _fork_available():
            pytest.skip("fork start method unavailable")
        outputs = {}
        for tag, source in (("csv", dataset_csv),
                            ("arena", dataset_arena)):
            out = tmp_path / f"{algorithm}_{jobs}_{tag}.csv"
            _mine(source, out, out.with_suffix(".log"),
                  algorithm=algorithm, jobs=jobs, backend=backend)
            outputs[tag] = out
        assert filecmp.cmp(outputs["csv"], outputs["arena"],
                           shallow=False), \
            f"{algorithm}/jobs={jobs}: arena input diverged from CSV"


class TestNativeToggleIdentity:
    @pytest.mark.parametrize("native", ["0", "1"])
    @pytest.mark.parametrize("algorithm", ["closed", "fpgrowth"])
    def test_arena_identity_with_and_without_kernels(
            self, dataset_csv, dataset_arena, tmp_path, monkeypatch,
            algorithm, native):
        # load_suite memoises in the module global; reset so the env
        # toggle is re-read, and let monkeypatch restore both after.
        monkeypatch.setenv("REPRO_NATIVE", native)
        monkeypatch.setattr(_native, "_kernel", "unset")
        outputs = {}
        for tag, source in (("csv", dataset_csv),
                            ("arena", dataset_arena)):
            out = tmp_path / f"{algorithm}_n{native}_{tag}.csv"
            _mine(source, out, out.with_suffix(".log"),
                  algorithm=algorithm)
            outputs[tag] = out
        assert filecmp.cmp(outputs["csv"], outputs["arena"],
                           shallow=False), \
            f"{algorithm}/REPRO_NATIVE={native}: arena diverged"


class TestShardedPipelineIdentity:
    @pytest.mark.parametrize("algorithm", MINERS)
    def test_sharded_dataset_matches_whole(self, data, dataset_arena,
                                           tmp_path, algorithm):
        paths = []
        sharded = ShardedDataset.open(dataset_arena)
        try:
            for tag, dataset in (("whole", data), ("sharded", sharded)):
                pipe = Pipeline(min_sup=30, corrections=("Perm_FWER",),
                                algorithm=algorithm, n_permutations=40,
                                seed=0)
                result = pipe.run(dataset)
                out = tmp_path / f"{algorithm}_{tag}.csv"
                rules_to_csv(result["Perm_FWER"].significant, dataset,
                             str(out))
                paths.append(out)
        finally:
            sharded.close()
        assert filecmp.cmp(*paths, shallow=False), \
            f"{algorithm}: sharded pipeline diverged from whole"


class TestServiceArenaIdentity:
    def test_registered_arena_serves_identical_csv(self, dataset_csv,
                                                   dataset_arena):
        from repro.service.app import ServiceConfig, ServiceCore, \
            builtin_asgi_app
        from tests.service.conftest import make_client

        core = ServiceCore(ServiceConfig(
            workers=0,
            datasets=(("by-csv", str(dataset_csv)),
                      ("by-arena", str(dataset_arena)))))
        try:
            client = make_client(builtin_asgi_app(core))
            entries = {e["name"]: e for e in
                       client.get("/v1/datasets").json()["datasets"]}
            assert entries["by-arena"]["fingerprint"] == \
                entries["by-csv"]["fingerprint"]
            served = {}
            for name in ("by-csv", "by-arena"):
                response = client.post(
                    "/v1/jobs",
                    json_body={"kind": "mine",
                               "params": {"dataset": name,
                                          "min_sup": 30,
                                          "correction": "BH"}})
                assert response.status_code == 201, response.text
                job_id = response.json()["job_id"]
                core.jobs.process_pending()
                served[name] = client.get(
                    f"/v1/jobs/{job_id}/result.csv").text
            assert served["by-arena"] == served["by-csv"]
        finally:
            core.close()


class TestAddressSpaceCap:
    """The CI drill, in miniature: a 48 MiB arena data block mined to
    completion under a hard ``ulimit -v`` whose headroom over the
    probe baseline is 36 MiB — too small to ever hold the dataset."""

    N_RECORDS = 1 << 21          # 2_097_152 → 32_768 words
    N_ITEMS = 192                # data block: 192 · 32768 · 8 = 48 MiB
    N_SEGMENTS = 8
    MARGIN_KB = 36 * 1024

    @pytest.fixture(scope="class")
    def big_arena(self, tmp_path_factory):
        from . import outofcore_cap_smoke

        path = tmp_path_factory.mktemp("cap") / "big.arena"
        outofcore_cap_smoke.build(str(path), self.N_RECORDS,
                                  self.N_ITEMS, self.N_SEGMENTS)
        return path

    def _smoke(self, *phase_args, cap_kb=None):
        script = Path(__file__).with_name("outofcore_cap_smoke.py")
        inner = " ".join(shlex.quote(str(a)) for a in
                         [sys.executable, str(script), *phase_args])
        if cap_kb is not None:
            inner = f"ulimit -v {int(cap_kb)}; exec {inner}"
        env = {"PYTHONPATH": str(Path(__file__).parents[2] / "src")}
        return subprocess.run(["bash", "-c", inner], env=env,
                              capture_output=True, text=True,
                              timeout=300)

    def test_mining_completes_under_cap(self, big_arena):
        if shutil.which("bash") is None:
            pytest.skip("bash unavailable for ulimit")
        probe = self._smoke("probe", big_arena)
        if probe.returncode != 0:  # pragma: no cover - env-specific
            pytest.skip(f"probe failed: {probe.stderr[-400:]}")
        cap_kb = int(probe.stdout.split()[-1]) + self.MARGIN_KB
        assert self.MARGIN_KB * 1024 < big_arena.stat().st_size, \
            "cap headroom must be smaller than the dataset"
        run = self._smoke("run", big_arena, self.N_ITEMS,
                          cap_kb=cap_kb)
        assert run.returncode == 0, \
            f"capped run failed:\n{run.stdout}\n{run.stderr[-1500:]}"
        assert "CAP-OK" in run.stdout
        assert "RAM-REFUSED" in run.stdout
