"""Batched packed scoring is byte-identical to everything else.

The PR-4 guarantee on top of the PR-2 one: the *batched* permutation
pass (packed uint64 kernel, block-sized scoring, 2-D p-value lookup)
produces byte-identical ``Perm_FWER`` / ``Perm_FWER_SD`` / ``Perm_FDR``
CSV output at any worker count, on every backend, with the native
kernel suite loaded or hidden, and for any block budget. The CSVs are
written through the real CLI so the comparison covers the full stack,
exactly like the ``parallel-determinism`` CI job.
"""

from __future__ import annotations

import filecmp

import numpy as np
import pytest

from repro import _native
from repro.cli import main
from repro.corrections import PermutationEngine
from repro.data import GeneratorConfig, generate, save_csv
from repro.mining import mine_class_rules

from .permutation_oracle import labellings, reference, rule_supports

CORRECTIONS = ("Perm_FWER", "Perm_FWER_SD", "Perm_FDR")


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("packed") / "dataset.csv"
    config = GeneratorConfig(
        n_records=400, n_attributes=10, n_rules=2,
        min_coverage=60, max_coverage=90,
        min_confidence=0.8, max_confidence=0.9)
    save_csv(generate(config, seed=31).dataset, str(path))
    return path


def _mine_csv(dataset_csv, out_path, correction, **options):
    argv = ["mine", str(dataset_csv), "--min-sup", "30",
            "--correction", correction, "--permutations", "60",
            "--seed", "0", "--csv-out", str(out_path)]
    for flag, value in options.items():
        argv += [f"--{flag}", str(value)]
    with open(out_path.with_suffix(".log"), "w") as log:
        assert main(argv, out=log) == 0
    return out_path


class TestCsvByteIdentity:
    @pytest.mark.parametrize("correction", CORRECTIONS)
    def test_jobs_and_backends_byte_identical(self, dataset_csv,
                                              tmp_path, correction):
        baseline = _mine_csv(dataset_csv, tmp_path / "base.csv",
                             correction, jobs=1, backend="serial")
        for jobs, backend in ((4, "threads"), (4, "processes")):
            other = _mine_csv(
                dataset_csv, tmp_path / f"{backend}.csv", correction,
                jobs=jobs, backend=backend)
            assert filecmp.cmp(baseline, other, shallow=False), \
                f"{correction} differs at --jobs {jobs} --backend " \
                f"{backend}"

    @pytest.mark.parametrize("correction", CORRECTIONS)
    def test_packed_matches_numpy_reference(self, dataset_csv,
                                            tmp_path, monkeypatch,
                                            correction):
        packed = _mine_csv(dataset_csv, tmp_path / "packed.csv",
                           correction)
        # Hide the native suite: mining and scoring fall back to the
        # Python walk and the numpy reductions.
        monkeypatch.setattr(_native, "_kernel", None)
        numpy_csv = _mine_csv(dataset_csv, tmp_path / "numpy.csv",
                              correction)
        assert filecmp.cmp(packed, numpy_csv, shallow=False), \
            f"{correction} differs without the native suite"


class TestEngineStatistics:
    @pytest.fixture(scope="class")
    def ruleset(self):
        config = GeneratorConfig(
            n_records=300, n_attributes=10, n_rules=1,
            min_coverage=60, max_coverage=60,
            min_confidence=0.9, max_confidence=0.9)
        return mine_class_rules(generate(config, seed=62).dataset,
                                min_sup=20)

    def _statistics(self, engine):
        return (engine.min_p_distribution(),
                engine.empirical_p_values(),
                engine.stepdown_adjusted_p_values())

    def test_block_sizing_never_changes_results(self, ruleset):
        reference = self._statistics(
            PermutationEngine(ruleset, 40, seed=9))
        # batch_bytes=1 degenerates to one permutation per block — the
        # maximally split schedule must still be bit-identical.
        for batch_bytes in (1, 10_000, 10**9):
            tiny = self._statistics(PermutationEngine(
                ruleset, 40, seed=9, batch_bytes=batch_bytes))
            assert (tiny[0] == reference[0]).all()
            assert tiny[1] == reference[1]
            assert tiny[2] == reference[2]

    def test_batched_matches_sequential_cache_mode(self, ruleset):
        """The scalar reference scores permutation-at-a-time through
        the buffer cache on bigint tidsets; the batched packed path
        must reproduce its statistics exactly."""
        engine = PermutationEngine(ruleset, 30, seed=5)
        engine.run()
        sequential = reference(ruleset, 30, seed=5)
        assert np.array_equal(engine._min_p, sequential[0])
        assert np.array_equal(engine._pooled_counts, sequential[1])
        assert np.array_equal(engine._stepdown_counts, sequential[2])

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_parallel_backend_matches_serial(self, ruleset, backend):
        reference = self._statistics(
            PermutationEngine(ruleset, 30, seed=5))
        parallel = self._statistics(PermutationEngine(
            ruleset, 30, seed=5, n_jobs=3, backend=backend))
        assert (parallel[0] == reference[0]).all()
        assert parallel[1] == reference[1]
        assert parallel[2] == reference[2]

    def test_multiclass_batched_supports_match_sequential(self):
        config = GeneratorConfig(
            n_records=240, n_attributes=8, n_rules=1, n_classes=3,
            min_coverage=40, max_coverage=60,
            min_confidence=0.8, max_confidence=0.9)
        ruleset = mine_class_rules(generate(config, seed=77).dataset,
                                   min_sup=15)
        engine = PermutationEngine(ruleset, 10, seed=2)
        labels = np.stack(labellings(ruleset, 5, seed=3))
        batched = engine._rule_supports_batch(labels)
        for row in range(labels.shape[0]):
            assert batched[row].tolist() == rule_supports(
                ruleset, labels[row])
