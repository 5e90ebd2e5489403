"""Determinism pins for the random.Random -> numpy Generator migration.

The runner, the classifier's fold builder and the sequential tester
now draw from ``numpy.random.Generator``. These tests pin the
rendered output byte-for-byte across worker counts and backends, and
the seeded determinism of the fold builder and the sequential tester.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.classify.evaluate import stratified_folds
from repro.data.synthetic import GeneratorConfig
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentRunner
from repro.stats.sequential import sequential_p_value

METHODS = ("No correction", "BC", "BH")


@pytest.fixture(scope="module")
def config():
    return GeneratorConfig(
        n_records=300, n_attributes=8, n_rules=1,
        min_coverage=60, max_coverage=60,
        min_confidence=0.8, max_confidence=0.8)


def _render(result):
    rows = [result.aggregates[m].row() for m in METHODS]
    return format_table(
        ("method", "n", "power", "fwer", "fdr", "avg_fp", "avg_sig"),
        rows, title="experiment")


class TestRunnerByteIdentity:
    def test_serial_vs_threads_table_identical(self, config):
        serial = ExperimentRunner(
            methods=METHODS, n_permutations=20).run(
            config, min_sup=30, n_replicates=3, seed=7)
        threaded = ExperimentRunner(
            methods=METHODS, n_permutations=20, n_jobs=3,
            backend="threads").run(
            config, min_sup=30, n_replicates=3, seed=7)
        assert _render(serial) == _render(threaded)

    def test_rerun_identical(self, config):
        runner = ExperimentRunner(methods=METHODS, n_permutations=20)
        first = runner.run(config, min_sup=30, n_replicates=2, seed=3)
        second = runner.run(config, min_sup=30, n_replicates=2, seed=3)
        assert _render(first) == _render(second)
        assert [r.seed for r in first.replicates] == \
            [r.seed for r in second.replicates]

    def test_replicate_seeds_come_from_numpy_stream(self, config):
        result = ExperimentRunner(
            methods=METHODS, n_permutations=20).run(
            config, min_sup=30, n_replicates=3, seed=11)
        expected = [int(s) for s in
                    np.random.default_rng(11).integers(
                        0, 1 << 48, size=3)]
        assert [r.seed for r in result.replicates] == expected


class TestStratifiedFoldsMigration:
    LABELS = [0] * 10 + [1] * 6 + [2] * 4

    def test_generator_is_deterministic(self):
        a = stratified_folds(self.LABELS, 4, np.random.default_rng(5))
        b = stratified_folds(self.LABELS, 4, np.random.default_rng(5))
        assert a == b

    def test_default_rng_stable(self):
        assert stratified_folds(self.LABELS, 4) == \
            stratified_folds(self.LABELS, 4)

    def test_still_partitions_exactly(self):
        folds = stratified_folds(self.LABELS, 4,
                                 np.random.default_rng(1))
        flat = sorted(r for fold in folds for r in fold)
        assert flat == list(range(len(self.LABELS)))


class TestSequentialMigration:
    def test_seeded_runs_identical(self):
        sampler = lambda rng: float(rng.random())  # noqa: E731
        a = sequential_p_value(0.2, sampler, h=5, n_max=200, seed=9)
        b = sequential_p_value(0.2, sampler, h=5, n_max=200, seed=9)
        assert a == b

    def test_generator_accepted(self):
        sampler = lambda rng: float(rng.random())  # noqa: E731
        result = sequential_p_value(
            0.5, sampler, h=5, n_max=100,
            rng=np.random.default_rng(2))
        assert 0.0 < result.p_value <= 1.0

