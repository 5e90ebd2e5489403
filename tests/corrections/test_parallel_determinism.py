"""Backend/worker-count determinism of the permutation engine.

The property the parallel-determinism CI job guards end-to-end: for a
fixed seed, every backend at every worker count returns an *identical*
``CorrectionResult`` — same threshold, same significant rules in the
same order, same diagnostics — because permutation ``t`` always draws
its labelling from the ``t``-th spawned seed and the shard merge is
order-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.corrections import PermutationEngine
from repro.data import GeneratorConfig, generate
from repro.mining import mine_class_rules

BACKENDS = ("serial", "threads", "processes")


@pytest.fixture(scope="module")
def ruleset():
    config = GeneratorConfig(
        n_records=300, n_attributes=10, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=60, max_coverage=60,
        min_confidence=0.9, max_confidence=0.9)
    return mine_class_rules(generate(config, seed=62).dataset,
                            min_sup=20)


def _result_fingerprint(result):
    return (result.method, result.threshold, result.n_significant,
            [(r.items, r.class_index, r.p_value)
             for r in result.significant])


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_jobs", (2, 4))
    def test_fwer_identical(self, ruleset, backend, n_jobs):
        serial = PermutationEngine(ruleset, 60, seed=3).fwer(0.05)
        parallel = PermutationEngine(ruleset, 60, seed=3,
                                     n_jobs=n_jobs,
                                     backend=backend).fwer(0.05)
        assert _result_fingerprint(parallel) == \
            _result_fingerprint(serial)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fdr_and_stepdown_identical(self, ruleset, backend):
        serial = PermutationEngine(ruleset, 40, seed=9)
        parallel = PermutationEngine(ruleset, 40, seed=9, n_jobs=4,
                                     backend=backend)
        assert _result_fingerprint(parallel.fdr(0.05)) == \
            _result_fingerprint(serial.fdr(0.05))
        assert _result_fingerprint(parallel.fwer_stepdown(0.05)) == \
            _result_fingerprint(serial.fwer_stepdown(0.05))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shared_statistics_bitwise_identical(self, ruleset, backend):
        serial = PermutationEngine(ruleset, 30, seed=5)
        parallel = PermutationEngine(ruleset, 30, seed=5, n_jobs=3,
                                     backend=backend)
        assert (parallel.min_p_distribution()
                == serial.min_p_distribution()).all()
        assert parallel.empirical_p_values() == \
            serial.empirical_p_values()
        assert parallel.stepdown_adjusted_p_values() == \
            serial.stepdown_adjusted_p_values()

    def test_worker_count_does_not_matter(self, ruleset):
        baseline = None
        for n_jobs in (1, 2, 4, 16):
            engine = PermutationEngine(ruleset, 50, seed=11,
                                       n_jobs=n_jobs,
                                       backend="processes")
            fingerprint = _result_fingerprint(engine.fwer(0.05))
            if baseline is None:
                baseline = fingerprint
            assert fingerprint == baseline


class TestSeedScheme:
    def test_prefix_property(self, ruleset):
        """The first N permutations of a longer run are the same
        permutations — seeds attach to indices, not to the count."""
        short = PermutationEngine(ruleset, 10, seed=13)
        long = PermutationEngine(ruleset, 30, seed=13)
        short_parts = short._score_shard(
            np.random.SeedSequence(13).spawn(10),
            np.argsort(short._observed_p, kind="stable"),
            np.sort(short._observed_p))
        long_parts = long._score_shard(
            np.random.SeedSequence(13).spawn(30)[:10],
            np.argsort(long._observed_p, kind="stable"),
            np.sort(long._observed_p))
        assert (short_parts[0] == long_parts[0]).all()

    def test_engine_reports_executor_configuration(self, ruleset):
        engine = PermutationEngine(ruleset, 10, seed=1, n_jobs=2,
                                   backend="threads")
        assert engine.n_jobs == 2
        assert engine.backend == "threads"
