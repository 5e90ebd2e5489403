"""The Pipeline's ``algorithm=`` dimension: default equivalence,
every registered miner end-to-end with the correction catalogue, and
determinism across the parallel backends."""

from __future__ import annotations

import pytest

from repro import Miner, Pipeline, SignificantRuleMiner
from repro.data import make_german
from repro.errors import EvaluationError, MiningError
from repro.evaluation.runner import ExperimentRunner
from repro.mining import (
    available_miners,
    mine_class_rules,
    patternset_from_frequent,
    register_miner,
    unregister_miner,
)

N_PERMUTATIONS = 30
SEED = 5
MIN_SUP = 40

MINERS = [m.name for m in available_miners()]


@pytest.fixture(scope="module")
def german():
    return make_german(seed=4, n_records=400)


def rule_keys(rules):
    return sorted((tuple(sorted(rule.items)), rule.class_index,
                   rule.p_value) for rule in rules)


class TestDefaultAlgorithm:
    def test_default_is_closed_and_identical(self, german):
        implicit = Pipeline(min_sup=MIN_SUP, corrections=("bh",))
        explicit = Pipeline(min_sup=MIN_SUP, corrections=("bh",),
                            algorithm="closed")
        legacy = mine_class_rules(german, MIN_SUP)
        for pipe in (implicit, explicit):
            result = pipe.run(german)
            assert result.state.patterns.algorithm == "closed"
            assert rule_keys(result.ruleset.rules) == \
                rule_keys(legacy.rules)

    def test_algorithm_survives_config_roundtrip(self, german):
        pipe = Pipeline(min_sup=MIN_SUP, corrections=("bh",),
                        algorithm="fpgrowth")
        rebuilt = Pipeline(**pipe._config())
        assert rebuilt.algorithm == "fpgrowth"
        assert rule_keys(pipe.run(german).ruleset.rules) == \
            rule_keys(rebuilt.run(german).ruleset.rules)


class TestEveryRegisteredMiner:
    """The CI algorithm dimension: the pipeline equivalence suite runs
    for every miner in the registry, plugins included."""

    @pytest.mark.parametrize("algorithm", MINERS)
    def test_runs_with_direct_corrections(self, german, algorithm):
        pipe = Pipeline(min_sup=MIN_SUP,
                        corrections=("none", "bonferroni", "BH"),
                        algorithm=algorithm)
        result = pipe.run(german)
        assert result.state.patterns.algorithm == algorithm
        for correction_result in result.results.values():
            assert correction_result.n_tests == result.ruleset.n_tests
        assert result["BH"].n_significant >= \
            result["bonferroni"].n_significant

    @pytest.mark.parametrize("algorithm", MINERS)
    def test_runs_with_permutation_and_holdout(self, german, algorithm):
        pipe = Pipeline(
            min_sup=MIN_SUP,
            corrections=("permutation-fwer", "holdout-fdr"),
            algorithm=algorithm,
            n_permutations=N_PERMUTATIONS, seed=SEED)
        result = pipe.run(german)
        assert set(result.results) == {"permutation-fwer",
                                       "holdout-fdr"}
        # The holdout split re-mined with the same algorithm.
        run = result.context.shared["holdout:random:0.05"]
        assert run.algorithm == algorithm

    @pytest.mark.parametrize("algorithm", MINERS)
    def test_miner_equals_pipeline(self, german, algorithm):
        miner = SignificantRuleMiner(min_sup=MIN_SUP, correction="bh",
                                     algorithm=algorithm)
        pipe = Pipeline(min_sup=MIN_SUP, corrections=("bh",),
                        algorithm=algorithm)
        assert rule_keys(miner.mine(german).significant) == \
            rule_keys(pipe.run(german).report().significant)

    def test_all_frequent_never_fewer_hypotheses(self, german):
        def n_tested(algorithm):
            return Pipeline(min_sup=MIN_SUP, corrections=("bh",),
                            algorithm=algorithm,
                            ).run(german).ruleset.n_tests
        closed = n_tested("closed")
        assert n_tested("apriori") == n_tested("fpgrowth") >= closed
        assert n_tested("representative") <= closed


class TestDeterminismAcrossBackends:
    @pytest.mark.parametrize("algorithm", ["closed", "fpgrowth"])
    def test_jobs_do_not_change_results(self, german, algorithm):
        def run(n_jobs, backend):
            pipe = Pipeline(
                min_sup=MIN_SUP,
                corrections=("permutation-fwer", "BH"),
                algorithm=algorithm,
                n_permutations=N_PERMUTATIONS, seed=SEED,
                n_jobs=n_jobs, backend=backend)
            result = pipe.run(german)
            return {method: rule_keys(res.significant)
                    for method, res in result.results.items()}

        reference = run(1, "serial")
        assert run(4, "threads") == reference
        assert run(4, "processes") == reference


class TestLateRegistration:
    def test_algorithm_resolved_at_mine_stage_time(self, german):
        # The pipeline stores the name; a miner registered *after*
        # construction must still resolve at run time.
        pipe = Pipeline(min_sup=MIN_SUP, corrections=("bh",),
                        algorithm="late-miner")
        with pytest.raises(MiningError, match="late-miner"):
            pipe.run(german)

        def mine_fn(item_tidsets, n_records, min_sup, max_length,
                    **opts):
            from repro.mining import mine_fpgrowth
            return patternset_from_frequent(
                mine_fpgrowth(item_tidsets, n_records, min_sup,
                              max_length=max_length),
                n_records, min_sup)

        register_miner(Miner(name="late-miner", mine_fn=mine_fn,
                             capabilities=("all-frequent",)))
        try:
            result = pipe.run(german)
            assert result.state.patterns.algorithm == "late-miner"
        finally:
            unregister_miner("late-miner")

    def test_miner_options_reach_the_miner(self, german):
        tight = Pipeline(min_sup=MIN_SUP, corrections=("bh",),
                         algorithm="representative",
                         miner_options={"delta": 0.5}).run(german)
        default = Pipeline(min_sup=MIN_SUP, corrections=("bh",),
                           algorithm="representative").run(german)
        assert tight.ruleset.n_tests <= default.ruleset.n_tests


class TestOversizedMinSupStillRejected:
    """The registry path must keep the eager min_sup sanity checks the
    old mine_class_rules call sites provided."""

    def test_holdout_only_pipeline_rejects_oversized_min_sup(self,
                                                             german):
        from repro.errors import ReproError

        pipe = Pipeline(min_sup=10 ** 6,
                        corrections=("holdout-fwer",), seed=SEED)
        with pytest.raises(ReproError, match="exceed"):
            pipe.run(german)

    def test_runner_rejects_oversized_min_sup(self):
        from repro.data import GeneratorConfig

        config = GeneratorConfig(
            n_records=100, n_attributes=6, n_rules=0)
        runner = ExperimentRunner(methods=("BH",), n_permutations=5)
        with pytest.raises(MiningError, match="exceeds dataset size"):
            runner.run(config, min_sup=10 ** 6, n_replicates=1, seed=0)


class TestExperimentRunnerAlgorithm:
    def test_unknown_algorithm_fails_fast(self):
        with pytest.raises(EvaluationError, match="did you mean"):
            ExperimentRunner(methods=("BH",), algorithm="fpgorwth")

    def test_ablation_grid_counts_more_hypotheses(self):
        from repro.data import GeneratorConfig

        config = GeneratorConfig(
            n_records=300, n_attributes=8, n_rules=1,
            min_coverage=60, max_coverage=60,
            min_confidence=0.9, max_confidence=0.9)

        def mean_tested(algorithm):
            runner = ExperimentRunner(
                methods=("BC", "BH"), n_permutations=10,
                algorithm=algorithm)
            result = runner.run(config, min_sup=40, n_replicates=2,
                                seed=0)
            return result.mean_tested["whole dataset"]

        assert mean_tested("fpgrowth") >= mean_tested("closed")

    def test_process_workers_honor_the_algorithm(self):
        from repro.data import GeneratorConfig

        config = GeneratorConfig(
            n_records=300, n_attributes=8, n_rules=1,
            min_coverage=60, max_coverage=60,
            min_confidence=0.9, max_confidence=0.9)

        def aggregates(n_jobs, backend):
            runner = ExperimentRunner(
                methods=("BC", "BH"), n_permutations=10,
                algorithm="fpgrowth", n_jobs=n_jobs, backend=backend)
            result = runner.run(config, min_sup=40, n_replicates=3,
                                seed=0)
            return {m: result.aggregates[m].row()
                    for m in runner.methods}

        assert aggregates(1, "serial") == aggregates(2, "processes")
