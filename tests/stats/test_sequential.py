"""Unit tests for the sequential Monte-Carlo p-value procedure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StatsError
from repro.stats import sequential_p_value, sequential_rule_p_value


def uniform_sampler(rng: np.random.Generator) -> float:
    return float(rng.random())


class TestSequentialPValue:
    def test_null_statistic_stops_early(self):
        """A clearly-null observation (middle of the distribution)
        should hit the exceedance budget long before n_max."""
        result = sequential_p_value(0.5, uniform_sampler, h=10,
                                    n_max=10000, seed=1)
        assert result.stopped_early
        assert result.draws < 200
        assert result.exceedances == 10
        assert result.p_value > 0.2

    def test_extreme_statistic_runs_to_n_max(self):
        result = sequential_p_value(1e-9, uniform_sampler, h=10,
                                    n_max=300, seed=2)
        assert not result.stopped_early
        assert result.draws == 300
        assert result.p_value == pytest.approx(1 / 301)

    def test_estimator_is_valid_under_the_null(self):
        """P(p <= u) <= u for uniform nulls: check at u = 0.1 over
        many replications (with slack for Monte-Carlo noise)."""
        master = np.random.default_rng(7)
        hits = 0
        reps = 400
        for _ in range(reps):
            observed = master.random()  # a true-null observation
            result = sequential_p_value(
                observed, uniform_sampler, h=5, n_max=80,
                rng=np.random.default_rng(master.integers(1 << 48)))
            if result.p_value <= 0.1:
                hits += 1
        assert hits / reps <= 0.15

    def test_early_stop_estimate_is_h_over_draws(self):
        result = sequential_p_value(0.9, uniform_sampler, h=7,
                                    n_max=1000, seed=3)
        assert result.stopped_early
        assert result.p_value == pytest.approx(7 / result.draws)

    def test_rng_and_seed_mutually_exclusive(self):
        with pytest.raises(StatsError):
            sequential_p_value(0.5, uniform_sampler,
                               rng=np.random.default_rng(0), seed=1)

    def test_parameter_validation(self):
        with pytest.raises(StatsError):
            sequential_p_value(0.5, uniform_sampler, h=0)
        with pytest.raises(StatsError):
            sequential_p_value(0.5, uniform_sampler, n_max=0)

    def test_deterministic_given_seed(self):
        a = sequential_p_value(0.3, uniform_sampler, seed=11)
        b = sequential_p_value(0.3, uniform_sampler, seed=11)
        assert a == b

    def test_summary_renders(self):
        result = sequential_p_value(0.5, uniform_sampler, seed=0)
        assert "draws" in result.summary()


class TestSequentialRulePValue:
    @pytest.fixture(scope="class")
    def ruleset(self):
        from repro.data import GeneratorConfig, generate
        from repro.mining import mine_class_rules
        config = GeneratorConfig(
            n_records=400, n_attributes=10, min_values=2, max_values=3,
            n_rules=1, min_length=2, max_length=2,
            min_coverage=80, max_coverage=80,
            min_confidence=0.9, max_confidence=0.9)
        dataset = generate(config, seed=19).dataset
        return mine_class_rules(dataset, 30)

    def test_significant_rule_resolves_small(self, ruleset):
        best = min(range(len(ruleset.rules)),
                   key=lambda i: ruleset.rules[i].p_value)
        result = sequential_rule_p_value(ruleset, best, n_max=150,
                                         seed=4)
        assert not result.stopped_early
        assert result.p_value <= 0.05

    def test_null_rule_stops_early(self, ruleset):
        worst = max(range(len(ruleset.rules)),
                    key=lambda i: ruleset.rules[i].p_value)
        result = sequential_rule_p_value(ruleset, worst, h=10,
                                         n_max=2000, seed=5)
        assert result.stopped_early
        assert result.draws < 500

    def test_agrees_with_engine_estimate(self, ruleset):
        """The sequential estimate for one rule should be in the same
        regime as the engine's pooled empirical p-value."""
        from repro.corrections import PermutationEngine
        best = min(range(len(ruleset.rules)),
                   key=lambda i: ruleset.rules[i].p_value)
        sequential = sequential_rule_p_value(ruleset, best, n_max=200,
                                             seed=6)
        engine = PermutationEngine(ruleset, n_permutations=200, seed=6)
        pooled = engine.empirical_p_values()[best]
        assert sequential.p_value <= 0.05
        assert pooled <= 0.05

    def test_index_validation(self, ruleset):
        with pytest.raises(StatsError):
            sequential_rule_p_value(ruleset, len(ruleset.rules))
