"""Unit tests for Westfall–Young step-down minP permutation control."""

from __future__ import annotations

import pytest

from repro.corrections import (
    PermutationEngine,
    permutation_fwer_stepdown,
)
from repro.mining import mine_class_rules


@pytest.fixture(scope="module")
def embedded_ruleset():
    from repro.data import GeneratorConfig, generate
    config = GeneratorConfig(
        n_records=400, n_attributes=12, min_values=2, max_values=4,
        n_rules=1, min_length=2, max_length=3,
        min_coverage=80, max_coverage=80,
        min_confidence=0.9, max_confidence=0.9,
    )
    ds = generate(config, seed=11).dataset
    return mine_class_rules(ds, min_sup=30)


@pytest.fixture(scope="module")
def engine(embedded_ruleset):
    return PermutationEngine(embedded_ruleset, n_permutations=120, seed=3)


class TestStepdownAdjustedPValues:
    def test_length_and_range(self, engine):
        adjusted = engine.stepdown_adjusted_p_values()
        assert len(adjusted) == engine.n_tests
        assert all(0.0 <= p <= 1.0 for p in adjusted)

    def test_monotone_with_observed_ranking(self, engine):
        """Sorting rules by observed p must sort adjusted p too."""
        adjusted = engine.stepdown_adjusted_p_values()
        observed = engine.ruleset.p_values()
        paired = sorted(zip(observed, adjusted))
        adjusted_in_rank_order = [a for _o, a in paired]
        assert adjusted_in_rank_order == sorted(adjusted_in_rank_order)

    def test_adjusted_at_least_single_step_rate(self, engine):
        """Rank 1's adjusted value equals the single-step min-p rate."""
        adjusted = engine.stepdown_adjusted_p_values()
        observed = engine.ruleset.p_values()
        best = min(range(len(observed)), key=lambda i: observed[i])
        min_p = engine.min_p_distribution()
        single_step_rate = (min_p <= observed[best]).mean()
        assert adjusted[best] == pytest.approx(single_step_rate)


class TestStepdownControl:
    def test_rejects_superset_of_single_step(self, engine):
        single = engine.fwer(0.05)
        stepdown = engine.fwer_stepdown(0.05)
        assert stepdown.n_significant >= single.n_significant
        assert set(single.significant) \
            <= set(stepdown.significant)

    def test_detects_planted_signal(self, engine):
        result = engine.fwer_stepdown(0.05)
        assert result.n_significant >= 1

    def test_threshold_consistent_with_selection(self, engine):
        result = engine.fwer_stepdown(0.05)
        assert all(r.p_value <= result.threshold
                   for r in result.significant)
        assert result.details["n_rejected"] == result.n_significant

    def test_method_and_control_fields(self, engine):
        result = engine.fwer_stepdown(0.05)
        assert result.method == "Perm_FWER_SD"
        assert result.control == "fwer"

    def test_monotone_in_alpha(self, engine):
        loose = engine.fwer_stepdown(0.10)
        tight = engine.fwer_stepdown(0.01)
        assert tight.n_significant <= loose.n_significant

    def test_one_shot_wrapper(self, embedded_ruleset):
        result = permutation_fwer_stepdown(
            embedded_ruleset, 0.05, n_permutations=60, seed=9)
        assert result.method == "Perm_FWER_SD"
        assert result.n_tests == embedded_ruleset.n_tests


class TestStepdownOnNullData:
    def test_near_zero_rejections_on_random_data(self):
        from repro.data import GeneratorConfig, generate
        config = GeneratorConfig(n_records=200, n_attributes=8,
                                 min_values=2, max_values=3, n_rules=0)
        ds = generate(config, seed=21).dataset
        ruleset = mine_class_rules(ds, min_sup=20)
        engine = PermutationEngine(ruleset, n_permutations=80, seed=4)
        result = engine.fwer_stepdown(0.05)
        # On pure noise the step-down procedure should reject (almost)
        # nothing — a strict FWER guarantee at 5%.
        assert result.n_significant <= 1
