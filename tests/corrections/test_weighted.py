"""Unit tests for weighted Bonferroni / BH procedures."""

from __future__ import annotations

import math

import pytest

from repro.corrections import benjamini_hochberg, bonferroni
from repro.corrections import testability_weights as coverage_weights
from repro.corrections import weighted_bh, weighted_bonferroni
from repro.errors import CorrectionError
from repro.mining import mine_class_rules
from repro.stats.fisher import min_attainable_p_value


@pytest.fixture(scope="module")
def ruleset():
    from repro.data import GeneratorConfig, generate
    config = GeneratorConfig(
        n_records=400, n_attributes=10, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=80, max_coverage=80,
        min_confidence=0.85, max_confidence=0.85)
    dataset = generate(config, seed=41).dataset
    return mine_class_rules(dataset, 20)


class TestTestabilityWeights:
    def test_one_weight_per_rule(self, ruleset):
        weights = coverage_weights(ruleset)
        assert len(weights) == ruleset.n_tests
        assert all(w >= 0 for w in weights)

    def test_monotone_in_coverage(self, ruleset):
        """Within one class margin, higher coverage never gets less
        weight (below the margin's saturation point)."""
        weights = coverage_weights(ruleset)
        n_c = ruleset.dataset.class_support(0)
        pairs = sorted(
            (r.coverage, w)
            for r, w in zip(ruleset.rules, weights)
            if r.class_index == 0 and r.coverage <= n_c)
        for (cov_a, w_a), (cov_b, w_b) in zip(pairs, pairs[1:]):
            if cov_a < cov_b:
                assert w_a <= w_b + 1e-9


class TestWeightedBonferroni:
    def test_uniform_weights_reduce_to_bonferroni(self, ruleset):
        uniform = [1.0] * ruleset.n_tests
        weighted = weighted_bonferroni(ruleset, 0.05, weights=uniform)
        plain = bonferroni(ruleset, 0.05)
        assert weighted.n_significant == plain.n_significant

    def test_weight_scale_does_not_matter(self, ruleset):
        """Weights are normalised to mean 1, so scaling is a no-op."""
        base = coverage_weights(ruleset)
        scaled = [w * 37.0 for w in base]
        a = weighted_bonferroni(ruleset, 0.05, weights=base)
        b = weighted_bonferroni(ruleset, 0.05, weights=scaled)
        assert a.n_significant == b.n_significant

    def test_per_rule_levels_sum_to_alpha(self, ruleset):
        """The union bound: sum of per-rule levels == alpha."""
        from repro.corrections.weighted import _validate_weights
        weights = _validate_weights(coverage_weights(ruleset),
                                    ruleset.n_tests)
        total = sum(w * 0.05 / ruleset.n_tests for w in weights)
        assert total == pytest.approx(0.05)

    def test_zero_weight_rules_never_rejected(self, ruleset):
        weights = [0.0] * ruleset.n_tests
        weights[0] = 1.0
        result = weighted_bonferroni(ruleset, 0.05, weights=weights)
        rejected = set(result.significant)
        for rule in ruleset.rules[1:]:
            assert rule not in rejected

    def test_weight_validation(self, ruleset):
        with pytest.raises(CorrectionError):
            weighted_bonferroni(ruleset, weights=[1.0])
        with pytest.raises(CorrectionError):
            weighted_bonferroni(ruleset,
                                weights=[-1.0] * ruleset.n_tests)
        with pytest.raises(CorrectionError):
            weighted_bonferroni(ruleset,
                                weights=[0.0] * ruleset.n_tests)

    def test_method_fields(self, ruleset):
        result = weighted_bonferroni(ruleset)
        assert result.method == "wBC"
        assert result.control == "fwer"
        assert result.details["weights"] == "testability"


class TestWeightedBH:
    def test_uniform_weights_reduce_to_bh(self, ruleset):
        uniform = [1.0] * ruleset.n_tests
        weighted = weighted_bh(ruleset, 0.05, weights=uniform)
        plain = benjamini_hochberg(ruleset, 0.05)
        assert weighted.n_significant == plain.n_significant

    def test_detects_planted_signal(self, ruleset):
        result = weighted_bh(ruleset, 0.05)
        assert result.n_significant >= 1

    def test_near_zero_rejections_on_random_data(self):
        from repro.data import GeneratorConfig, generate
        config = GeneratorConfig(n_records=300, n_attributes=8,
                                 min_values=2, max_values=3, n_rules=0)
        dataset = generate(config, seed=61).dataset
        null_ruleset = mine_class_rules(dataset, 20)
        result = weighted_bh(null_ruleset, 0.05)
        assert result.n_significant <= 2

    def test_method_fields(self, ruleset):
        result = weighted_bh(ruleset)
        assert result.method == "wBH"
        assert result.control == "fdr"


def _weighted_loops(ruleset, alpha):
    """The rule-at-a-time weighted procedures the column forms
    replaced: ``(wBC significant, wBH significant, wBH cut)``."""
    dataset, n = ruleset.dataset, ruleset.n_tests
    weights = [max(-math.log10(max(min_attainable_p_value(
        dataset.n_records, dataset.class_support(r.class_index),
        r.coverage), 1e-300)), 0.0) for r in ruleset.rules]
    total = sum(weights)
    normalised = [w * n / total for w in weights]
    bc = [r for r, w in zip(ruleset.rules, normalised)
          if r.p_value <= w * alpha / n]
    reweighted = [(r.p_value / w) if w > 0 else math.inf
                  for r, w in zip(ruleset.rules, normalised)]
    cut = 0.0
    for i, q in enumerate(sorted(reweighted), start=1):
        if q <= i * alpha / n:
            cut = q
    bh = [r for r, q in zip(ruleset.rules, reweighted)
          if cut > 0.0 and q <= cut]
    return bc, bh, cut


@pytest.mark.parametrize("alpha", (0.001, 0.05, 0.3))
def test_column_forms_equal_the_rule_loops(ruleset, alpha):
    bc, bh, cut = _weighted_loops(ruleset, alpha)
    assert weighted_bonferroni(ruleset, alpha).significant == bc
    result = weighted_bh(ruleset, alpha)
    assert result.significant == bh
    assert result.details["reweighted_cut"] == cut
