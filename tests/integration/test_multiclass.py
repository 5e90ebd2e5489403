"""End-to-end tests on datasets with more than two classes.

Section 3: with ``m > 2`` class labels, *m* rules are generated per
pattern (testing ``X => c`` is no longer equivalent to testing
``X => not-c``), and Section 5.1 reports that the experimental
findings carry over. These tests drive the full pipeline — mining,
multi-class hypothesis counting, every correction family — on 3-class
data, covering the per-class code paths the binary experiments never
touch (per-class p-value tables, the permutation engine's multi-class
support pass).
"""

from __future__ import annotations

import pytest

from repro import mine_significant_rules
from repro.corrections import PermutationEngine, bonferroni
from repro.data import GeneratorConfig, generate
from repro.mining import mine_class_rules

from ..corrections.permutation_oracle import labellings, rule_supports


@pytest.fixture(scope="module")
def three_class_data():
    config = GeneratorConfig(
        n_records=360, n_attributes=10, n_classes=3,
        min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=70, max_coverage=70,
        min_confidence=0.9, max_confidence=0.9)
    return generate(config, seed=33)


@pytest.fixture(scope="module")
def three_class_ruleset(three_class_data):
    return mine_class_rules(three_class_data.dataset, 25)


class TestMultiClassHypothesisCounting:
    def test_m_rules_per_pattern(self, three_class_ruleset):
        """Every non-root pattern contributes exactly 3 hypotheses."""
        ruleset = three_class_ruleset
        testable_patterns = sum(1 for p in ruleset.patterns if p.items)
        assert ruleset.n_tests == 3 * testable_patterns

    def test_per_class_supports_partition_coverage(self,
                                                   three_class_ruleset):
        by_pattern = {}
        for rule in three_class_ruleset.rules:
            by_pattern.setdefault(rule.pattern_id, []).append(rule)
        for rules in by_pattern.values():
            assert len(rules) == 3
            coverage = rules[0].coverage
            assert sum(r.support for r in rules) == coverage

    def test_class_margins_used_per_rule(self, three_class_data,
                                         three_class_ruleset):
        """Each rule's p-value is computed against its own class
        margin."""
        from repro.stats import fisher_two_tailed
        dataset = three_class_data.dataset
        for rule in three_class_ruleset.rules[:30]:
            expected = fisher_two_tailed(
                rule.support, dataset.n_records,
                dataset.class_support(rule.class_index), rule.coverage)
            assert rule.p_value == pytest.approx(expected, rel=1e-9)


class TestMultiClassCorrections:
    @pytest.mark.parametrize("correction", [
        "bonferroni", "holm", "hochberg", "bh", "storey",
        "permutation-fwer", "permutation-fwer-stepdown",
        "permutation-fdr", "holdout-fwer", "lamp",
    ])
    def test_pipeline_runs(self, three_class_data, correction):
        report = mine_significant_rules(
            three_class_data.dataset, 25, correction=correction,
            n_permutations=40, seed=9)
        assert report.n_tested >= 0
        assert all(0.0 <= r.p_value <= 1.0 for r in report.significant)

    def test_planted_rule_detected(self, three_class_data,
                                   three_class_ruleset):
        """The strong planted rule survives Bonferroni and points at
        the right class."""
        result = bonferroni(three_class_ruleset, 0.05)
        planted = three_class_data.embedded_rules[0]
        hits = [r for r in result.significant
                if r.class_index == planted.class_index
                and set(r.items) >= set(planted.item_ids)]
        assert hits

    def test_permutation_engine_multiclass_pass(self,
                                                three_class_ruleset):
        """The engine's per-class forest passes agree with direct
        re-scoring on the identity permutation, and with the scalar
        reference on shuffled ones."""
        import numpy as np
        engine = PermutationEngine(three_class_ruleset,
                                   n_permutations=10, seed=1)
        labels = np.array(three_class_ruleset.dataset.class_labels,
                          dtype=np.int64)
        supports = engine._rule_supports_batch(labels[None])[0]
        for rule, support in zip(three_class_ruleset.rules, supports):
            assert rule.support == int(support)
        shuffled = labellings(three_class_ruleset, 3, seed=1)
        batched = engine._rule_supports_batch(np.stack(shuffled))
        for row, labels in zip(batched, shuffled):
            assert row.tolist() == rule_supports(
                three_class_ruleset, labels)

    def test_fwer_controlled_on_random_multiclass(self):
        config = GeneratorConfig(
            n_records=240, n_attributes=8, n_classes=3,
            min_values=2, max_values=3, n_rules=0)
        false_positive_runs = 0
        for seed in range(6):
            dataset = generate(config, seed=seed).dataset
            report = mine_significant_rules(dataset, 20,
                                            correction="bonferroni")
            if report.significant:
                false_positive_runs += 1
        assert false_positive_runs <= 1
