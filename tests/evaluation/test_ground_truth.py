"""Unit tests for the Section 5.2 false-positive definition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import GeneratorConfig, generate
from repro.evaluation import (
    RuleStatus,
    adjusted_p_value,
    classify_rules,
    matches_embedded,
    restrict_embedded,
)
from repro.evaluation.ground_truth import classify_decisions
from repro.mining import mine_class_rules
from repro.stats import PValueTables


@pytest.fixture(scope="module")
def planted():
    config = GeneratorConfig(
        n_records=400, n_attributes=12, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=80, max_coverage=80,
        min_confidence=0.95, max_confidence=0.95)
    data = generate(config, seed=91)
    ruleset = mine_class_rules(data.dataset, min_sup=30)
    return data, ruleset


def _tables_for(rule, dataset):
    """The exact Fisher store holding the rule's key."""
    return PValueTables(
        dataset.n_records,
        [dataset.class_support(c) for c in range(dataset.n_classes)],
        [rule.class_index], [rule.coverage])


class TestMatching:
    def test_planted_rule_matches_itself(self, planted):
        data, ruleset = planted
        e = data.embedded_rules[0]
        target = data.dataset.pattern_tidset(e.item_ids)
        hits = [r for r in ruleset.rules
                if matches_embedded(r, e, data.dataset)]
        assert hits
        for rule in hits:
            assert data.dataset.pattern_tidset(rule.items) == target

    def test_wrong_class_does_not_match(self, planted):
        data, ruleset = planted
        e = data.embedded_rules[0]
        hit = next(r for r in ruleset.rules
                   if matches_embedded(r, e, data.dataset))
        import dataclasses
        flipped = dataclasses.replace(hit,
                                      class_index=1 - hit.class_index)
        assert not matches_embedded(flipped, e, data.dataset)


class TestAdjustedPValue:
    def test_disjoint_rule_returns_none(self, planted):
        data, ruleset = planted
        e = data.embedded_rules[0]
        target = data.dataset.pattern_tidset(e.item_ids)
        disjoint = [r for r in ruleset.rules
                    if not data.dataset.pattern_tidset(r.items).intersects(
                        target)]
        if not disjoint:
            pytest.skip("no disjoint rule at this seed")
        rule = disjoint[0]
        tables = _tables_for(rule, data.dataset)
        assert adjusted_p_value(rule, e, data.dataset, tables) is None

    def test_planted_rule_itself_adjusts_to_high_p(self, planted):
        """Discounting Rt from Rt itself must destroy its significance."""
        data, ruleset = planted
        e = data.embedded_rules[0]
        rule = next(r for r in ruleset.rules
                    if matches_embedded(r, e, data.dataset))
        tables = _tables_for(rule, data.dataset)
        adjusted = adjusted_p_value(rule, e, data.dataset, tables)
        assert adjusted is not None
        assert adjusted > 0.01
        assert adjusted > rule.p_value

    def test_independent_overlapping_rule_keeps_its_p(self, planted):
        """A rule overlapping Rt only slightly barely moves."""
        data, ruleset = planted
        e = data.embedded_rules[0]
        target = data.dataset.pattern_tidset(e.item_ids)
        from .. import bigint_oracle as bs
        candidates = [
            r for r in ruleset.rules
            if 0 < bs.popcount(
                data.dataset.pattern_tidset(r.items) & target) <= 3
            and r.coverage >= 50
        ]
        if not candidates:
            pytest.skip("no slightly-overlapping rule at this seed")
        rule = candidates[0]
        tables = _tables_for(rule, data.dataset)
        adjusted = adjusted_p_value(rule, e, data.dataset, tables)
        assert adjusted is not None
        # Discounting at most 3 records cannot change the p-value by
        # many orders of magnitude.
        import math
        if rule.p_value > 1e-290:
            assert abs(math.log10(max(adjusted, 1e-300))
                       - math.log10(rule.p_value)) < 3


class TestClassification:
    def test_no_embedded_rules_all_fp(self, planted):
        _, ruleset = planted
        significant = ruleset.rules[:5]
        classified = classify_rules(significant, [], ruleset.dataset,
                                    threshold=0.05)
        assert all(c.status == RuleStatus.FALSE_POSITIVE
                   for c in classified)

    def test_planted_rule_classified_tp(self, planted):
        data, ruleset = planted
        e = data.embedded_rules[0]
        significant = [r for r in ruleset.rules if r.p_value <= 1e-6]
        classified = classify_rules(significant, [e], data.dataset,
                                    threshold=1e-6)
        by_status = {}
        for c in classified:
            by_status.setdefault(c.status, []).append(c)
        assert RuleStatus.TRUE_POSITIVE in by_status

    def test_byproducts_present(self, planted):
        """Sub/super-patterns of Xt should be excused, not counted FP."""
        data, ruleset = planted
        e = data.embedded_rules[0]
        significant = [r for r in ruleset.rules if r.p_value <= 1e-6]
        classified = classify_rules(significant, [e], data.dataset,
                                    threshold=1e-6)
        statuses = {c.status for c in classified}
        if len(significant) > 1:
            assert RuleStatus.BYPRODUCT in statuses

    def test_threshold_zero_vacuous(self, planted):
        data, ruleset = planted
        classified = classify_rules([], data.embedded_rules,
                                    data.dataset, threshold=0.0)
        assert classified == []

    def test_negative_threshold_rejected(self, planted):
        data, ruleset = planted
        from repro.errors import EvaluationError
        with pytest.raises(EvaluationError):
            classify_rules([], data.embedded_rules, data.dataset,
                           threshold=-0.1)

    def test_lower_threshold_fewer_fp(self, planted):
        """A stricter excusal threshold can only move FP -> byproduct."""
        data, ruleset = planted
        e = data.embedded_rules[0]
        significant = [r for r in ruleset.rules if r.p_value <= 1e-4]
        loose = classify_rules(significant, [e], data.dataset,
                               threshold=1e-2)
        strict = classify_rules(significant, [e], data.dataset,
                                threshold=1e-8)
        n_fp_loose = sum(1 for c in loose
                         if c.status == RuleStatus.FALSE_POSITIVE)
        n_fp_strict = sum(1 for c in strict
                          if c.status == RuleStatus.FALSE_POSITIVE)
        assert n_fp_strict <= n_fp_loose


    def test_decisions_classified_together_match_one_by_one(
            self, planted):
        """Several decisions on one dataset share the judging: each
        one's verdicts equal a separate ``classify_rules`` call."""
        data, ruleset = planted
        e = data.embedded_rules[0]
        loose = [r for r in ruleset.rules if r.p_value <= 1e-2]
        strict = [r for r in ruleset.rules if r.p_value <= 1e-6]
        decisions = [(loose, 1e-2), (strict, 1e-8), ([], 0.0)]
        together = classify_decisions(decisions, [e], data.dataset)
        for (significant, threshold), verdicts in zip(decisions,
                                                      together):
            alone = classify_rules(significant, [e], data.dataset,
                                   threshold)
            assert [(c.rule, c.status, c.adjusted_p) for c in verdicts] \
                == [(c.rule, c.status, c.adjusted_p) for c in alone]

    def test_equal_rules_of_two_decisions_are_judged_once(
            self, planted, monkeypatch):
        """Views of two rule sets over the same rows (a cut of the
        mined set, say) are equal but distinct rule objects: one rule
        to judge."""
        from repro.evaluation import ground_truth

        data, ruleset = planted
        e = data.embedded_rules[0]
        copy = ruleset.take(np.arange(ruleset.n_tests))
        first = [r for r in ruleset.rules if r.p_value <= 1e-2]
        second = [r for r in copy.rules if r.p_value <= 1e-2]
        assert first == second
        assert all(a is not b for a, b in zip(first, second))
        calls = []
        raw = ground_truth.adjusted_p_value

        def counting(rule, *args, **kwargs):
            calls.append(rule)
            return raw(rule, *args, **kwargs)

        monkeypatch.setattr(ground_truth, "adjusted_p_value", counting)
        once = classify_decisions([(first, 1e-2)], [e], data.dataset)
        n_once = len(calls)
        assert n_once > 0
        calls.clear()
        twice = classify_decisions([(first, 1e-2), (second, 1e-2)], [e],
                                   data.dataset)
        assert len(calls) == n_once
        assert [(c.status, c.adjusted_p) for c in twice[1]] == \
            [(c.status, c.adjusted_p) for c in once[0]]


class TestRestrictEmbedded:
    def test_tidset_recomputed_on_subset(self, planted):
        data, _ = planted
        half = data.dataset.subset(range(200))
        restricted = restrict_embedded(data.embedded_rules, half)
        e = restricted[0]
        assert e.tidset == half.pattern_tidset(e.item_ids)
        assert e.item_ids == data.embedded_rules[0].item_ids

    def test_coverage_roughly_halved(self, planted):
        data, _ = planted
        half = data.dataset.subset(range(200))
        original = data.embedded_rules[0]
        restricted = restrict_embedded([original], half)[0]
        assert restricted.coverage <= original.coverage
