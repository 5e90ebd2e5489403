"""Unit tests for the BY and LAMP extension corrections."""

from __future__ import annotations

import math

import pytest

from repro.corrections import (
    benjamini_hochberg,
    benjamini_yekutieli,
    bonferroni,
    harmonic_number,
    lamp_bonferroni,
)
from repro.data import GeneratorConfig, generate
from repro.mining import mine_class_rules
from repro.stats.fisher import min_attainable_p_value


@pytest.fixture(scope="module")
def random_ruleset():
    config = GeneratorConfig(n_records=300, n_attributes=10,
                             min_values=2, max_values=3, n_rules=0)
    ds = generate(config, seed=131).dataset
    return mine_class_rules(ds, min_sup=8)


@pytest.fixture(scope="module")
def planted_ruleset():
    config = GeneratorConfig(
        n_records=400, n_attributes=12, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=80, max_coverage=80,
        min_confidence=0.95, max_confidence=0.95)
    data = generate(config, seed=132)
    return data, mine_class_rules(data.dataset, min_sup=20)


class TestHarmonicNumber:
    def test_small_values(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(2) == pytest.approx(1.5)
        assert harmonic_number(4) == pytest.approx(25 / 12)

    def test_zero(self):
        assert harmonic_number(0) == 0.0

    def test_asymptotic_branch_close_to_exact(self):
        exact = sum(1.0 / i for i in range(1, 1_000_001))
        assert harmonic_number(1_000_000) == pytest.approx(exact,
                                                           rel=1e-9)


class TestBenjaminiYekutieli:
    def test_more_conservative_than_bh(self, random_ruleset):
        bh = benjamini_hochberg(random_ruleset, 0.05)
        by = benjamini_yekutieli(random_ruleset, 0.05)
        assert by.n_significant <= bh.n_significant
        assert by.threshold <= bh.threshold

    def test_still_detects_overwhelming_rule(self, planted_ruleset):
        data, ruleset = planted_ruleset
        by = benjamini_yekutieli(ruleset, 0.05)
        target = data.dataset.pattern_tidset(
            data.embedded_rules[0].item_ids)
        assert any(data.dataset.pattern_tidset(r.items) == target
                   for r in by.significant)

    def test_details_factor(self, random_ruleset):
        by = benjamini_yekutieli(random_ruleset, 0.05)
        expected = harmonic_number(random_ruleset.n_tests)
        assert by.details["harmonic_factor"] == pytest.approx(expected)

    def test_method_metadata(self, random_ruleset):
        by = benjamini_yekutieli(random_ruleset)
        assert by.method == "BY"
        assert by.control == "fdr"


class TestLampBonferroni:
    def test_never_less_powerful_than_bonferroni(self, random_ruleset):
        bc = bonferroni(random_ruleset, 0.05)
        lamp = lamp_bonferroni(random_ruleset, 0.05)
        if lamp.n_tests > 0:
            assert lamp.threshold >= bc.threshold
        bc_set = set(bc.significant)
        lamp_set = set(lamp.significant)
        assert bc_set <= lamp_set

    def test_testable_count_not_exceeding_total(self, random_ruleset):
        lamp = lamp_bonferroni(random_ruleset, 0.05)
        assert lamp.n_tests <= random_ruleset.n_tests
        assert lamp.details["n_total"] == random_ruleset.n_tests

    def test_prunes_untestable_low_coverage(self, random_ruleset):
        """At min_sup=8 on 300 records, plenty of rules cannot ever be
        significant — LAMP must find a strictly smaller denominator."""
        lamp = lamp_bonferroni(random_ruleset, 0.05)
        assert lamp.n_tests < random_ruleset.n_tests

    def test_significant_rules_testable(self, random_ruleset):
        from repro.stats import min_attainable_p_value
        lamp = lamp_bonferroni(random_ruleset, 0.05)
        ds = random_ruleset.dataset
        for rule in lamp.significant:
            floor = min_attainable_p_value(
                ds.n_records, ds.class_support(rule.class_index),
                rule.coverage)
            assert floor <= lamp.threshold
            assert rule.p_value <= lamp.threshold

    def test_fwer_still_controlled_on_nulls(self):
        false_hits = 0
        trials = 25
        for seed in range(trials):
            config = GeneratorConfig(n_records=150, n_attributes=6,
                                     min_values=2, max_values=2,
                                     n_rules=0)
            ds = generate(config, seed=3000 + seed).dataset
            rs = mine_class_rules(ds, min_sup=8)
            if lamp_bonferroni(rs, 0.05).n_significant:
                false_hits += 1
        assert false_hits / trials <= 0.16

    def test_detects_planted_rule(self, planted_ruleset):
        data, ruleset = planted_ruleset
        lamp = lamp_bonferroni(ruleset, 0.05)
        target = data.dataset.pattern_tidset(
            data.embedded_rules[0].item_ids)
        assert any(data.dataset.pattern_tidset(r.items) == target
                   for r in lamp.significant)

    def test_sigma_reported(self, random_ruleset):
        lamp = lamp_bonferroni(random_ruleset, 0.05)
        if lamp.details["n_testable"]:
            assert lamp.details["sigma"] >= random_ruleset.min_sup


def _lamp_loop(ruleset, alpha):
    """The rule-at-a-time LAMP the column form replaced:
    ``(n_testable, significant, sigma)``."""
    dataset = ruleset.dataset

    def floor(rule):
        return min_attainable_p_value(
            dataset.n_records, dataset.class_support(rule.class_index),
            rule.coverage)

    n_testable = 0
    for k, f in enumerate(sorted(floor(r) for r in ruleset.rules),
                          start=1):
        if f <= alpha / k:
            n_testable = k
    threshold = alpha / n_testable if n_testable else 0.0
    significant = [r for r in ruleset.rules
                   if floor(r) <= threshold and r.p_value <= threshold]
    testable = [r.coverage for r in ruleset.rules if floor(r) <= threshold]
    return n_testable, significant, min(testable, default=None)


@pytest.mark.parametrize("fixture", ("random_ruleset", "planted_ruleset"))
@pytest.mark.parametrize("alpha", (0.01, 0.05, 0.3))
def test_lamp_equals_the_rule_loop(request, fixture, alpha):
    ruleset = request.getfixturevalue(fixture)
    if fixture == "planted_ruleset":
        ruleset = ruleset[1]
    n_testable, significant, sigma = _lamp_loop(ruleset, alpha)
    result = lamp_bonferroni(ruleset, alpha)
    assert result.n_tests == n_testable
    assert result.significant == significant
    assert result.details["sigma"] == sigma


def test_empty_rule_sets_decide_nothing(random_ruleset):
    empty = random_ruleset.take([])
    by = benjamini_yekutieli(empty)
    assert (by.significant, by.threshold, by.details) == \
        ([], 0.0, {"harmonic_factor": 0.0})
    lamp = lamp_bonferroni(empty)
    assert (lamp.significant, lamp.threshold, lamp.n_tests) == ([], 0.0, 0)
    assert lamp.details == {"sigma": None, "n_testable": 0, "n_total": 0}
