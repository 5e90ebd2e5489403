"""Unit tests for general association rules ``X => Y``."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.errors import MiningError
from repro.mining import (
    mine_apriori,
    mine_general_rules,
    rules_from_patterns,
)
from repro.stats import fisher_two_tailed
from repro.tidvector import TidVector

from .. import bigint_oracle as bs


def tidsets_from_transactions(transactions, n_items):
    tidsets = [0] * n_items
    for record, items in enumerate(transactions):
        for item in items:
            tidsets[item] |= 1 << record
    return bs.to_tidvectors(tidsets, len(transactions))


@pytest.fixture
def basket():
    """A small market-basket database with one strong pairwise
    association (0 and 1 co-occur) and one independent item (3)."""
    transactions = ([[0, 1], [0, 1, 2], [0, 1, 3], [2, 3],
                     [0, 1], [2], [0, 1, 2], [3]] * 20)
    return tidsets_from_transactions(transactions, 4), len(transactions)


class TestMineGeneralRules:
    def test_both_directions_emitted(self, basket):
        tidsets, n = basket
        ruleset = mine_general_rules(tidsets, n, min_sup=20)
        pairs = {(tuple(sorted(r.antecedent)), tuple(sorted(r.consequent)))
                 for r in ruleset.rules}
        assert ((0,), (1,)) in pairs
        assert ((1,), (0,)) in pairs

    def test_supports_consistent(self, basket):
        tidsets, n = basket
        for rule in mine_general_rules(tidsets, n, min_sup=20).rules:
            lhs_tids = bs.universe(n)
            for item in rule.antecedent:
                lhs_tids &= tidsets[item].to_bigint()
            both_tids = lhs_tids
            for item in rule.consequent:
                both_tids &= tidsets[item].to_bigint()
            assert rule.coverage == bs.popcount(lhs_tids)
            assert rule.support == bs.popcount(both_tids)
            assert rule.confidence == pytest.approx(
                rule.support / rule.coverage)

    def test_pvalues_match_scipy(self, basket):
        tidsets, n = basket
        ruleset = mine_general_rules(tidsets, n, min_sup=20)
        for rule in ruleset.rules[:20]:
            a = rule.support
            b = rule.coverage - a
            c = rule.consequent_support - a
            d = n - rule.coverage - c
            _odds, expected = scipy_stats.fisher_exact(
                [[a, b], [c, d]], alternative="two-sided")
            assert rule.p_value == pytest.approx(expected, rel=1e-6)

    @staticmethod
    def _dense_tidsets(n):
        rng = np.random.default_rng(5)
        items = rng.random((n, 6)) < [0.3, 0.3, 0.2, 0.5, 0.4, 0.25]
        items[:, 1] |= items[:, 0] & (rng.random(n) < 0.8)
        return [TidVector.from_indices(np.flatnonzero(column), n)
                for column in items.T]

    @pytest.mark.parametrize("max_consequent", (1, 2, 3))
    @pytest.mark.parametrize("n", (200, 3000))
    def test_pvalues_equal_the_scalar_test_bit_for_bit(
            self, n, max_consequent):
        """All rules are scored from one table store; each p-value is
        the one fisher_two_tailed gives, on the ratio-recurrence and
        the log-space table paths alike (dense items; multi-item
        consequents add margins)."""
        ruleset = mine_general_rules(self._dense_tidsets(n), n,
                                     min_sup=n // 60,
                                     max_consequent=max_consequent)
        assert ruleset.n_tests > 50
        for rule in ruleset.rules:
            assert rule.p_value == fisher_two_tailed(
                rule.support, n, rule.consequent_support, rule.coverage)

    def test_min_conf_keeps_the_pvalues_of_surviving_rules(self):
        """Filtering by confidence drops rules, and with them margins,
        before scoring; the rules that stay keep their p-values."""
        n = 3000
        tidsets = self._dense_tidsets(n)
        everything = mine_general_rules(tidsets, n, min_sup=50,
                                        max_consequent=2)
        confident = mine_general_rules(tidsets, n, min_sup=50,
                                       min_conf=0.6, max_consequent=2)
        assert 0 < confident.n_tests < everything.n_tests
        p_value_of = {(r.antecedent, r.consequent): r.p_value
                      for r in everything.rules}
        for rule in confident.rules:
            assert rule.p_value == \
                p_value_of[(rule.antecedent, rule.consequent)]

    def test_no_rules_scores_nothing(self, basket):
        tidsets, n = basket
        assert mine_general_rules(tidsets, n, min_sup=n).rules == []

    def test_symmetric_pair_has_same_pvalue(self, basket):
        """Fisher's test is symmetric in the margins: X=>Y and Y=>X
        score identically (only confidence differs)."""
        tidsets, n = basket
        ruleset = mine_general_rules(tidsets, n, min_sup=20)
        by_pair = {}
        for rule in ruleset.rules:
            key = frozenset((rule.antecedent, rule.consequent))
            by_pair.setdefault(key, []).append(rule.p_value)
        for p_values in by_pair.values():
            if len(p_values) == 2:
                assert p_values[0] == pytest.approx(p_values[1])

    def test_min_conf_filters(self, basket):
        tidsets, n = basket
        loose = mine_general_rules(tidsets, n, min_sup=20)
        strict = mine_general_rules(tidsets, n, min_sup=20,
                                    min_conf=0.8)
        assert strict.n_tests <= loose.n_tests
        assert all(r.confidence >= 0.8 for r in strict.rules)

    def test_max_consequent_grows_rule_count(self, basket):
        tidsets, n = basket
        singles = mine_general_rules(tidsets, n, min_sup=20,
                                     max_consequent=1)
        pairs = mine_general_rules(tidsets, n, min_sup=20,
                                   max_consequent=2)
        assert pairs.n_tests >= singles.n_tests
        assert all(len(r.consequent) == 1 for r in singles.rules)

    def test_associated_pair_most_significant(self, basket):
        tidsets, n = basket
        ruleset = mine_general_rules(tidsets, n, min_sup=20)
        best = ruleset.sorted_by_p()[0]
        assert best.items == frozenset({0, 1})

    def test_rules_from_premined_patterns(self, basket):
        tidsets, n = basket
        patterns = mine_apriori(tidsets, n, 20)
        via_patterns = rules_from_patterns(patterns, n, 20)
        direct = mine_general_rules(tidsets, n, min_sup=20)
        assert via_patterns.n_tests == direct.n_tests

    def test_parameter_validation(self, basket):
        tidsets, n = basket
        with pytest.raises(MiningError):
            mine_general_rules(tidsets, n, min_sup=0)
        with pytest.raises(MiningError):
            mine_general_rules(tidsets, n, min_sup=5, min_conf=1.5)
        with pytest.raises(MiningError):
            mine_general_rules(tidsets, n, min_sup=5, max_consequent=0)

    def test_describe_with_names(self, basket):
        tidsets, n = basket
        ruleset = mine_general_rules(tidsets, n, min_sup=20)
        text = ruleset.describe(limit=3,
                                item_names=["a", "b", "c", "d"])
        assert "=>" in text
        assert "{a}" in text or "{b}" in text


class TestCorrectionsOnGeneralRules:
    """The direct-adjustment catalogue applies to general rules via
    duck typing."""

    def test_direct_catalogue_runs(self, basket):
        from repro.corrections import (
            benjamini_hochberg,
            bonferroni,
            hochberg,
            holm,
            no_correction,
            sidak,
            storey_fdr,
            two_stage_bh,
        )
        tidsets, n = basket
        ruleset = mine_general_rules(tidsets, n, min_sup=20)
        for procedure in (no_correction, bonferroni, holm, hochberg,
                          sidak, benjamini_hochberg, storey_fdr,
                          two_stage_bh):
            result = procedure(ruleset, 0.05)
            assert result.n_tests == ruleset.n_tests
            assert all(r.p_value <= result.threshold
                       for r in result.significant)

    def test_independent_item_rules_not_significant(self, basket):
        """Rules involving the independent item 3 must not survive
        Bonferroni, while the planted 0<->1 association must."""
        from repro.corrections import bonferroni
        tidsets, n = basket
        ruleset = mine_general_rules(tidsets, n, min_sup=20)
        result = bonferroni(ruleset, 0.05)
        significant_items = [r.items for r in result.significant]
        assert frozenset({0, 1}) in significant_items
