"""Unit tests for the mid-p variant across the buffer machinery."""

from __future__ import annotations

import pytest

from repro.stats import (
    PValueBuffer,
    PValueTables,
    fisher_two_tailed,
    fisher_two_tailed_midp,
    support_bounds,
)


class TestMidPBuffer:
    def test_matches_scalar_function(self):
        n, n_c, supp_x = 60, 25, 14
        buffer = PValueBuffer(n, n_c, supp_x, midp=True)
        low, high = support_bounds(n, n_c, supp_x)
        for k in range(low, high + 1):
            assert buffer.p_value(k) == pytest.approx(
                fisher_two_tailed_midp(k, n, n_c, supp_x), abs=1e-12)

    def test_midp_no_larger_than_exact(self):
        n, n_c, supp_x = 80, 40, 20
        exact = PValueBuffer(n, n_c, supp_x)
        mid = PValueBuffer(n, n_c, supp_x, midp=True)
        for k_exact, k_mid in zip(exact.p_values(), mid.p_values()):
            assert k_mid <= k_exact + 1e-15

    def test_midp_difference_is_half_pmf(self):
        from repro.stats import pmf_table
        n, n_c, supp_x = 40, 17, 9
        exact = PValueBuffer(n, n_c, supp_x).p_values()
        mid = PValueBuffer(n, n_c, supp_x, midp=True).p_values()
        pmf = pmf_table(n, n_c, supp_x)
        for e, m, mass in zip(exact, mid, pmf):
            assert m == pytest.approx(max(0.0, e - 0.5 * mass),
                                      abs=1e-15)

    def test_midp_never_negative(self):
        buffer = PValueBuffer(10, 5, 3, midp=True)
        assert all(p >= 0.0 for p in buffer.p_values())

    def test_flag_is_recorded(self):
        assert PValueBuffer(10, 5, 3, midp=True).midp
        assert not PValueBuffer(10, 5, 3).midp


class TestMidPCache:
    def test_cache_builds_midp_buffers(self):
        tables = PValueTables(50, [30, 20], [1], [10],
                              scorer="fisher-midp")
        value = tables.p_value(1, 10, 8)
        assert value == pytest.approx(
            fisher_two_tailed_midp(8, 50, 20, 10), abs=1e-12)

    def test_cache_default_is_exact(self):
        tables = PValueTables(50, [30, 20], [1], [10])
        value = tables.p_value(1, 10, 8)
        assert value == pytest.approx(
            fisher_two_tailed(8, 50, 20, 10), abs=1e-12)


class TestMidPScorer:
    def test_ruleset_scorer_plumbed(self, small_random_dataset):
        from repro.mining import mine_class_rules
        exact = mine_class_rules(small_random_dataset, 15)
        mid = mine_class_rules(small_random_dataset, 15,
                               scorer="fisher-midp")
        assert mid.scorer == "fisher-midp"
        assert exact.n_tests == mid.n_tests
        for rule_exact, rule_mid in zip(exact.rules, mid.rules):
            assert rule_mid.p_value <= rule_exact.p_value + 1e-12

    def test_unknown_scorer_rejected(self, small_random_dataset):
        from repro.errors import MiningError
        from repro.mining import mine_class_rules
        with pytest.raises(MiningError):
            mine_class_rules(small_random_dataset, 15, scorer="exact")

    def test_permutation_engine_runs_on_midp_ruleset(
            self, small_random_dataset):
        from repro.corrections import PermutationEngine
        from repro.mining import mine_class_rules
        ruleset = mine_class_rules(small_random_dataset, 15,
                                   scorer="fisher-midp")
        engine = PermutationEngine(ruleset, n_permutations=20, seed=2)
        result = engine.fwer(0.05)
        assert result.n_tests == ruleset.n_tests
        assert ruleset.tables.scorer == "fisher-midp"
        assert engine._flat is ruleset.tables.flat
