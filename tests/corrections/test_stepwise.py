"""Unit tests for the stepwise FWER procedures (Holm, Hochberg, Šidák)."""

from __future__ import annotations

import math

import pytest

from repro.corrections import bonferroni, hochberg, holm, sidak
from repro.corrections.stepwise import sidak_threshold
from repro.errors import CorrectionError
from repro.mining import mine_class_rules


@pytest.fixture(scope="module")
def german_ruleset():
    from repro.data import make_german
    return mine_class_rules(make_german(), min_sup=150)


@pytest.fixture(scope="module")
def random_ruleset():
    from repro.data import GeneratorConfig, generate
    config = GeneratorConfig(n_records=300, n_attributes=10,
                             min_values=2, max_values=3, n_rules=0)
    ds = generate(config, seed=55).dataset
    return mine_class_rules(ds, min_sup=20)


class TestHolm:
    def test_rejects_at_least_bonferroni(self, german_ruleset):
        bc = bonferroni(german_ruleset, 0.05)
        hl = holm(german_ruleset, 0.05)
        assert hl.n_significant >= bc.n_significant
        bc_rules = set(bc.significant)
        hl_rules = set(hl.significant)
        assert bc_rules <= hl_rules

    def test_stepdown_bound_holds_at_every_rank(self, german_ruleset):
        result = holm(german_ruleset, 0.05)
        accepted = sorted(r.p_value for r in result.significant)
        n = german_ruleset.n_tests
        for i, p in enumerate(accepted, start=1):
            assert p <= 0.05 / (n - i + 1)

    def test_stops_at_first_failure(self, german_ruleset):
        """No accepted p-value may exceed a rejected one."""
        result = holm(german_ruleset, 0.05)
        rejected = [r.p_value for r in german_ruleset.rules
                    if r.p_value > result.threshold]
        if result.significant and rejected:
            assert max(r.p_value for r in result.significant) \
                < min(rejected) or result.threshold >= min(rejected)

    def test_random_data_rejects_nothing_spurious(self, random_ruleset):
        result = holm(random_ruleset, 0.05)
        # Random data: Holm should behave like Bonferroni (almost
        # nothing passes); definitely no more than a handful.
        assert result.n_significant <= 2

    def test_control_and_method_fields(self, german_ruleset):
        result = holm(german_ruleset)
        assert result.control == "fwer"
        assert result.method == "Holm"
        assert result.n_tests == german_ruleset.n_tests

    def test_alpha_validation(self, german_ruleset):
        with pytest.raises(CorrectionError):
            holm(german_ruleset, 0.0)
        with pytest.raises(CorrectionError):
            holm(german_ruleset, 1.5)


class TestHochberg:
    def test_rejects_at_least_holm(self, german_ruleset):
        hl = holm(german_ruleset, 0.05)
        hb = hochberg(german_ruleset, 0.05)
        assert hb.n_significant >= hl.n_significant
        assert set(hl.significant) \
            <= set(hb.significant)

    def test_threshold_is_observed_p_or_zero(self, german_ruleset):
        result = hochberg(german_ruleset, 0.05)
        observed = set(german_ruleset.p_values())
        assert result.threshold == 0.0 or result.threshold in observed

    def test_stepup_bound_at_acceptance_rank(self, german_ruleset):
        result = hochberg(german_ruleset, 0.05)
        if result.threshold == 0.0:
            return
        ordered = sorted(german_ruleset.p_values())
        n = german_ruleset.n_tests
        k = sum(1 for p in ordered if p <= result.threshold)
        assert ordered[k - 1] <= 0.05 / (n - k + 1)

    def test_nothing_significant_on_uniform_p(self, random_ruleset):
        result = hochberg(random_ruleset, 0.05)
        assert result.n_significant <= 2

    def test_method_field(self, german_ruleset):
        assert hochberg(german_ruleset).method == "Hochberg"


class TestSidak:
    def test_threshold_formula(self, german_ruleset):
        result = sidak(german_ruleset, 0.05)
        n = german_ruleset.n_tests
        assert result.threshold == pytest.approx(
            1.0 - (1.0 - 0.05) ** (1.0 / n))

    def test_slightly_more_liberal_than_bonferroni(self, german_ruleset):
        n = german_ruleset.n_tests
        assert sidak_threshold(0.05, n) >= 0.05 / n
        bc = bonferroni(german_ruleset, 0.05)
        sk = sidak(german_ruleset, 0.05)
        assert sk.n_significant >= bc.n_significant

    def test_threshold_helper_edge_cases(self):
        assert sidak_threshold(0.05, 0) == 0.0
        assert sidak_threshold(0.05, 1) == pytest.approx(0.05)
        with pytest.raises(CorrectionError):
            sidak_threshold(0.0, 10)

    def test_no_underflow_at_large_n(self):
        threshold = sidak_threshold(0.05, 10**9)
        assert threshold > 0.0
        assert math.isfinite(threshold)
        # Asymptotically -log(1 - alpha) / n, slightly above alpha / n.
        assert threshold == pytest.approx(-math.log1p(-0.05) / 10**9,
                                          rel=1e-6)
        assert threshold >= 0.05 / 10**9

    def test_method_field(self, german_ruleset):
        assert sidak(german_ruleset).method == "Sidak"


class TestOrderingAcrossProcedures:
    def test_power_ordering(self, german_ruleset):
        """BC <= Sidak and BC <= Holm <= Hochberg (rejection counts)."""
        counts = {
            "bc": bonferroni(german_ruleset, 0.05).n_significant,
            "sidak": sidak(german_ruleset, 0.05).n_significant,
            "holm": holm(german_ruleset, 0.05).n_significant,
            "hochberg": hochberg(german_ruleset, 0.05).n_significant,
        }
        assert counts["bc"] <= counts["sidak"]
        assert counts["bc"] <= counts["holm"] <= counts["hochberg"]

    def test_all_selected_rules_clear_threshold(self, german_ruleset):
        for procedure in (holm, hochberg, sidak):
            result = procedure(german_ruleset, 0.05)
            assert all(r.p_value <= result.threshold
                       for r in result.significant)
