"""Unit tests for adaptive FDR control (Storey q-values, two-stage BH)."""

from __future__ import annotations

import pytest

from repro.corrections import (
    benjamini_hochberg,
    estimate_pi0,
    q_values,
    storey_fdr,
    two_stage_bh,
)
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


class TestEstimatePi0:
    def test_uniform_p_values_give_pi0_near_one(self):
        uniform = [i / 1000 for i in range(1, 1001)]
        assert estimate_pi0(uniform) == pytest.approx(1.0, abs=0.01)

    def test_all_tiny_p_values_give_small_pi0(self):
        tiny = [1e-10] * 200
        assert estimate_pi0(tiny) == pytest.approx(1.0 / 200)

    def test_clamped_to_at_most_one(self):
        # Everything above lambda: raw estimate would be 2.
        concentrated = [0.9] * 50
        assert estimate_pi0(concentrated, lam=0.5) == 1.0

    def test_empty_input(self):
        assert estimate_pi0([]) == 1.0

    def test_lambda_validation(self):
        with pytest.raises(CorrectionError):
            estimate_pi0([0.5], lam=0.0)
        with pytest.raises(CorrectionError):
            estimate_pi0([0.5], lam=1.0)

    def test_real_data_pi0_below_random_data_pi0(self, german_ruleset,
                                                 random_ruleset):
        real = estimate_pi0(german_ruleset.p_values())
        random_ = estimate_pi0(random_ruleset.p_values())
        assert real < random_


class TestQValues:
    def test_monotone_in_p(self):
        ps = [0.001, 0.01, 0.2, 0.5, 0.9]
        qs = q_values(ps, pi0=1.0)
        assert qs == sorted(qs)

    def test_with_pi0_one_matches_bh_adjusted(self):
        ps = [0.001, 0.008, 0.039, 0.041, 0.6]
        qs = q_values(ps, pi0=1.0)
        m = len(ps)
        # BH adjusted p-values with the trailing-min convention.
        order = sorted(range(m), key=lambda i: ps[i])
        expected = [0.0] * m
        running = 1.0
        for rank in range(m, 0, -1):
            i = order[rank - 1]
            running = min(running, m * ps[i] / rank)
            expected[i] = running
        assert qs == pytest.approx(expected)

    def test_q_never_below_scaled_p(self):
        ps = [0.02, 0.5, 0.001, 0.3]
        for q, p in zip(q_values(ps, pi0=0.5), ps):
            assert q >= 0.5 * p - 1e-15

    def test_preserves_input_order(self):
        ps = [0.5, 0.001, 0.3]
        qs = q_values(ps, pi0=1.0)
        assert qs[1] == min(qs)

    def test_empty(self):
        assert q_values([], pi0=1.0) == []

    def test_pi0_validation(self):
        with pytest.raises(CorrectionError):
            q_values([0.5], pi0=0.0)
        with pytest.raises(CorrectionError):
            q_values([0.5], pi0=1.5)


class TestStoreyFdr:
    def test_rejects_at_least_bh(self, german_ruleset):
        bh = benjamini_hochberg(german_ruleset, 0.05)
        st = storey_fdr(german_ruleset, 0.05)
        assert st.n_significant >= bh.n_significant
        assert set(bh.significant) \
            <= set(st.significant)

    def test_equals_bh_when_pi0_is_one(self, random_ruleset):
        # Random data should estimate pi0 at (or extremely near) 1.
        pi0 = estimate_pi0(random_ruleset.p_values())
        st = storey_fdr(random_ruleset, 0.05)
        bh = benjamini_hochberg(random_ruleset, 0.05)
        if pi0 == 1.0:
            assert st.n_significant == bh.n_significant

    def test_details_carry_pi0(self, german_ruleset):
        result = storey_fdr(german_ruleset, 0.05)
        assert 0.0 < result.details["pi0"] <= 1.0
        assert result.details["lambda"] == 0.5

    def test_control_field(self, german_ruleset):
        result = storey_fdr(german_ruleset)
        assert result.control == "fdr"
        assert result.method == "Storey"

    def test_alpha_validation(self, german_ruleset):
        with pytest.raises(CorrectionError):
            storey_fdr(german_ruleset, 0.0)


class TestTwoStageBH:
    def test_rejects_at_least_plain_bh_on_signal(self, german_ruleset):
        """BKY's inflated stage-2 level beats BH at the same alpha when
        stage 1 finds many rejections."""
        bh = benjamini_hochberg(german_ruleset, 0.05)
        bky = two_stage_bh(german_ruleset, 0.05)
        assert bky.n_significant >= bh.n_significant

    def test_no_rejections_without_signal(self, random_ruleset):
        result = two_stage_bh(random_ruleset, 0.05)
        assert result.n_significant <= 2

    def test_stage1_details(self, german_ruleset):
        result = two_stage_bh(german_ruleset, 0.05)
        assert result.details["stage1_rejections"] >= 0
        assert result.details["stage1_rejections"] \
            <= german_ruleset.n_tests

    def test_stage1_uses_deflated_alpha(self, german_ruleset):
        result = two_stage_bh(german_ruleset, 0.05)
        from repro.corrections import bh_step_up
        expected = bh_step_up(german_ruleset.p_values(),
                              0.05 / 1.05)
        assert result.details["stage1_threshold"] \
            == pytest.approx(expected)

    def test_method_field(self, german_ruleset):
        assert two_stage_bh(german_ruleset).method == "BKY"
