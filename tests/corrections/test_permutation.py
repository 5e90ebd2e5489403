"""Unit tests for the permutation-based approach (Section 4.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core import Pipeline
from repro.corrections import PermutationEngine, permutation_fdr, \
    permutation_fwer
from repro.data import GeneratorConfig, generate
from repro.errors import CorrectionError
from repro.mining import mine_class_rules

from .permutation_oracle import reference


@pytest.fixture(scope="module")
def random_ruleset():
    config = GeneratorConfig(n_records=200, n_attributes=8,
                             min_values=2, max_values=3, n_rules=0)
    ds = generate(config, seed=61).dataset
    return mine_class_rules(ds, min_sup=15)


@pytest.fixture(scope="module")
def planted_ruleset():
    config = GeneratorConfig(
        n_records=300, n_attributes=10, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=60, max_coverage=60,
        min_confidence=0.95, max_confidence=0.95)
    data = generate(config, seed=62)
    return data, mine_class_rules(data.dataset, min_sup=20)


class TestConstruction:
    def test_invalid_parameters(self, random_ruleset):
        with pytest.raises(CorrectionError):
            PermutationEngine(random_ruleset, n_permutations=0)
        with pytest.raises(CorrectionError):
            PermutationEngine(random_ruleset, batch_bytes=0)

    @pytest.mark.parametrize("keyword",
                             ("rng", "pvalue_mode", "word_block",
                              "policy"))
    def test_removed_keywords_rejected(self, random_ruleset, keyword):
        with pytest.raises(TypeError, match=keyword):
            PermutationEngine(random_ruleset, **{keyword: None})

    def test_removed_policy_rejected_by_pipeline_and_cli(self):
        with pytest.raises(TypeError, match="policy"):
            Pipeline(min_sup=5, corrections=("Perm_FWER",),
                     policy="packed")
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["mine", "x.csv", "--min-sup",
                                       "10", "--policy", "packed"])
        assert exit_info.value.code == 2


class TestDeterminism:
    def test_same_seed_same_result(self, random_ruleset):
        a = PermutationEngine(random_ruleset, 50, seed=3).fwer(0.05)
        b = PermutationEngine(random_ruleset, 50, seed=3).fwer(0.05)
        assert a.threshold == b.threshold
        assert a.n_significant == b.n_significant

    def test_run_is_idempotent(self, random_ruleset):
        engine = PermutationEngine(random_ruleset, 30, seed=4)
        engine.run()
        first = engine.min_p_distribution()
        engine.run()
        assert (engine.min_p_distribution() == first).all()


class TestPvalueModesAgree:
    """The engine's flat-table lookups reproduce the scalar reference's
    p-values: its buffer-cache lookups exactly, its direct
    ``fisher_two_tailed`` recomputation within rel 1e-9."""

    def test_modes_identical(self, random_ruleset):
        engine = PermutationEngine(random_ruleset, 20, seed=5)
        min_p = engine.min_p_distribution()
        cache = reference(random_ruleset, 20, seed=5, pvalue="cache")
        direct = reference(random_ruleset, 20, seed=5, pvalue="direct")
        assert np.array_equal(min_p, cache[0])
        assert min_p == pytest.approx(direct[0], rel=1e-9)


class TestFwer:
    def test_threshold_is_quantile(self, random_ruleset):
        engine = PermutationEngine(random_ruleset, 100, seed=7)
        result = engine.fwer(0.05)
        min_p = engine.min_p_distribution()
        assert result.threshold == pytest.approx(float(min_p[4]))

    def test_too_few_permutations_conservative(self, random_ruleset):
        engine = PermutationEngine(random_ruleset, 10, seed=8)
        result = engine.fwer(0.05)  # floor(0.5) = 0 -> nothing passes
        assert result.threshold == 0.0
        assert result.n_significant == 0

    def test_method_name(self, random_ruleset):
        assert PermutationEngine(random_ruleset, 20, seed=9).fwer(
            0.05).method == "Perm_FWER"

    def test_detects_planted_rule(self, planted_ruleset):
        data, ruleset = planted_ruleset
        result = permutation_fwer(ruleset, 0.05, n_permutations=100,
                                  seed=10)
        planted = data.embedded_rules[0]
        target = data.dataset.pattern_tidset(planted.item_ids)
        hits = [r for r in result.significant
                if data.dataset.pattern_tidset(r.items) == target]
        assert hits

    def test_details_populated(self, random_ruleset):
        result = permutation_fwer(random_ruleset, 0.05,
                                  n_permutations=40, seed=11)
        assert result.details["n_permutations"] == 40
        assert "min_p_quantiles" in result.details


class TestFdr:
    def test_empirical_pvalues_are_probabilities(self, random_ruleset):
        engine = PermutationEngine(random_ruleset, 30, seed=12)
        empirical = engine.empirical_p_values()
        assert len(empirical) == random_ruleset.n_tests
        assert all(0.0 <= p <= 1.0 for p in empirical)

    def test_empirical_monotone_in_observed(self, random_ruleset):
        engine = PermutationEngine(random_ruleset, 30, seed=13)
        empirical = engine.empirical_p_values()
        observed = random_ruleset.p_values()
        paired = sorted(zip(observed, empirical))
        for (_, e1), (_, e2) in zip(paired, paired[1:]):
            assert e1 <= e2 + 1e-12

    def test_fdr_result(self, random_ruleset):
        result = permutation_fdr(random_ruleset, 0.05,
                                 n_permutations=30, seed=14)
        assert result.method == "Perm_FDR"
        assert result.control == "fdr"

    def test_fdr_detects_planted_rule(self, planted_ruleset):
        data, ruleset = planted_ruleset
        result = permutation_fdr(ruleset, 0.05, n_permutations=100,
                                 seed=15)
        planted = data.embedded_rules[0]
        target = data.dataset.pattern_tidset(planted.item_ids)
        hits = [r for r in result.significant
                if data.dataset.pattern_tidset(r.items) == target]
        assert hits

    def test_shared_engine_cheaper_than_two(self, random_ruleset):
        engine = PermutationEngine(random_ruleset, 25, seed=16)
        fwer = engine.fwer(0.05)
        fdr = engine.fdr(0.05)
        # Both results must come from the same permutation pass.
        assert fwer.details["n_permutations"] == \
            fdr.details["n_permutations"]


class TestStatisticalBehaviour:
    def test_fwer_near_alpha_on_null(self):
        """On random data the permutation FWER should be near alpha."""
        false_hits = 0
        trials = 30
        for seed in range(trials):
            config = GeneratorConfig(n_records=120, n_attributes=6,
                                     min_values=2, max_values=2,
                                     n_rules=0)
            ds = generate(config, seed=1000 + seed).dataset
            ruleset = mine_class_rules(ds, min_sup=12)
            result = permutation_fwer(ruleset, 0.05, n_permutations=60,
                                      seed=seed)
            if result.n_significant > 0:
                false_hits += 1
        assert false_hits / trials <= 0.2
