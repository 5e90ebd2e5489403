"""Tests for the extension surface of the public API.

Covers the options added beyond the paper's core pipeline: the
Section 7 redundancy reduction (``redundancy_delta``), the mid-p
scorer, and the relative behaviour of the extended correction
catalogue through ``mine_significant_rules``.
"""

from __future__ import annotations

import pytest

from repro import (
    CORRECTIONS,
    CorrectionError,
    SignificantRuleMiner,
    mine_significant_rules,
)
from repro.data import GeneratorConfig, generate


@pytest.fixture(scope="module")
def dataset():
    config = GeneratorConfig(
        n_records=300, n_attributes=10, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=60, max_coverage=60,
        min_confidence=0.9, max_confidence=0.9)
    return generate(config, seed=101).dataset


class TestExtendedCorrectionCatalogue:
    def test_new_identifiers_registered(self):
        for key in ("holm", "hochberg", "sidak", "storey", "bky",
                    "permutation-fwer-stepdown"):
            assert key in CORRECTIONS

    def test_holm_at_least_bonferroni(self, dataset):
        bc = mine_significant_rules(dataset, 25, correction="bonferroni")
        hl = mine_significant_rules(dataset, 25, correction="holm")
        assert hl.result.n_significant >= bc.result.n_significant

    def test_fwer_family_ordering(self, dataset):
        counts = {
            key: mine_significant_rules(
                dataset, 25, correction=key).result.n_significant
            for key in ("bonferroni", "sidak", "holm", "hochberg")
        }
        assert counts["bonferroni"] <= counts["sidak"]
        assert counts["bonferroni"] <= counts["holm"] \
            <= counts["hochberg"]

    def test_fdr_family_ordering(self, dataset):
        counts = {
            key: mine_significant_rules(
                dataset, 25, correction=key).result.n_significant
            for key in ("by", "bh", "storey")
        }
        assert counts["by"] <= counts["bh"] <= counts["storey"]

    def test_stepdown_at_least_single_step(self, dataset):
        single = mine_significant_rules(
            dataset, 25, correction="permutation-fwer",
            n_permutations=60, seed=5)
        stepdown = mine_significant_rules(
            dataset, 25, correction="permutation-fwer-stepdown",
            n_permutations=60, seed=5)
        assert stepdown.result.n_significant \
            >= single.result.n_significant


class TestRedundancyDelta:
    def test_reduces_or_keeps_hypothesis_count(self, dataset):
        full = mine_significant_rules(dataset, 25, correction="bh")
        reduced = mine_significant_rules(dataset, 25, correction="bh",
                                         redundancy_delta=0.3)
        assert reduced.n_tested <= full.n_tested

    def test_delta_zero_is_identity(self, dataset):
        full = mine_significant_rules(dataset, 25, correction="bh")
        same = mine_significant_rules(dataset, 25, correction="bh",
                                      redundancy_delta=0.0)
        assert same.n_tested == full.n_tested

    def test_rejected_with_holdout(self):
        with pytest.raises(CorrectionError):
            SignificantRuleMiner(min_sup=10, correction="holdout-fwer",
                                 redundancy_delta=0.1)
        with pytest.raises(CorrectionError):
            SignificantRuleMiner(min_sup=10, correction="holdout-fdr",
                                 redundancy_delta=0.1)

    def test_works_with_permutation(self, dataset):
        report = mine_significant_rules(
            dataset, 25, correction="permutation-fwer",
            n_permutations=30, seed=1, redundancy_delta=0.3)
        assert report.n_tested >= 0

    def test_ruleset_patterns_are_representatives(self, dataset):
        report = mine_significant_rules(dataset, 25, correction="bh",
                                        redundancy_delta=0.4)
        assert report.ruleset is not None
        patterns = report.ruleset.patterns
        assert patterns.algorithm == "closed"
        assert patterns.n_hypotheses == report.n_tested
        for position, pattern in enumerate(patterns):
            assert -1 <= pattern.parent_id < position


class TestMidPScorer:
    def test_midp_via_api(self, dataset):
        exact = mine_significant_rules(dataset, 25, correction="bh")
        mid = mine_significant_rules(dataset, 25, correction="bh",
                                     scorer="fisher-midp")
        assert mid.result.n_significant >= exact.result.n_significant

    def test_midp_with_permutation(self, dataset):
        report = mine_significant_rules(
            dataset, 25, correction="permutation-fwer",
            scorer="fisher-midp", n_permutations=30, seed=7)
        assert report.n_tested > 0
