"""Integration tests across the session-3 subsystems.

Each test exercises a pipeline that crosses module boundaries: Quest
transactions into the general-rule miner and the frequency methods,
the three classifiers against one another on one dataset, contrast
sets against the synthetic generator's ground truth, and CPAR's
induced rules through the shared correction machinery.
"""

from __future__ import annotations

import random

import pytest

from repro.classify import (
    CBAClassifier,
    CMARClassifier,
    CPARClassifier,
    record_item_sets,
)
from repro.contrast import find_contrast_sets
from repro.corrections import benjamini_hochberg, bonferroni
from repro.data import (
    Dataset,
    GeneratorConfig,
    QuestConfig,
    generate,
    generate_quest,
)
from repro.frequency import (
    significant_frequent_patterns,
)
from repro.mining.general import mine_general_rules
from repro.mining.rules import mine_class_rules


@pytest.fixture(scope="module")
def quest_data():
    config = QuestConfig(n_transactions=400,
                         avg_transaction_length=6.0,
                         avg_pattern_length=4.0, n_items=60,
                         n_patterns=8, corruption_mean=0.1)
    return generate_quest(config, seed=17)


@pytest.fixture(scope="module")
def planted():
    config = GeneratorConfig(
        n_records=600, n_attributes=15, n_rules=2,
        min_length=2, max_length=3,
        min_coverage=120, max_coverage=150,
        min_confidence=0.85, max_confidence=0.9)
    return generate(config, seed=23)


class TestQuestToGeneralRules:
    def test_quest_feeds_the_general_miner(self, quest_data):
        ruleset = mine_general_rules(quest_data.tidsets(),
                                     quest_data.n_transactions,
                                     min_sup=20, max_length=3)
        assert ruleset.n_tests > 0
        for rule in ruleset.rules:
            assert 0.0 <= rule.p_value <= 1.0

    def test_general_rules_survive_direct_corrections(self,
                                                      quest_data):
        ruleset = mine_general_rules(quest_data.tidsets(),
                                     quest_data.n_transactions,
                                     min_sup=20, max_length=3)
        bc = bonferroni(ruleset, 0.05)
        bh = benjamini_hochberg(ruleset, 0.05)
        assert bc.n_significant <= bh.n_significant
        # Planted Quest patterns make some rules genuinely real.
        assert bc.n_significant > 0

    def test_frequency_and_rule_views_agree_on_structure(self,
                                                         quest_data):
        """Patterns the frequency test flags should substantially
        overlap the LHS∪RHS of significant general rules."""
        tidsets = quest_data.tidsets()
        n = quest_data.n_transactions
        freq = significant_frequent_patterns(
            tidsets, n, min_sup=20, n_resamples=6, max_length=3,
            seed=0)
        ruleset = mine_general_rules(tidsets, n, min_sup=20,
                                     max_length=3)
        bc = bonferroni(ruleset, 0.05)
        rule_patterns = {rule.antecedent | rule.consequent
                         for rule in bc.significant}
        freq_patterns = {s.items for s in freq}
        if freq_patterns and rule_patterns:
            overlap = freq_patterns & rule_patterns
            assert len(overlap) >= len(freq_patterns) // 4


class TestClassifierTrio:
    def test_all_three_beat_the_prior(self, planted):
        dataset = planted.dataset
        ruleset = mine_class_rules(dataset, min_sup=60)
        sets = record_item_sets(dataset)
        majority = max(dataset.class_support(c)
                       for c in range(dataset.n_classes))
        classifiers = [
            CBAClassifier().fit(ruleset),
            CMARClassifier().fit(ruleset),
            CPARClassifier(min_gain=0.5).fit(dataset),
        ]
        for classifier in classifiers:
            predictions = classifier.predict(sets)
            correct = sum(
                1 for p, a in zip(predictions, dataset.class_labels)
                if p == a)
            assert correct >= majority * 0.95

    def test_classifiers_recover_planted_records(self, planted):
        """On records covered by a planted rule, every classifier
        should predict the planted class almost always — that is
        where the signal lives (elsewhere, only noise separates
        them)."""
        dataset = planted.dataset
        ruleset = mine_class_rules(dataset, min_sup=60)
        sets = record_item_sets(dataset)
        classifiers = [
            CBAClassifier().fit(ruleset),
            CMARClassifier().fit(ruleset),
        ]
        for embedded in planted.embedded_rules:
            covered = embedded.tidset.indices().tolist()
            for classifier in classifiers:
                hits = sum(
                    1 for r in covered
                    if classifier.predict_itemset(sets[r]).class_index
                    == embedded.class_index)
                assert hits >= len(covered) * 0.7


class TestContrastVsGroundTruth:
    def test_planted_rules_surface_as_contrasts(self, planted):
        """A planted class rule IS a group difference; STUCCO should
        find contrast sets overlapping the planted items."""
        dataset = planted.dataset
        result = find_contrast_sets(dataset, min_deviation=0.1,
                                    min_sup=30, max_length=3)
        planted_items = set()
        for rule in planted.embedded_rules:
            planted_items.update(rule.item_ids)
        found_items = {item for contrast in result.contrast_sets
                       for item in contrast.items}
        assert planted_items & found_items

    def test_contrast_and_class_rules_tell_one_story(self, planted):
        """Items in surviving contrast sets should appear among the
        Bonferroni-significant class rules too."""
        dataset = planted.dataset
        contrasts = find_contrast_sets(dataset, min_deviation=0.15,
                                       min_sup=30, max_length=2)
        ruleset = mine_class_rules(dataset, min_sup=30)
        bc = bonferroni(ruleset, 0.05)
        rule_items = {item for rule in bc.significant
                      for item in rule.items}
        contrast_items = {item for c in contrasts.contrast_sets
                          for item in c.items}
        if contrast_items:
            assert contrast_items & rule_items


class TestCPARThroughCorrections:
    def test_inducer_vs_miner_significance(self, planted):
        """Most of CPAR's induced rules on planted data should survive
        Bonferroni over the induced set — greedy induction lands on
        the strong signals first."""
        dataset = planted.dataset
        cpar = CPARClassifier(min_gain=0.5).fit(dataset)
        filtered = cpar.filtered("bonferroni", 0.05)
        assert cpar.n_rules > 0
        assert filtered.n_rules >= cpar.n_rules // 3

    def test_filtered_cpar_still_beats_prior(self, planted):
        dataset = planted.dataset
        cpar = CPARClassifier(min_gain=0.5).fit(dataset)
        filtered = cpar.filtered("bh", 0.05)
        sets = record_item_sets(dataset)
        predictions = filtered.predict(sets)
        correct = sum(
            1 for p, a in zip(predictions, dataset.class_labels)
            if p == a)
        majority = max(dataset.class_support(c)
                       for c in range(dataset.n_classes))
        assert correct >= majority * 0.9


class TestQuestAsClassDataset:
    def test_transactions_load_into_dataset(self, quest_data):
        """Quest output flows into Dataset.from_transactions with a
        derived label, closing the loop to the class-rule machinery."""
        transactions = quest_data.transactions[:200]
        anchor = max(
            range(quest_data.config.n_items),
            key=lambda i: sum(1 for t in transactions if i in t))
        labels = ["with" if anchor in t else "without"
                  for t in transactions]
        stripped = [[i for i in t if i != anchor]
                    for t in transactions]
        dataset = Dataset.from_transactions(stripped, labels,
                                            name="quest-class")
        ruleset = mine_class_rules(dataset, min_sup=10, max_length=2)
        assert ruleset.n_tests > 0
        bc = bonferroni(ruleset, 0.05)
        assert bc.n_significant <= ruleset.n_tests
