"""Unit tests for the CPAR greedy rule inducer."""

from __future__ import annotations

import math

import pytest

from repro.classify import CPARClassifier, foil_gain, record_item_sets
from repro.errors import DataError


@pytest.fixture
def fitted(tiny_dataset):
    return CPARClassifier(min_gain=0.1).fit(tiny_dataset)


class TestFoilGain:
    def test_pure_specialization_gains(self):
        # 10 pos / 10 neg -> 5 pos / 0 neg: strong gain.
        gain = foil_gain(10, 10, 5, 0)
        assert gain == pytest.approx(5 * (0.0 - math.log(0.5)))

    def test_no_positives_left_is_zero(self):
        assert foil_gain(10, 10, 0, 5) == 0.0

    def test_zero_baseline_is_zero(self):
        assert foil_gain(0, 10, 0, 0) == 0.0

    def test_useless_literal_gains_nothing(self):
        # Same precision before and after -> zero gain.
        assert foil_gain(10, 10, 5, 5) == pytest.approx(0.0)

    def test_degrading_literal_is_negative(self):
        assert foil_gain(10, 5, 5, 10) < 0.0


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"weight_decay": 0.0},
        {"weight_decay": 1.0},
        {"coverage_threshold": 0.0},
        {"min_gain": 0.0},
        {"max_branches": 0},
        {"k_best": 0},
        {"max_rule_length": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(DataError):
            CPARClassifier(**kwargs)


class TestFit:
    def test_fit_returns_self(self, tiny_dataset):
        classifier = CPARClassifier(min_gain=0.1)
        assert classifier.fit(tiny_dataset) is classifier

    def test_induces_rules_on_separable_data(self, fitted):
        assert fitted.n_rules > 0

    def test_rules_carry_real_p_values(self, fitted):
        for rule in fitted.rules:
            assert 0.0 <= rule.p_value <= 1.0
            assert rule.support <= rule.coverage

    def test_rule_statistics_consistent(self, fitted, tiny_dataset):
        for rule in fitted.rules:
            tidset = tiny_dataset.pattern_tidset(rule.items)
            assert rule.coverage == tidset.count()

    def test_rules_for_both_classes(self, fitted):
        classes = {rule.class_index for rule in fitted.rules}
        assert classes == {0, 1}

    def test_no_duplicate_rules(self, fitted):
        keys = [(rule.items, rule.class_index)
                for rule in fitted.rules]
        assert len(keys) == len(set(keys))


class TestPredict:
    def test_separable_data_classified_perfectly(self, fitted,
                                                 tiny_dataset):
        sets = record_item_sets(tiny_dataset)
        predictions = fitted.predict(sets)
        assert predictions == tiny_dataset.class_labels

    def test_unseen_itemset_falls_to_default(self, fitted):
        prediction = fitted.predict_itemset(frozenset({10_000}))
        assert prediction.is_default
        assert prediction.class_index == fitted.default_class

    def test_prediction_rule_matches_winner(self, fitted,
                                            tiny_dataset):
        sets = record_item_sets(tiny_dataset)
        for items in sets:
            prediction = fitted.predict_itemset(items)
            if prediction.rule is not None:
                assert prediction.rule.class_index == \
                    prediction.class_index

    def test_unfitted_predict_raises(self):
        with pytest.raises(DataError, match="not fitted"):
            CPARClassifier().predict_itemset(frozenset())


class TestOnSyntheticData:
    def test_beats_the_prior_on_planted_rules(self, embedded_data):
        dataset = embedded_data.dataset
        fitted = CPARClassifier(min_gain=0.5).fit(dataset)
        sets = record_item_sets(dataset)
        predictions = fitted.predict(sets)
        correct = sum(1 for p, a in zip(predictions,
                                        dataset.class_labels)
                      if p == a)
        majority = max(dataset.class_support(c)
                       for c in range(dataset.n_classes))
        assert correct >= majority

    def test_rule_count_bounded(self, embedded_data):
        dataset = embedded_data.dataset
        fitted = CPARClassifier(min_gain=0.5).fit(dataset)
        assert fitted.n_rules <= 4 * dataset.n_items + 8

    def test_branching_finds_at_least_single_path(self, embedded_data):
        dataset = embedded_data.dataset
        single = CPARClassifier(min_gain=0.5, max_branches=1)
        branched = CPARClassifier(min_gain=0.5, max_branches=3)
        assert branched.fit(dataset).n_rules >= \
            single.fit(dataset).n_rules


class TestDescribe:
    def test_unfitted_describe(self, tiny_dataset):
        assert "not fitted" in CPARClassifier().describe(tiny_dataset)

    def test_fitted_describe_shows_laplace(self, fitted, tiny_dataset):
        text = fitted.describe(tiny_dataset)
        assert "laplace=" in text
        assert "CPARClassifier" in text
