"""Unit tests for cross-validation and the correction-vs-accuracy
harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classify import (
    CBAClassifier,
    ConfusionMatrix,
    compare_filtered_rule_bases,
    cross_validate,
    significance_filtered_classifier,
    stratified_folds,
)
from repro.errors import EvaluationError
from repro.mining.rules import mine_class_rules


class TestConfusionMatrix:
    def test_starts_empty(self):
        matrix = ConfusionMatrix(["a", "b"])
        assert matrix.total == 0
        assert matrix.accuracy == 0.0

    def test_accuracy(self):
        matrix = ConfusionMatrix(["a", "b"])
        matrix.record(0, 0)
        matrix.record(0, 1)
        matrix.record(1, 1)
        matrix.record(1, 1)
        assert matrix.total == 4
        assert matrix.n_correct == 3
        assert matrix.accuracy == pytest.approx(0.75)

    def test_describe_contains_all_class_names(self):
        matrix = ConfusionMatrix(["good", "bad"])
        matrix.record(0, 1)
        text = matrix.describe()
        assert "good" in text and "bad" in text
        assert "accuracy" in text

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="shape"):
            ConfusionMatrix(["a", "b"], counts=[[0]])


class TestStratifiedFolds:
    def test_folds_partition_records(self):
        labels = [0, 1] * 25
        folds = stratified_folds(labels, 5, np.random.default_rng(0))
        seen = sorted(r for fold in folds for r in fold)
        assert seen == list(range(50))

    def test_folds_are_balanced_in_size(self):
        labels = [0, 1] * 25
        folds = stratified_folds(labels, 5, np.random.default_rng(0))
        sizes = [len(fold) for fold in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_class_balance_within_one(self):
        labels = [0] * 30 + [1] * 20
        folds = stratified_folds(labels, 5, np.random.default_rng(1))
        for fold in folds:
            zeros = sum(1 for r in fold if labels[r] == 0)
            ones = len(fold) - zeros
            assert abs(zeros - 6) <= 1
            assert abs(ones - 4) <= 1

    def test_too_few_folds_rejected(self):
        with pytest.raises(EvaluationError, match="folds"):
            stratified_folds([0, 1], 1)

    def test_more_folds_than_records_rejected(self):
        with pytest.raises(EvaluationError):
            stratified_folds([0, 1], 3)

    def test_deterministic_given_rng(self):
        labels = [0, 1, 0, 1, 0, 1, 0, 1]
        first = stratified_folds(labels, 2, np.random.default_rng(42))
        second = stratified_folds(labels, 2, np.random.default_rng(42))
        assert first == second


class TestCrossValidate:
    def test_separable_data_scores_perfectly(self, tiny_dataset):
        def factory(train):
            return CBAClassifier().fit(mine_class_rules(train, min_sup=1))

        result = cross_validate(tiny_dataset, factory, k=2, seed=0)
        assert result.mean_accuracy == pytest.approx(1.0)
        assert result.confusion.total == tiny_dataset.n_records

    def test_fold_counts_recorded(self, tiny_dataset):
        def factory(train):
            return CBAClassifier().fit(mine_class_rules(train, min_sup=1))

        result = cross_validate(tiny_dataset, factory, k=2, seed=0)
        assert len(result.fold_accuracies) == 2
        assert len(result.fold_rule_counts) == 2

    def test_std_zero_for_identical_folds(self, tiny_dataset):
        def factory(train):
            return CBAClassifier().fit(mine_class_rules(train, min_sup=1))

        result = cross_validate(tiny_dataset, factory, k=2, seed=0)
        assert result.std_accuracy == pytest.approx(0.0)


class TestSignificanceFilteredClassifier:
    def test_none_correction_reproduces_plain_cba(self, embedded_data):
        dataset = embedded_data.dataset
        filtered = significance_filtered_classifier(
            dataset, min_sup=40, correction="none")
        plain = CBAClassifier().fit(mine_class_rules(dataset, min_sup=40))
        assert filtered.n_rules == plain.n_rules

    def test_bonferroni_prunes_rule_base(self, embedded_data):
        dataset = embedded_data.dataset
        unfiltered = significance_filtered_classifier(
            dataset, min_sup=40, correction="none")
        filtered = significance_filtered_classifier(
            dataset, min_sup=40, correction="bonferroni")
        assert filtered.n_rules <= unfiltered.n_rules

    def test_cmar_variant(self, embedded_data):
        dataset = embedded_data.dataset
        fitted = significance_filtered_classifier(
            dataset, min_sup=40, correction="bh", classifier="cmar")
        assert fitted.default_class is not None

    def test_unknown_classifier_rejected(self, embedded_data):
        with pytest.raises(EvaluationError, match="classifier"):
            significance_filtered_classifier(
                embedded_data.dataset, min_sup=40, classifier="svm")

    def test_holdout_correction_supported(self, embedded_data):
        dataset = embedded_data.dataset
        fitted = significance_filtered_classifier(
            dataset, min_sup=40, correction="holdout-fwer", seed=3)
        assert fitted.default_class is not None


class TestCompareFilteredRuleBases:
    def test_reports_one_row_per_correction(self, embedded_data):
        dataset = embedded_data.dataset
        reports = compare_filtered_rule_bases(
            dataset, min_sup=40, corrections=("none", "bonferroni"),
            k=None)
        assert [r.correction for r in reports] == ["none", "bonferroni"]

    def test_significant_counts_monotone_in_stringency(self,
                                                       embedded_data):
        dataset = embedded_data.dataset
        reports = compare_filtered_rule_bases(
            dataset, min_sup=40, corrections=("none", "bh", "bonferroni"),
            k=None)
        by_name = {r.correction: r for r in reports}
        assert (by_name["none"].n_significant_rules
                >= by_name["bh"].n_significant_rules
                >= by_name["bonferroni"].n_significant_rules)

    def test_rows_are_table_ready(self, embedded_data):
        dataset = embedded_data.dataset
        reports = compare_filtered_rule_bases(
            dataset, min_sup=40, corrections=("none",), k=None)
        row = reports[0].row()
        assert row["correction"] == "none"
        assert "train_acc" in row
        assert "cv_acc" not in row

    def test_cv_columns_present_when_requested(self, embedded_data):
        dataset = embedded_data.dataset
        reports = compare_filtered_rule_bases(
            dataset, min_sup=60, corrections=("bonferroni",), k=2)
        row = reports[0].row()
        assert "cv_acc" in row and "cv_std" in row
        assert 0.0 <= row["cv_acc"] <= 1.0
