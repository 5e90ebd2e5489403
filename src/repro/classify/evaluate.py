"""Classifier evaluation: stratified cross-validation and the
correction-vs-accuracy harness.

The headline question this module answers is the one the paper's
Section 2 implies but never measures: *does statistical filtering of
the rule base cost predictive accuracy?* A correction procedure shrinks
the rule base; CBA then builds a shorter rule list whose residual
errors fall to the default class. The harness
:func:`compare_filtered_rule_bases` quantifies the trade across
corrections on the same folds, so differences are paired, not
confounded by fold noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..errors import EvaluationError
from ..mining.rules import mine_class_rules
from .base import record_item_sets
from .cba import CBAClassifier
from .cmar import CMARClassifier

__all__ = [
    "ConfusionMatrix",
    "CrossValidationResult",
    "FilteredBaseReport",
    "stratified_folds",
    "cross_validate",
    "significance_filtered_classifier",
    "compare_filtered_rule_bases",
]


@dataclass
class ConfusionMatrix:
    """Counts of (actual, predicted) class pairs.

    ``counts[actual][predicted]`` accumulates over however many test
    records were scored into this matrix.
    """

    class_names: List[str]
    counts: List[List[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        k = len(self.class_names)
        if not self.counts:
            self.counts = [[0] * k for _ in range(k)]
        if len(self.counts) != k or any(len(row) != k
                                        for row in self.counts):
            raise EvaluationError("confusion matrix shape mismatch")

    def record(self, actual: int, predicted: int) -> None:
        """Tally one test record."""
        self.counts[actual][predicted] += 1

    @property
    def total(self) -> int:
        """Number of records tallied."""
        return sum(sum(row) for row in self.counts)

    @property
    def n_correct(self) -> int:
        """Number of records on the diagonal."""
        return sum(self.counts[i][i] for i in range(len(self.counts)))

    @property
    def accuracy(self) -> float:
        """Fraction correct (0 when the matrix is empty)."""
        total = self.total
        return self.n_correct / total if total else 0.0

    def describe(self) -> str:
        """Aligned actual-by-predicted table."""
        width = max(len(name) for name in self.class_names)
        width = max(width, 6)
        header = " " * (width + 2) + "  ".join(
            f"{name:>{width}}" for name in self.class_names)
        lines = [header]
        for i, name in enumerate(self.class_names):
            cells = "  ".join(f"{c:>{width}}" for c in self.counts[i])
            lines.append(f"{name:>{width}}  {cells}")
        lines.append(f"accuracy: {self.accuracy:.4f} "
                     f"({self.n_correct}/{self.total})")
        return "\n".join(lines)


@dataclass
class CrossValidationResult:
    """Per-fold accuracies plus the pooled confusion matrix."""

    fold_accuracies: List[float]
    confusion: ConfusionMatrix
    fold_rule_counts: List[int]

    @property
    def mean_accuracy(self) -> float:
        """Average accuracy over folds."""
        if not self.fold_accuracies:
            return 0.0
        return sum(self.fold_accuracies) / len(self.fold_accuracies)

    @property
    def std_accuracy(self) -> float:
        """Population standard deviation of fold accuracies."""
        k = len(self.fold_accuracies)
        if k < 2:
            return 0.0
        mean = self.mean_accuracy
        variance = sum((a - mean) ** 2 for a in self.fold_accuracies) / k
        return math.sqrt(variance)

    @property
    def mean_rule_count(self) -> float:
        """Average number of rules the per-fold classifiers kept."""
        if not self.fold_rule_counts:
            return 0.0
        return sum(self.fold_rule_counts) / len(self.fold_rule_counts)


@dataclass
class FilteredBaseReport:
    """One row of the correction-vs-accuracy comparison."""

    correction: str
    n_candidate_rules: int
    n_significant_rules: int
    n_classifier_rules: int
    training_accuracy: float
    cv: Optional[CrossValidationResult] = None

    def row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        out: Dict[str, object] = {
            "correction": self.correction,
            "candidates": self.n_candidate_rules,
            "significant": self.n_significant_rules,
            "classifier_rules": self.n_classifier_rules,
            "train_acc": round(self.training_accuracy, 4),
        }
        if self.cv is not None:
            out["cv_acc"] = round(self.cv.mean_accuracy, 4)
            out["cv_std"] = round(self.cv.std_accuracy, 4)
        return out


def stratified_folds(class_labels: Sequence[int], k: int,
                     rng=None) -> List[List[int]]:
    """Partition record ids into ``k`` folds with per-class balance.

    Each class's records are shuffled and dealt round-robin, so every
    fold's class mix tracks the full data's within one record per
    class. Folds partition ``range(len(class_labels))`` exactly.

    ``rng`` is a :class:`numpy.random.Generator` (``None`` uses
    ``numpy.random.default_rng(0)``), matching the determinism
    contract of the parallel subsystem.
    """
    if k < 2:
        raise EvaluationError(f"need at least 2 folds, got {k}")
    if k > len(class_labels):
        raise EvaluationError(
            f"{k} folds for only {len(class_labels)} records")
    generator = rng if rng is not None else np.random.default_rng(0)
    by_class: Dict[int, List[int]] = {}
    for r, label in enumerate(class_labels):
        by_class.setdefault(label, []).append(r)
    folds: List[List[int]] = [[] for _ in range(k)]
    position = 0
    for label in sorted(by_class):
        members = by_class[label]
        for i in generator.permutation(len(members)):
            folds[position % k].append(members[i])
            position += 1
    return folds


def cross_validate(
    dataset: Dataset,
    make_classifier: Callable[[Dataset], object],
    k: int = 5,
    seed: int = 0,
) -> CrossValidationResult:
    """Stratified k-fold cross-validation of an associative classifier.

    Parameters
    ----------
    make_classifier:
        Callable receiving the training :class:`Dataset` (sharing the
        full data's item catalog) and returning a fitted object with
        ``predict_itemset`` and ``n_rules``. See
        :func:`significance_filtered_classifier` for a ready factory.
    """
    rng = np.random.default_rng(seed)
    folds = stratified_folds(dataset.class_labels, k, rng)
    item_sets = record_item_sets(dataset)
    confusion = ConfusionMatrix(list(dataset.class_names))
    fold_accuracies: List[float] = []
    fold_rule_counts: List[int] = []
    for fold in folds:
        test_ids = set(fold)
        train_ids = [r for r in range(dataset.n_records)
                     if r not in test_ids]
        train = dataset.subset(train_ids, name=f"{dataset.name}[train]")
        classifier = make_classifier(train)
        correct = 0
        for r in fold:
            predicted = classifier.predict_itemset(
                item_sets[r]).class_index
            actual = dataset.class_labels[r]
            confusion.record(actual, predicted)
            if predicted == actual:
                correct += 1
        fold_accuracies.append(correct / len(fold) if fold else 0.0)
        fold_rule_counts.append(getattr(classifier, "n_rules", 0))
    return CrossValidationResult(fold_accuracies, confusion,
                                 fold_rule_counts)


def significance_filtered_classifier(
    dataset: Dataset,
    min_sup: int,
    correction: str = "bh",
    alpha: float = 0.05,
    classifier: str = "cba",
    min_conf: float = 0.0,
    max_length: Optional[int] = None,
    n_permutations: int = 200,
    seed: Optional[int] = None,
    delta: int = 3,
):
    """Mine, correct, and fit a classifier on the surviving rules.

    Returns the fitted classifier. ``correction="none"`` keeps every
    mined rule, reproducing plain CBA/CMAR; any other name from
    :data:`repro.core.CORRECTIONS` restricts the candidate pool to the
    rules that correction declares significant. With an empty surviving
    pool the classifier degenerates to the default class — that is the
    honest outcome of over-filtering, not an error.

    ``classifier="cpar"`` induces its own rules from the dataset (so
    ``min_sup``, ``min_conf``, ``max_length`` and the permutation
    knobs do not apply) and supports only the direct-adjustment
    correction names, applied post hoc over the induced rules' Fisher
    p-values.
    """
    fitted, _, _ = _mine_correct_fit(
        dataset, min_sup, correction, alpha, classifier, min_conf,
        max_length, n_permutations, seed, delta)
    return fitted


def _mine_correct_fit(dataset: Dataset, min_sup: int, correction: str,
                      alpha: float, classifier: str, min_conf: float,
                      max_length: Optional[int], n_permutations: int,
                      seed: Optional[int], delta: int = 3):
    """Shared pipeline: returns (classifier, n_candidates, n_significant).
    """
    # Imported here: repro.core imports corrections which import mining;
    # importing it at module scope would cycle through repro.classify
    # once the public API re-exports this factory.
    from ..core.miner import SignificantRuleMiner
    from ..corrections.registry import resolve_correction

    if classifier not in ("cba", "cmar", "cpar"):
        raise EvaluationError(f"unknown classifier {classifier!r}")
    # Canonicalise up front so aliases ("BH", "raw", ...) behave
    # exactly like their canonical names in the comparisons below —
    # but keep variant spellings ("HD_BC") intact: they bind context
    # overrides that the canonical name alone would lose.
    resolved = resolve_correction(correction)
    correction = correction if resolved.overrides else resolved.name
    if classifier == "cpar":
        # CPAR induces its own rules; the statistical filter applies
        # post hoc over the induced rules' Fisher p-values.
        from .cpar import CPARClassifier

        fitted = CPARClassifier().fit(dataset)
        n_candidates = fitted.n_rules
        if correction != "none":
            fitted = fitted.filtered(correction, alpha)
        return fitted, n_candidates, fitted.n_rules
    miner = SignificantRuleMiner(
        min_sup=min_sup, min_conf=min_conf, correction=correction,
        alpha=alpha, max_length=max_length,
        n_permutations=n_permutations, seed=seed)
    report = miner.mine(dataset)
    if report.ruleset is None:
        # Holdout corrections score on a half-dataset; rebuild rule
        # statistics on the full data so the classifier trains on
        # everything while keeping only the validated rule LHSs.
        ruleset = mine_class_rules(dataset, min_sup, min_conf=min_conf,
                                   max_length=max_length)
        validated = {(rule.items, rule.class_index)
                     for rule in report.significant}
        rules = [rule for rule in ruleset.rules
                 if (rule.items, rule.class_index) in validated]
    else:
        ruleset = report.ruleset
        rules = report.significant
    if classifier == "cba":
        fitted = CBAClassifier().fit(ruleset, rules=rules)
    else:
        fitted = CMARClassifier(delta=delta).fit(ruleset, rules=rules)
    return fitted, ruleset.n_tests, len(rules)


def compare_filtered_rule_bases(
    dataset: Dataset,
    min_sup: int,
    corrections: Sequence[str] = ("none", "bonferroni", "bh"),
    alpha: float = 0.05,
    classifier: str = "cba",
    k: Optional[int] = 5,
    seed: int = 0,
    n_permutations: int = 200,
    min_conf: float = 0.0,
    max_length: Optional[int] = None,
) -> List[FilteredBaseReport]:
    """Accuracy and rule-base size per correction, on shared folds.

    For each correction: mine + correct + fit on the full data (for the
    rule-count and training-accuracy columns), then — when ``k`` is not
    None — cross-validate the whole mine/correct/fit pipeline so the
    accuracy estimate is honest about selection effects.
    """
    item_sets = record_item_sets(dataset)
    labels = dataset.class_labels
    reports: List[FilteredBaseReport] = []
    for correction in corrections:
        fitted, n_candidates, n_significant = _mine_correct_fit(
            dataset, min_sup, correction, alpha, classifier, min_conf,
            max_length, n_permutations, seed)
        predictions = fitted.predict(item_sets)
        train_correct = sum(
            1 for predicted, actual in zip(predictions, labels)
            if predicted == actual)
        cv = None
        if k is not None:
            def factory(train: Dataset, _c: str = correction):
                return significance_filtered_classifier(
                    train, max(1, min_sup * (k - 1) // k),
                    correction=_c, alpha=alpha, classifier=classifier,
                    min_conf=min_conf, max_length=max_length,
                    n_permutations=n_permutations, seed=seed)
            cv = cross_validate(dataset, factory, k=k, seed=seed)
        reports.append(FilteredBaseReport(
            correction=correction,
            n_candidate_rules=n_candidates,
            n_significant_rules=n_significant,
            n_classifier_rules=fitted.n_rules,
            training_accuracy=train_correct / dataset.n_records,
            cv=cv,
        ))
    return reports
