"""Power / FWER / FDR metrics (Section 5.2).

On a single dataset:

* **FWER indicator** — 1 when at least one false positive was reported;
* **FDR** — the proportion of false positives among all reported
  significant rules (0 when nothing was reported);
* **power** — the proportion of embedded rules detected.

Across the replicate datasets of one experimental cell the paper
averages: FWER is the fraction of datasets with at least one false
positive, FDR and power are means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..corrections.base import CorrectionResult
from ..data.dataset import Dataset
from ..data.synthetic import EmbeddedRule
from ..errors import EvaluationError
from .ground_truth import ClassifiedRule, RuleStatus, classify_decisions

__all__ = ["DatasetOutcome", "AggregateMetrics", "evaluate_result",
           "evaluate_results", "aggregate"]


@dataclass
class DatasetOutcome:
    """Ground-truth accounting of one method on one dataset."""

    method: str
    n_significant: int
    n_true_positives: int
    n_false_positives: int
    n_byproducts: int
    n_embedded: int
    n_detected: int
    threshold: float
    classified: List[ClassifiedRule] = field(default_factory=list,
                                             repr=False)

    @property
    def fwer_indicator(self) -> int:
        """1 when this dataset produced at least one false positive."""
        return 1 if self.n_false_positives > 0 else 0

    @property
    def fdr(self) -> float:
        """False positives over reported rules (0 when none reported)."""
        if self.n_significant == 0:
            return 0.0
        return self.n_false_positives / self.n_significant

    @property
    def power(self) -> float:
        """Detected embedded rules over embedded rules (0 when none)."""
        if self.n_embedded == 0:
            return 0.0
        return self.n_detected / self.n_embedded


def evaluate_result(
    result: CorrectionResult,
    embedded: Sequence[EmbeddedRule],
    dataset: Dataset,
) -> DatasetOutcome:
    """Classify a correction result's output against the ground truth.

    ``dataset`` must be the dataset on which the significance decisions
    were made (the full dataset for direct/permutation methods, the
    evaluation half for holdout) and ``embedded`` the ground truth
    re-derived on that same dataset.
    """
    return evaluate_results([result], embedded, dataset)[0]


def evaluate_results(
    results: Sequence[CorrectionResult],
    embedded: Sequence[EmbeddedRule],
    dataset: Dataset,
) -> List[DatasetOutcome]:
    """:func:`evaluate_result` for several results decided on one
    dataset, classified together (:func:`classify_decisions`)."""
    classified_sets = classify_decisions(
        [(result.significant, result.threshold) for result in results],
        embedded, dataset)
    outcomes = []
    for result, classified in zip(results, classified_sets):
        n_tp = sum(1 for c in classified
                   if c.status == RuleStatus.TRUE_POSITIVE)
        n_fp = sum(1 for c in classified
                   if c.status == RuleStatus.FALSE_POSITIVE)
        n_by = sum(1 for c in classified
                   if c.status == RuleStatus.BYPRODUCT)
        outcomes.append(DatasetOutcome(
            method=result.method,
            n_significant=len(result.significant),
            n_true_positives=n_tp,
            n_false_positives=n_fp,
            n_byproducts=n_by,
            n_embedded=len(embedded),
            n_detected=_count_detected(classified, embedded, dataset),
            threshold=result.threshold,
            classified=classified,
        ))
    return outcomes


def _count_detected(classified: Sequence[ClassifiedRule],
                    embedded: Sequence[EmbeddedRule],
                    dataset: Dataset) -> int:
    """Embedded rules matched by at least one true-positive rule."""
    if not embedded:
        return 0
    embedded_tidsets = [dataset.pattern_tidset(e.item_ids)
                        for e in embedded]
    detected = [False] * len(embedded)
    for c in classified:
        if c.status != RuleStatus.TRUE_POSITIVE:
            continue
        tids = dataset.pattern_tidset(c.rule.items)
        for i, (e, tids_t) in enumerate(zip(embedded, embedded_tidsets)):
            if (not detected[i] and c.rule.class_index == e.class_index
                    and tids == tids_t):
                detected[i] = True
    return sum(detected)


@dataclass
class AggregateMetrics:
    """Averages over the replicate datasets of one experimental cell."""

    method: str
    n_datasets: int
    power: float
    fwer: float
    fdr: float
    avg_false_positives: float
    avg_significant: float

    def row(self) -> List[object]:
        """Row form for the reporting tables."""
        return [self.method, self.n_datasets, round(self.power, 4),
                round(self.fwer, 4), round(self.fdr, 4),
                round(self.avg_false_positives, 4),
                round(self.avg_significant, 2)]


def aggregate(outcomes: Sequence[DatasetOutcome]) -> AggregateMetrics:
    """Average per-dataset outcomes the way Section 5.2 prescribes."""
    if not outcomes:
        raise EvaluationError("no outcomes to aggregate")
    methods = {o.method for o in outcomes}
    if len(methods) != 1:
        raise EvaluationError(
            f"cannot aggregate across methods {sorted(methods)}")
    n = len(outcomes)
    return AggregateMetrics(
        method=outcomes[0].method,
        n_datasets=n,
        power=sum(o.power for o in outcomes) / n,
        fwer=sum(o.fwer_indicator for o in outcomes) / n,
        fdr=sum(o.fdr for o in outcomes) / n,
        avg_false_positives=sum(o.n_false_positives
                                for o in outcomes) / n,
        avg_significant=sum(o.n_significant for o in outcomes) / n,
    )
