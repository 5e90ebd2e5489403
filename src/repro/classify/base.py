"""Shared plumbing for associative classifiers.

A classifier consumes :class:`~repro.mining.rules.ClassRule` objects and
predicts the class of a *record item set*: the frozenset of catalog item
ids the record contains. Records of any :class:`~repro.data.dataset.
Dataset` sharing the training catalog can be converted with
:func:`record_item_sets`, which is what lets cross-validation reuse one
catalog across train/test splits (``Dataset.subset`` keeps the catalog).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from ..data.dataset import Dataset
from ..errors import DataError
from ..mining.rules import ClassRule
from ..tidvector import TidVector, as_tidvector

__all__ = ["Prediction", "record_item_sets", "rule_matches"]


@dataclass(frozen=True)
class Prediction:
    """Outcome of classifying one record.

    Attributes
    ----------
    class_index:
        The predicted class.
    rule:
        The rule that fired (CBA) or the highest-scoring rule of the
        winning class (CMAR); ``None`` when the default class was used.
    score:
        Method-specific confidence in the prediction: the firing rule's
        confidence for CBA, the winning class's normalized vote for
        CMAR, and the default-class training prior when no rule fired.
    is_default:
        True when no rule matched and the default class was returned.
    """

    class_index: int
    rule: Optional[ClassRule]
    score: float
    is_default: bool


def record_item_sets(dataset: Dataset) -> List[FrozenSet[int]]:
    """Materialize, per record, the frozenset of item ids it contains.

    The inverse of the dataset's columnar layout; classifiers match
    rule left-hand sides against these sets.
    """
    sets: List[set] = [set() for _ in range(dataset.n_records)]
    for item_id, tids in enumerate(dataset.item_tidsets):
        for r in tids.indices():
            sets[r].add(item_id)
    return [frozenset(s) for s in sets]


def rule_matches(rule: ClassRule, items: FrozenSet[int]) -> bool:
    """True when the rule's left-hand side is contained in the record."""
    return rule.items <= items


def majority_class(dataset: Dataset,
                   tidset: Optional[TidVector] = None) -> int:
    """Most frequent class among ``tidset`` records (whole data if None).

    ``tidset`` is a packed :class:`~repro.tidvector.TidVector`. Ties
    break toward the smaller class index so the choice is
    deterministic.
    """
    if dataset.n_records == 0:
        raise DataError("cannot take a majority over an empty dataset")
    if tidset is not None:
        tidset = as_tidvector(tidset, dataset.n_records)
    best_class = 0
    best_count = -1
    for c in range(dataset.n_classes):
        class_tids = dataset.class_tidset(c)
        count = (class_tids.count() if tidset is None
                 else class_tids.intersection_count(tidset))
        if count > best_count:
            best_count = count
            best_class = c
    return best_class
