"""Class association rule generation (Sections 2.1 and 3).

Rules have the form ``X => c`` with ``X`` a (closed) frequent pattern
and ``c`` a class label. Following Section 3:

* with exactly two classes, testing ``X => c`` is equivalent to testing
  ``X => not-c`` (the two-tailed p-value is identical), so **one rule
  per pattern** is generated — by default on the class the pattern is
  positively associated with, or on a fixed ``rhs_class`` when the
  caller wants a single reporting convention (Table 4 uses
  ``class=good``);
* with ``m > 2`` classes, **m rules per pattern** are generated.

A :class:`RuleSet` holds its rules as columns: pattern id, class,
support, confidence and the two-tailed Fisher p-value, read from one
:class:`~repro.stats.pvalue_tables.PValueTables` store that holds one
table per distinct ``(class, coverage)`` key, so repeated coverages
cost one table lookup. Class supports come from one
:func:`class_supports` call over :attr:`RuleSet.matrix`, the function
the numpy permutation pass and the holdout evaluation half count
theirs with. Score builds no rule objects: :attr:`RuleSet.rules`
builds :class:`ClassRule` views on access, and the corrections select
rows on the p-value column.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..bitmat import BitMatrix
from ..data.dataset import Dataset
from ..errors import MiningError
from ..stats.pvalue_tables import SCORERS, PValueTables, score_rules
from .closed import mine_closed
from .patterns import PatternSet

__all__ = ["ClassRule", "RuleSet", "Rules", "class_supports",
           "generate_rules", "mine_class_rules"]


@dataclass(frozen=True, slots=True)
class ClassRule:
    """One class association rule ``X => c`` with its statistics.

    ``pattern_id`` is the position of the rule's pattern in the owning
    :class:`RuleSet`'s pattern set (and its row in
    :attr:`RuleSet.matrix`); ``items`` are catalog item ids. A rule
    read from a :class:`RuleSet` is a view of its row, so it is frozen:
    a write would not reach the columns. Equal rules hash alike.
    """

    pattern_id: int
    items: frozenset
    class_index: int
    coverage: int
    support: int
    confidence: float
    p_value: float

    @property
    def length(self) -> int:
        """Number of items on the left-hand side."""
        return len(self.items)

    def lift(self, n: int, n_c: int) -> float:
        """Confidence over the class prior ``n_c / n``."""
        if n_c == 0:
            return float("inf") if self.confidence > 0 else 1.0
        return self.confidence / (n_c / n)

    def describe(self, dataset: Dataset) -> str:
        """Render the rule with item and class names."""
        lhs = dataset.catalog.describe_pattern(self.items)
        rhs = dataset.class_names[self.class_index]
        return (f"{lhs} => {rhs}  "
                f"(coverage={self.coverage}, support={self.support}, "
                f"confidence={self.confidence:.3f}, p={self.p_value:.3g})")

    def to_json(self) -> Dict[str, object]:
        """Plain-JSON form; floats round-trip exactly, items sorted."""
        return {
            "pattern_id": self.pattern_id,
            "items": sorted(int(i) for i in self.items),
            "class_index": self.class_index,
            "coverage": self.coverage,
            "support": self.support,
            "confidence": float(self.confidence),
            "p_value": float(self.p_value),
        }

    @classmethod
    def from_json(cls, payload) -> "ClassRule":
        """Rebuild a rule from :meth:`to_json` output."""
        return cls(
            pattern_id=int(payload["pattern_id"]),
            items=frozenset(int(i) for i in payload["items"]),
            class_index=int(payload["class_index"]),
            coverage=int(payload["coverage"]),
            support=int(payload["support"]),
            confidence=float(payload["confidence"]),
            p_value=float(payload["p_value"]),
        )


class RuleSet:
    """The outcome of one mining run: rule columns plus shared context.

    Row ``i`` of every column is rule ``i``: ``pattern_ids`` (its
    pattern's position in ``patterns``), ``classes``, ``supports``
    (int64), ``confidences`` and the p-values (float64). A rule's
    coverage is ``coverages[pattern_id]``, its items its pattern's.
    ``n_tests`` is the paper's ``Nt``, the number of hypotheses tested
    (one per pattern for two classes, ``m`` per pattern otherwise). A
    pattern sequence that is not a :class:`PatternSet` is packed into
    one. The constructor checks outside input: equal-length columns,
    pattern ids and classes in range.
    """

    def __init__(self, dataset: Dataset, patterns, pattern_ids,
                 classes, supports, confidences, p_values,
                 min_sup: int, scorer: str = "fisher",
                 tables: Optional[PValueTables] = None) -> None:
        if not isinstance(patterns, PatternSet):
            patterns = PatternSet.pack(patterns, dataset.n_records,
                                       min_sup)
        elif patterns.n_records != dataset.n_records:
            raise MiningError(
                f"patterns mined over {patterns.n_records} records "
                f"cannot be scored on {dataset.n_records}")
        columns = [np.asarray(column, dtype=dtype) for column, dtype in (
            (pattern_ids, np.int64), (classes, np.int64),
            (supports, np.int64), (confidences, np.float64),
            (p_values, np.float64))]
        n = columns[0].shape
        if len(n) != 1 or any(c.shape != n for c in columns):
            raise MiningError(
                "rule columns differ in length: "
                f"{[c.shape for c in columns]}")
        for name, column, bound in (("pattern id", columns[0],
                                     len(patterns)),
                                    ("class", columns[1],
                                     dataset.n_classes)):
            bad = np.flatnonzero((column < 0) | (column >= bound))
            if bad.size:
                raise MiningError(
                    f"rule {bad[0]} has {name} {column[bad[0]]} outside "
                    f"[0, {bound})")
        self.dataset = dataset
        self.patterns = patterns
        (self.pattern_ids, self.classes, self.supports, self.confidences,
         self._p_values) = columns
        self.min_sup = min_sup
        self.scorer = scorer
        self._tables = tables

    def take(self, rows: Sequence[int]) -> "RuleSet":
        """The rules at ``rows``, every column cut, on the same
        patterns and p-value tables."""
        rows = np.asarray(rows, dtype=np.int64)
        return RuleSet(self.dataset, self.patterns, self.pattern_ids[rows],
                       self.classes[rows], self.supports[rows],
                       self.confidences[rows], self._p_values[rows],
                       self.min_sup, self.scorer, self._tables)

    @property
    def rules(self) -> "Rules":
        """The rules as a read-only sequence of :class:`ClassRule`
        views, built on access."""
        return Rules(self)

    @property
    def matrix(self) -> BitMatrix:
        """Every pattern's tidset, one row per pattern (roots
        included), as Score counted them: the pattern set's matrix."""
        return self.patterns.matrix

    @property
    def coverages(self) -> np.ndarray:
        """``supp(X)`` of every pattern, in pattern order (int64)."""
        return self.patterns.supports

    @property
    def tables(self) -> PValueTables:
        """The scorer's p-value table of every rule's ``(class,
        coverage)`` key.

        Fisher and mid-p rule sets carry the store Score read their
        p-values from. Chi-square rule sets are scored directly and
        build theirs here, on first use.
        """
        if self._tables is None:
            dataset = self.dataset
            self._tables = PValueTables(
                dataset.n_records,
                [dataset.class_support(c)
                 for c in range(dataset.n_classes)],
                self.classes, self.coverages[self.pattern_ids],
                self.scorer)
        return self._tables

    @property
    def n_tests(self) -> int:
        """The multiple-testing denominator ``Nt``."""
        return len(self.pattern_ids)

    def p_values(self) -> np.ndarray:
        """P-values of all rules, in rule order (float64)."""
        return self._p_values

    def sorted_by_p(self) -> List[ClassRule]:
        """Rules in ascending p-value order (stable)."""
        return self.rules[np.argsort(self._p_values, kind="stable")]

    def describe(self, limit: int = 20) -> str:
        """Multi-line listing of the most significant rules."""
        lines = [f"{self.n_tests} rules (min_sup={self.min_sup}, "
                 f"scorer={self.scorer}) on {self.dataset.name}:"]
        top = np.argsort(self._p_values, kind="stable")[:limit]
        for rule in self.rules[top]:
            lines.append("  " + rule.describe(self.dataset))
        if self.n_tests > limit:
            lines.append(f"  ... and {self.n_tests - limit} more")
        return "\n".join(lines)


class Rules(SequenceABC):
    """A :class:`RuleSet`'s rules as a read-only sequence.

    ``len``, iteration and indexing by an int, a slice, an integer
    array or a boolean mask (a list of rules, in that order) build
    :class:`ClassRule` views on access; their fields are plain
    ``int``/``float``.
    """

    __slots__ = ("_ruleset",)

    def __init__(self, ruleset: RuleSet) -> None:
        self._ruleset = ruleset

    def __len__(self) -> int:
        return self._ruleset.n_tests

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._views(np.arange(len(self))[index])
        if np.ndim(index) == 0:
            return self._views([range(len(self))[index]])[0]
        return self._views(index)

    def __iter__(self) -> Iterator[ClassRule]:
        return iter(self._views(np.arange(len(self))))

    def _views(self, rows) -> List[ClassRule]:
        ruleset = self._ruleset
        rows = np.asarray(rows)
        rows = (np.flatnonzero(rows) if rows.dtype == bool
                else rows.astype(np.int64, copy=False))
        ids = ruleset.pattern_ids[rows]
        if not len(ids):
            return []
        # One list of the item ids the rows' patterns span.
        first = int(ids.min())
        offsets = ruleset.patterns.item_offsets
        flat = ruleset.patterns.item_ids[
            offsets[first]:offsets[int(ids.max()) + 1]].tolist()
        starts = (offsets[ids] - offsets[first]).tolist()
        stops = (offsets[ids + 1] - offsets[first]).tolist()
        columns = (ids.tolist(),
                   list(map(frozenset, map(flat.__getitem__,
                                           map(slice, starts, stops)))),
                   ruleset.classes[rows].tolist(),
                   ruleset.coverages[ids].tolist(),
                   ruleset.supports[rows].tolist(),
                   ruleset.confidences[rows].tolist(),
                   ruleset.p_values()[rows].tolist())
        # Filled a field at a time through the slot descriptors: the
        # frozen ``__init__``'s ``object.__setattr__`` per field costs
        # more than the rest of a view.
        views = [_new(ClassRule) for _ in range(len(ids))]
        for setter, column in zip(_SLOT_SETTERS, columns):
            deque(map(setter, views, column), maxlen=0)
        return views


#: Each :class:`ClassRule` field's slot setter, in field order.
_SLOT_SETTERS = [getattr(ClassRule, f.name).__set__
                 for f in fields(ClassRule)]
_new = object.__new__


def generate_rules(
    dataset: Dataset,
    patterns: Sequence,
    min_sup: int,
    min_conf: float = 0.0,
    rhs_class: Optional[int] = None,
    scorer: str = "fisher",
) -> RuleSet:
    """Turn mined patterns into scored class association rules.

    Parameters
    ----------
    patterns:
        A :class:`~repro.mining.patterns.PatternSet` from any miner, or
        any sequence of patterns (packed with
        :meth:`~repro.mining.patterns.PatternSet.pack`). Patterns with
        empty ``items`` (roots) bear no rule and are skipped. A rule's
        ``pattern_id`` is its pattern's position in the set.
    min_conf:
        The domain-significance filter; the paper's experiments set it
        to 0 so statistical control is exercised alone.
    rhs_class:
        For binary data, force every rule onto this class index (the
        paper's Table 4 reports rules as ``=> good``); ``None`` picks
        the positively associated class per pattern. Ignored when the
        dataset has more than two classes.
    scorer:
        ``"fisher"`` (exact, the paper's choice), ``"fisher-midp"``
        (Lancaster mid-p, less conservative) or ``"chi2"``.
    """
    if scorer not in SCORERS:
        raise MiningError(f"unknown scorer {scorer!r}")
    if not 0.0 <= min_conf <= 1.0:
        raise MiningError("min_conf must be within [0, 1]")
    if rhs_class is not None and not 0 <= rhs_class < dataset.n_classes:
        raise MiningError(f"rhs_class {rhs_class} out of range")
    # An empty rule set packs and checks the patterns.
    patterns = RuleSet(dataset, patterns, [], [], [], [], [],
                       min_sup).patterns
    class_n = [dataset.class_support(c) for c in range(dataset.n_classes)]
    ids, classes, coverages, supports, confidence = _rule_columns(
        dataset, patterns, class_n, min_conf, rhs_class)
    p_values, tables = score_rules(dataset.n_records, class_n, classes,
                                   coverages, supports, scorer)
    return RuleSet(dataset, patterns, ids, classes, supports, confidence,
                   p_values, min_sup, scorer, tables)


def _rule_columns(dataset: Dataset, patterns: PatternSet,
                  class_n: List[int], min_conf: float,
                  rhs_class: Optional[int]) -> Tuple[np.ndarray, ...]:
    """Pattern id, class, coverage, support and confidence of every
    rule, in pattern order, then ascending class."""
    n_classes = dataset.n_classes
    labels = np.asarray(dataset.class_labels, dtype=np.int64)
    coverages = patterns.supports
    supports = class_supports(patterns.matrix, coverages, labels[None, :],
                              range(n_classes), n_classes)[:, 0]
    confidence = np.divide(supports, coverages,
                           out=np.zeros(supports.shape),
                           where=coverages > 0)
    # keep[c, i]: pattern i bears a rule on class c. Roots (empty LHS)
    # bear none; binary data keeps one class per pattern.
    keep = (patterns.lengths > 0) & (confidence >= min_conf)
    if n_classes == 2:
        target = rhs_class
        if target is None:
            # The positively associated class: the largest lift, the
            # lowest class among equal lifts; a class of prior 0 has
            # lift inf.
            prior = np.array(class_n)[:, None] / dataset.n_records
            lift = np.full(confidence.shape, np.inf)
            np.divide(confidence, prior, out=lift, where=prior > 0)
            target = np.argmax(lift, axis=0)
        keep &= np.arange(n_classes)[:, None] == target
    ids, classes = np.nonzero(keep.T)
    return (ids, classes, coverages[ids], supports[classes, ids],
            confidence[classes, ids])


def class_supports(matrix: BitMatrix, coverages: np.ndarray,
                   labels: np.ndarray, classes: Sequence[int],
                   n_classes: int) -> np.ndarray:
    """``(len(classes), B, n_rows)`` supports ``|row ∩ classes[k]|``
    under each of ``B`` labellings (a ``(B, n_records)`` matrix).

    The one class-support count of Score (``B = 1``), the holdout
    evaluation half and the numpy permutation pass (the native pass
    counts inside its kernel). Binary data counts class
    0 only, class 1 is ``coverages`` (each row's support) minus that;
    more classes share one kernel dispatch.
    """
    if n_classes > 2:
        return matrix.class_supports_multi(
            np.stack([labels == c for c in classes]))
    counted = matrix.class_supports_batch(labels == 0)
    return np.stack([counted if c == 0 else coverages - counted
                     for c in classes])


def mine_class_rules(
    dataset: Dataset,
    min_sup: int,
    min_conf: float = 0.0,
    max_length: Optional[int] = None,
    rhs_class: Optional[int] = None,
    scorer: str = "fisher",
) -> RuleSet:
    """Mine closed patterns and score their class rules in one call.

    This is the Section 3 pipeline: closed frequent pattern mining with
    class-frequency counting, producing one hypothesis per pattern (two
    classes) or ``m`` per pattern (``m > 2`` classes).
    """
    if min_sup < 1:
        raise MiningError(f"min_sup must be >= 1, got {min_sup}")
    if min_sup > dataset.n_records:
        raise MiningError(
            f"min_sup={min_sup} exceeds dataset size {dataset.n_records}")
    patterns = mine_closed(dataset.item_tidsets, dataset.n_records,
                           min_sup, max_length=max_length)
    return generate_rules(dataset, patterns, min_sup, min_conf=min_conf,
                          rhs_class=rhs_class, scorer=scorer)
