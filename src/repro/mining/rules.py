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

Every rule carries coverage, support, confidence and its two-tailed
Fisher p-value, read from one :class:`~repro.stats.pvalue_tables.
PValueTables` store that holds one table per distinct ``(class,
coverage)`` key, so repeated coverages cost one table lookup.
Class supports come from one :func:`class_supports` call over
:attr:`RuleSet.matrix`, the function the numpy permutation pass and the
holdout evaluation half count theirs with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bitmat import BitMatrix
from ..data.dataset import Dataset
from ..errors import MiningError
from ..stats.pvalue_tables import SCORERS, PValueTables, score_rules
from .closed import mine_closed
from .patterns import PatternSet

__all__ = ["ClassRule", "RuleSet", "class_supports", "generate_rules",
           "mine_class_rules"]


@dataclass(slots=True)
class ClassRule:
    """One class association rule ``X => c`` with its statistics.

    ``pattern_id`` is the position of the rule's pattern in the owning
    :class:`RuleSet`'s pattern set (and its row in
    :attr:`RuleSet.matrix`); ``items`` are catalog item ids.
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


@dataclass
class RuleSet:
    """The outcome of one mining run: rules plus shared context.

    ``n_tests`` is the paper's ``Nt``: the number of hypotheses tested,
    i.e. ``len(rules)`` (one per pattern for two classes, ``m`` per
    pattern otherwise). Correction procedures consume this, not the
    pattern count. A pattern sequence that is not a
    :class:`~repro.mining.patterns.PatternSet` is packed into one.
    """

    dataset: Dataset
    patterns: PatternSet
    rules: List[ClassRule]
    min_sup: int
    scorer: str = "fisher"
    _tables: Optional[PValueTables] = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.patterns, PatternSet):
            self.patterns = PatternSet.pack(
                self.patterns, self.dataset.n_records, self.min_sup)
        elif self.patterns.n_records != self.dataset.n_records:
            raise MiningError(
                f"patterns mined over {self.patterns.n_records} records "
                f"cannot be scored on {self.dataset.n_records}")

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
                [rule.class_index for rule in self.rules],
                [rule.coverage for rule in self.rules], self.scorer)
        return self._tables

    @property
    def n_tests(self) -> int:
        """The multiple-testing denominator ``Nt``."""
        return len(self.rules)

    def p_values(self) -> List[float]:
        """P-values of all rules, in rule order."""
        return [rule.p_value for rule in self.rules]

    def sorted_by_p(self) -> List[ClassRule]:
        """Rules in ascending p-value order (stable)."""
        return sorted(self.rules, key=lambda r: r.p_value)

    def describe(self, limit: int = 20) -> str:
        """Multi-line listing of the most significant rules."""
        lines = [f"{len(self.rules)} rules (min_sup={self.min_sup}, "
                 f"scorer={self.scorer}) on {self.dataset.name}:"]
        for rule in self.sorted_by_p()[:limit]:
            lines.append("  " + rule.describe(self.dataset))
        if len(self.rules) > limit:
            lines.append(f"  ... and {len(self.rules) - limit} more")
        return "\n".join(lines)


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
    class_n = [dataset.class_support(c) for c in range(dataset.n_classes)]
    ruleset = RuleSet(dataset=dataset, patterns=patterns, rules=[],
                      min_sup=min_sup, scorer=scorer)
    ids, classes, coverages, supports, confidence = _rule_columns(
        ruleset, class_n, min_conf, rhs_class)
    p_values, ruleset._tables = score_rules(
        dataset.n_records, class_n, classes.tolist(), coverages.tolist(),
        supports.tolist(), scorer)
    # Rules are built a chunk at a time, so the Python lists of their
    # fields stay small next to the rules themselves. Rules on one
    # pattern share its items.
    item_ids = ruleset.patterns.item_ids
    offsets = ruleset.patterns.item_offsets
    for start in range(0, len(ids), _RULE_CHUNK):
        chunk = slice(start, start + _RULE_CHUNK)
        first, last = int(ids[start]), int(ids[chunk][-1]) + 1
        flat = item_ids[offsets[first]:offsets[last]].tolist()
        bounds = (offsets[first:last + 1] - offsets[first]).tolist()
        items = [frozenset(flat[bounds[k]:bounds[k + 1]])
                 for k in range(last - first)]
        ruleset.rules.extend(
            ClassRule(pattern_id=i, items=items[i - first],
                      class_index=c, coverage=s, support=k,
                      confidence=f, p_value=p)
            for i, c, s, k, f, p in zip(
                ids[chunk].tolist(), classes[chunk].tolist(),
                coverages[chunk].tolist(), supports[chunk].tolist(),
                confidence[chunk].tolist(), p_values[chunk]))
    return ruleset


#: Rules built per chunk in :func:`generate_rules`.
_RULE_CHUNK = 4096


def _rule_columns(ruleset: RuleSet, class_n: List[int], min_conf: float,
                  rhs_class: Optional[int]) -> Tuple[np.ndarray, ...]:
    """Pattern id, class, coverage, support and confidence of every
    rule, in pattern order, then ascending class."""
    dataset = ruleset.dataset
    n_classes = dataset.n_classes
    labels = np.asarray(dataset.class_labels, dtype=np.int64)
    coverages = ruleset.coverages
    supports = class_supports(ruleset.matrix, coverages, labels[None, :],
                              range(n_classes), n_classes)[:, 0]
    confidence = np.divide(supports, coverages,
                           out=np.zeros(supports.shape),
                           where=coverages > 0)
    # keep[c, i]: pattern i bears a rule on class c. Roots (empty LHS)
    # bear none; binary data keeps one class per pattern.
    keep = (ruleset.patterns.lengths > 0) & (confidence >= min_conf)
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
