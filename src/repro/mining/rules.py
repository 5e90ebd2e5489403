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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..data.dataset import Dataset
from ..errors import MiningError
from ..stats.pvalue_tables import SCORERS, PValueTables, score_rules
from ..tidvector import as_tidvector
from .closed import mine_closed
from .patterns import Pattern

__all__ = ["ClassRule", "RuleSet", "generate_rules", "mine_class_rules"]


@dataclass
class ClassRule:
    """One class association rule ``X => c`` with its statistics.

    ``pattern_id`` indexes the pattern list of the owning
    :class:`RuleSet`; ``items`` are catalog item ids.
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
    pattern count.
    """

    dataset: Dataset
    patterns: List[Pattern]
    rules: List[ClassRule]
    min_sup: int
    scorer: str = "fisher"
    _tables: Optional[PValueTables] = field(default=None, repr=False,
                                            compare=False)

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
    patterns: Sequence[Pattern],
    min_sup: int,
    min_conf: float = 0.0,
    rhs_class: Optional[int] = None,
    scorer: str = "fisher",
) -> RuleSet:
    """Turn mined patterns into scored class association rules.

    Parameters
    ----------
    patterns:
        Any forest-ordered pattern sequence — a raw
        :func:`~repro.mining.closed.mine_closed` list or a
        :class:`~repro.mining.patterns.PatternSet` from any registered
        miner. Patterns with empty ``items`` (forest roots) bear no
        rule and are skipped.
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
    n = dataset.n_records
    class_supports = [dataset.class_support(c)
                      for c in range(dataset.n_classes)]
    rules: List[ClassRule] = []
    binary = dataset.n_classes == 2
    for pattern in patterns:
        if not pattern.items:
            continue  # the root (empty LHS) is not a rule
        coverage = pattern.support
        tids = as_tidvector(pattern.tidset, n)
        if binary:
            supp_c0 = tids.intersection_count(dataset.class_tidset(0))
            supports = (supp_c0, coverage - supp_c0)
            if rhs_class is not None:
                target = rhs_class
            else:
                target = _positively_associated_class(
                    supports, coverage, class_supports, n)
            candidates = [target]
        else:
            supports = tuple(
                tids.intersection_count(dataset.class_tidset(c))
                for c in range(dataset.n_classes))
            candidates = list(range(dataset.n_classes))
        for c in candidates:
            support = supports[c]
            confidence = support / coverage if coverage else 0.0
            if confidence < min_conf:
                continue
            rules.append(ClassRule(
                pattern_id=pattern.node_id,
                items=pattern.items,
                class_index=c,
                coverage=coverage,
                support=support,
                confidence=confidence,
                p_value=1.0,  # scored below, all rules at once
            ))
    p_values, tables = score_rules(
        n, class_supports, [rule.class_index for rule in rules],
        [rule.coverage for rule in rules],
        [rule.support for rule in rules], scorer)
    for rule, p_value in zip(rules, p_values):
        rule.p_value = p_value
    return RuleSet(dataset=dataset, patterns=list(patterns), rules=rules,
                   min_sup=min_sup, scorer=scorer, _tables=tables)


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


def _positively_associated_class(supports: Sequence[int], coverage: int,
                                 class_supports: Sequence[int],
                                 n: int) -> int:
    """Class with the largest lift within the pattern's records."""
    best_class = 0
    best_lift = float("-inf")
    for c, support in enumerate(supports):
        prior = class_supports[c] / n if n else 0.0
        confidence = support / coverage if coverage else 0.0
        lift = confidence / prior if prior > 0 else float("inf")
        if lift > best_lift:
            best_lift = lift
            best_class = c
    return best_class
