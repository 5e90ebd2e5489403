"""General association rules ``X => Y`` with item consequents.

Section 2 of the paper scopes the study to *class* association rules
but notes that "the definitions and methods described in the paper can
be easily extended to other forms of association rules". This module
is that extension for the classic market-basket form (Agrawal et al.,
SIGMOD 1993): both sides of a rule are itemsets.

The statistical treatment carries over verbatim — a rule ``X => Y``
tests the independence of the indicator of ``X`` against the indicator
of ``Y``, a 2x2 table scored by the same two-tailed Fisher exact test
(``n`` records, margin ``supp(Y)`` in place of the class support,
margin ``supp(X)``, observed cell ``supp(X u Y)``).

:class:`GeneralRuleSet` is deliberately duck-type compatible with
:class:`~repro.mining.rules.RuleSet` where correction procedures are
concerned (``rules`` with ``p_value`` attributes, ``p_values()``,
``n_tests``), so the whole *direct-adjustment* catalogue applies
unchanged: Bonferroni, Holm, Hochberg, Šidák, BH, BY, Storey, BKY.
The permutation and holdout approaches are specific to class labels
(they shuffle or split the label column) and are not available for
general rules — re-sampling item columns would destroy the very
correlations being tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import MiningError
from ..stats.pvalue_tables import score_rules
from .apriori import FrequentPattern, mine_apriori

__all__ = ["GeneralRule", "GeneralRuleSet", "mine_general_rules",
           "rules_from_patterns"]


@dataclass
class GeneralRule:
    """One association rule ``X => Y`` over item ids, with statistics.

    ``coverage`` is ``supp(X)``, ``consequent_support`` is ``supp(Y)``
    and ``support`` is ``supp(X u Y)`` — the same vocabulary the class
    rules use, with the consequent margin taking the class margin's
    role in the Fisher table.
    """

    antecedent: frozenset
    consequent: frozenset
    coverage: int
    consequent_support: int
    support: int
    confidence: float
    p_value: float

    @property
    def length(self) -> int:
        """Number of items on the left-hand side."""
        return len(self.antecedent)

    @property
    def items(self) -> frozenset:
        """All items of the rule (``X u Y``)."""
        return self.antecedent | self.consequent

    def lift(self, n: int) -> float:
        """Confidence over the consequent's base rate."""
        if self.consequent_support == 0:
            return float("inf") if self.confidence > 0 else 1.0
        return self.confidence / (self.consequent_support / n)

    def describe(self, item_names: Optional[Sequence[str]] = None) -> str:
        """Render the rule, with item names when provided."""
        def label(item: int) -> str:
            if item_names is not None:
                return str(item_names[item])
            return str(item)

        lhs = "{" + ", ".join(sorted(label(i)
                                     for i in self.antecedent)) + "}"
        rhs = "{" + ", ".join(sorted(label(i)
                                     for i in self.consequent)) + "}"
        return (f"{lhs} => {rhs}  "
                f"(coverage={self.coverage}, support={self.support}, "
                f"confidence={self.confidence:.3f}, "
                f"p={self.p_value:.3g})")


@dataclass
class GeneralRuleSet:
    """The outcome of one general-rule mining run.

    Duck-type compatible with :class:`~repro.mining.rules.RuleSet` for
    every direct-adjustment correction: exposes ``rules``,
    ``p_values()`` and ``n_tests``.
    """

    rules: List[GeneralRule]
    n_records: int
    min_sup: int

    @property
    def n_tests(self) -> int:
        """The multiple-testing denominator ``Nt``."""
        return len(self.rules)

    def p_values(self) -> List[float]:
        """P-values of all rules, in rule order."""
        return [rule.p_value for rule in self.rules]

    def sorted_by_p(self) -> List[GeneralRule]:
        """Rules in ascending p-value order (stable)."""
        return sorted(self.rules, key=lambda r: r.p_value)

    def describe(self, limit: int = 20,
                 item_names: Optional[Sequence[str]] = None) -> str:
        """Multi-line listing of the most significant rules."""
        lines = [f"{len(self.rules)} general rules "
                 f"(min_sup={self.min_sup}, n={self.n_records}):"]
        for rule in self.sorted_by_p()[:limit]:
            lines.append("  " + rule.describe(item_names))
        if len(self.rules) > limit:
            lines.append(f"  ... and {len(self.rules) - limit} more")
        return "\n".join(lines)


def mine_general_rules(
    item_tidsets: Sequence[int],
    n_records: int,
    min_sup: int,
    min_conf: float = 0.0,
    max_length: Optional[int] = None,
    max_consequent: int = 1,
) -> GeneralRuleSet:
    """Mine and score all general association rules.

    Frequent patterns come from Apriori; every frequent pattern
    ``Z`` with at least two items is split into ``Z \\ Y => Y`` for
    every consequent ``Y`` of size up to ``max_consequent``. Both
    sides of an emitted rule are frequent by anti-monotonicity.

    Parameters
    ----------
    min_conf:
        Domain-significance filter, exactly as for class rules. Note
        that filtering by confidence *before* correction changes the
        hypothesis count; the paper's experiments use 0.
    max_consequent:
        Cap on ``|Y|``. The default 1 matches the classic Agrawal
        formulation and keeps the hypothesis count linear in the
        pattern count rather than exponential.
    """
    if min_sup < 1:
        raise MiningError(f"min_sup must be >= 1, got {min_sup}")
    if not 0.0 <= min_conf <= 1.0:
        raise MiningError("min_conf must be within [0, 1]")
    if max_consequent < 1:
        raise MiningError("max_consequent must be >= 1")
    patterns = mine_apriori(item_tidsets, n_records, min_sup,
                            max_length=max_length)
    return rules_from_patterns(patterns, n_records, min_sup,
                               min_conf=min_conf,
                               max_consequent=max_consequent)


def rules_from_patterns(
    patterns: Sequence[FrequentPattern],
    n_records: int,
    min_sup: int,
    min_conf: float = 0.0,
    max_consequent: int = 1,
) -> GeneralRuleSet:
    """Split pre-mined frequent patterns into scored rules.

    Exposed separately so callers who already hold a pattern set (for
    instance from :func:`~repro.mining.apriori.mine_apriori`) do not
    mine twice. Every rule is scored from one
    :func:`~repro.stats.pvalue_tables.score_rules` store, with the
    distinct consequent supports as its margins.
    """
    support_of: Dict[frozenset, int] = {p.items: p.support
                                        for p in patterns}
    rows: List[tuple] = []
    for pattern in patterns:
        if pattern.length < 2:
            continue
        items = sorted(pattern.items)
        for size in range(1, min(max_consequent, len(items) - 1) + 1):
            for consequent_items in combinations(items, size):
                consequent = frozenset(consequent_items)
                antecedent = pattern.items - consequent
                coverage = support_of[antecedent]
                confidence = (pattern.support / coverage
                              if coverage else 0.0)
                if confidence >= min_conf:
                    rows.append((antecedent, consequent, coverage,
                                 support_of[consequent], pattern.support,
                                 confidence))
    p_values: List[float] = []
    if rows:
        _, _, coverages, consequent_supports, supports, _ = zip(*rows)
        margins, margin_index = np.unique(consequent_supports,
                                          return_inverse=True)
        p_values = score_rules(n_records, margins, margin_index,
                               coverages, supports)[0].tolist()
    rules = [GeneralRule(*row, p_value=p_value)
             for row, p_value in zip(rows, p_values)]
    return GeneralRuleSet(rules=rules, n_records=n_records,
                          min_sup=min_sup)
