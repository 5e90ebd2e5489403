"""Scalar reference implementation of Score's rule generation.

:func:`repro.mining.rules.generate_rules` counts every pattern's class
supports with one :func:`~repro.mining.rules.class_supports` call and
picks classes, confidences and the ``min_conf`` filter with array ops.
This module is the per-pattern loop it must reproduce exactly: one
``intersection_count`` per pattern and class, the positively
associated class chosen by a running ``>`` over lifts (so the lowest
class wins a tie, and a class of prior 0 has lift ``inf``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.stats.pvalue_tables import score_rules
from repro.tidvector import as_tidvector

__all__ = ["reference_rules"]

#: ``(pattern_id, class_index, coverage, support, confidence, p_value)``
RuleTuple = Tuple[int, int, int, int, float, float]


def reference_rules(dataset, patterns, min_conf: float = 0.0,
                    rhs_class: Optional[int] = None,
                    scorer: str = "fisher") -> List[RuleTuple]:
    """The rules ``generate_rules`` must emit, in its order."""
    n = dataset.n_records
    class_supports = [dataset.class_support(c)
                      for c in range(dataset.n_classes)]
    binary = dataset.n_classes == 2
    rules = []
    for position, pattern in enumerate(patterns):
        if not pattern.items:
            continue
        coverage = pattern.support
        tids = as_tidvector(pattern.tidset, n)
        if binary:
            supp_c0 = tids.intersection_count(dataset.class_tidset(0))
            supports = (supp_c0, coverage - supp_c0)
            if rhs_class is not None:
                target = rhs_class
            else:
                target = positively_associated_class(
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
            rules.append((position, c, coverage, support, confidence))
    p_values, _ = score_rules(
        n, class_supports, [r[1] for r in rules], [r[2] for r in rules],
        [r[3] for r in rules], scorer)
    return [rule + (p,) for rule, p in zip(rules, p_values)]


def positively_associated_class(supports: Sequence[int], coverage: int,
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
