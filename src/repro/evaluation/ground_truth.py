"""Ground-truth classification of significant rules (Section 5.2).

Embedding one rule ``Rt : Xt => ct`` in a synthetic dataset makes many
*other* rules genuinely low-p: sub- and super-patterns of ``Xt`` share
records with it, so their class distribution really is distorted. The
paper therefore refuses to count such by-products as false positives.
A significant rule ``R : X => c`` (with ``R != Rt``) is a **false
positive** iff

* ``T(Xt) ∩ T(X) = ∅`` — it shares no records with the planted rule,
  so the planted rule cannot explain it; or
* the overlap is non-empty but ``p(R | ¬Rt) <= alpha`` — even after
  discounting the planted rule's effect, ``R`` would still have been
  declared significant, so its significance is *not* explained by
  ``Rt``.

``p(R|¬Rt)`` re-scores ``R`` with its support adjusted to what it would
have been were the overlap's class distribution at the background rate:

    supp(R|¬Rt) = supp(X ∪ Xt) * n_c / n + (supp(R) - supp(X ∪ Xt ∪ c))

(The paper states the formula for ``c = ct``; we use ``R``'s own class
``c`` throughout, which coincides with the paper's form whenever the
by-product shares the planted rule's class and generalizes it
otherwise.)

With several embedded rules the definition generalizes conservatively:
``R`` is a true positive when it matches *some* embedded rule, and is
excused (a by-product) when *some* embedded rule both overlaps it and
explains its significance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..data.dataset import Dataset
from ..data.synthetic import EmbeddedRule
from ..errors import EvaluationError
from ..mining.rules import ClassRule
from ..stats.hypergeom import support_bounds
from ..stats.pvalue_tables import PValueTables
from ..tidvector import TidVector

__all__ = [
    "RuleStatus",
    "ClassifiedRule",
    "classify_rules",
    "classify_decisions",
    "matches_embedded",
    "adjusted_p_value",
]


class RuleStatus:
    """Classification outcomes for a significant rule."""

    TRUE_POSITIVE = "true_positive"
    FALSE_POSITIVE = "false_positive"
    BYPRODUCT = "byproduct"


@dataclass
class ClassifiedRule:
    """One significant rule with its ground-truth verdict.

    ``adjusted_p`` is the smallest excusal p-value ``p(R|¬Rt)`` over
    overlapping embedded rules (``None`` when no embedded rule
    overlaps).
    """

    rule: ClassRule
    status: str
    adjusted_p: Optional[float] = None


def matches_embedded(rule: ClassRule, embedded: EmbeddedRule,
                     dataset: Dataset,
                     rule_tidset: Optional[TidVector] = None) -> bool:
    """Is this mined rule *the* embedded rule?

    Closed mining reports the closure of ``Xt``, which occurs in exactly
    the same records, so identity is tidset equality plus the embedded
    class on the right-hand side.
    """
    if rule.class_index != embedded.class_index:
        return False
    tids = (dataset.pattern_tidset(rule.items)
            if rule_tidset is None else rule_tidset)
    return tids == dataset.pattern_tidset(embedded.item_ids)


def adjusted_p_value(rule: ClassRule, embedded: EmbeddedRule,
                     dataset: Dataset, tables: PValueTables,
                     rule_tidset: Optional[TidVector] = None,
                     ) -> Optional[float]:
    """``p(R|¬Rt)``: the rule's p-value discounting the embedded rule.

    ``tables`` must hold the exact Fisher table of the rule's class at
    its coverage on ``dataset``. Returns ``None`` when the rule and the
    embedded rule share no records (the adjustment is undefined; the
    rule is a false positive by the first condition).
    """
    tids_x = (dataset.pattern_tidset(rule.items)
              if rule_tidset is None else rule_tidset)
    tids_t = dataset.pattern_tidset(embedded.item_ids)
    overlap = tids_x & tids_t
    if not overlap:
        return None
    n = dataset.n_records
    n_c = dataset.class_support(rule.class_index)
    class_bits = dataset.class_tidset(rule.class_index)
    overlap_size = overlap.count()
    observed_overlap_c = overlap.intersection_count(class_bits)
    expected_overlap_c = overlap_size * n_c / n
    adjusted_support = expected_overlap_c + (rule.support
                                             - observed_overlap_c)
    supp_x = tids_x.count()
    # The adjusted support is fractional; evaluate the exact test at the
    # nearest reachable integer support.
    low, high = support_bounds(n, n_c, supp_x)
    k = min(max(round(adjusted_support), low), high)
    return tables.p_value(rule.class_index, supp_x, k)


def classify_rules(
    significant: Sequence[ClassRule],
    embedded: Sequence[EmbeddedRule],
    dataset: Dataset,
    threshold: float,
) -> List[ClassifiedRule]:
    """Classify every significant rule as TP, FP or by-product.

    Parameters
    ----------
    threshold:
        The correcting method's raw-p cut-off (``alpha`` in the
        Section 5.2 definition) used to judge whether an adjusted
        p-value still clears significance.
    """
    return classify_decisions([(significant, threshold)], embedded,
                              dataset)[0]


def classify_decisions(
    decisions: Sequence[Tuple[Sequence[ClassRule], float]],
    embedded: Sequence[EmbeddedRule],
    dataset: Dataset,
) -> List[List[ClassifiedRule]]:
    """:func:`classify_rules` for several ``(significant, threshold)``
    decisions made on one dataset.

    A rule's adjusted p-value does not depend on the threshold, so each
    distinct rule is judged once. The adjusted p-values read one exact
    Fisher store, built for the ``(class, coverage)`` keys of the rules
    that only an overlapping embedded rule can excuse.
    """
    if any(threshold < 0 for _, threshold in decisions):
        raise EvaluationError("threshold must be non-negative")
    embedded_tidsets = [dataset.pattern_tidset(e.item_ids)
                        for e in embedded]
    # rule -> (true positive?, most excusing adjusted p-value). Rules
    # are keyed by value, so equal rules from different decisions (each
    # correction builds its own views) are judged once. A rule that
    # matches no embedded rule is a false positive (on pure-noise data,
    # Section 5.4, every significant rule is one) unless an
    # overlapping embedded rule explains it away.
    judged: Dict[ClassRule, Tuple[bool, Optional[float]]] = {}
    excusable = []
    for significant, _ in decisions:
        for rule in significant:
            if rule in judged:
                continue
            tids_x = dataset.pattern_tidset(rule.items)
            matched = any(
                rule.class_index == e.class_index and tids_x == tids_t
                for e, tids_t in zip(embedded, embedded_tidsets))
            judged[rule] = (matched, None)
            overlapping = [] if matched else [
                e for e, tids_t in zip(embedded, embedded_tidsets)
                if tids_x.intersects(tids_t)]
            if overlapping:
                excusable.append((rule, tids_x, overlapping))
    if excusable:
        tables = PValueTables(
            dataset.n_records,
            [dataset.class_support(c) for c in range(dataset.n_classes)],
            [rule.class_index for rule, _, _ in excusable],
            [tids_x.count() for _, tids_x, _ in excusable])
        for rule, tids_x, overlapping in excusable:
            # The *most excusing* adjustment (never None: the records
            # overlap): if any embedded rule explains the significance
            # away, the rule is a by-product.
            judged[rule] = (False, max(
                adjusted_p_value(rule, e, dataset, tables,
                                 rule_tidset=tids_x)
                for e in overlapping))
    return [[_verdict(rule, *judged[rule], threshold)
             for rule in significant]
            for significant, threshold in decisions]


def _verdict(rule: ClassRule, matched: bool, adjusted: Optional[float],
             threshold: float) -> ClassifiedRule:
    if matched:
        return ClassifiedRule(rule, RuleStatus.TRUE_POSITIVE)
    if adjusted is not None and adjusted > threshold:
        return ClassifiedRule(rule, RuleStatus.BYPRODUCT, adjusted)
    return ClassifiedRule(rule, RuleStatus.FALSE_POSITIVE, adjusted)


def restrict_embedded(embedded: Iterable[EmbeddedRule],
                      dataset: Dataset) -> List[EmbeddedRule]:
    """Re-derive embedded-rule ground truth on a subset dataset.

    Holdout decisions are made on the evaluation half, so the
    false-positive analysis there needs the embedded rules' tidsets *on
    that half*. Item ids are shared between a dataset and its subsets
    (the catalog is common), so only the tidset needs recomputing.
    """
    out = []
    for e in embedded:
        tids = dataset.pattern_tidset(e.item_ids)
        out.append(EmbeddedRule(
            pairs=e.pairs,
            class_index=e.class_index,
            class_name=e.class_name,
            target_coverage=e.target_coverage,
            target_confidence=e.target_confidence,
            record_ids=[],
            item_ids=e.item_ids,
            tidset=tids,
        ))
    return out
