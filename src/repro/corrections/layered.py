"""Layered critical values (Webb, Machine Learning 2008).

The paper's related-work section (Section 6) discusses Webb's follow-up
to the holdout approach: instead of dividing ``alpha`` by the single
total hypothesis count, divide it first across *layers* — rule lengths —
and then within each layer across the hypotheses of that length. Short
rules are far fewer than long ones, so they receive much less stringent
critical values, recovering power exactly where interpretable rules
live. FWER is still controlled at ``alpha`` because the per-layer
budgets sum to ``alpha`` (a union bound over the union bound).

Two budgeting schemes are provided:

* ``budget="uniform"`` — each of the ``L`` occupied layers receives
  ``alpha / L`` (Webb's original formulation, with the number of tested
  rules of that length as the within-layer divisor);
* ``budget="geometric"`` — layer ``l`` receives ``alpha * 2^-l``
  (normalized), acknowledging that the number of potential hypotheses
  grows roughly geometrically with length.

This is the extension feature flagged in DESIGN.md; the paper's own
experiments do not include it, so benches report it separately.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from ..errors import CorrectionError
from ..mining.rules import ClassRule, RuleSet
from .base import FWER, CorrectionResult, validate_alpha

__all__ = ["layered_critical_values"]


def layered_critical_values(ruleset: RuleSet, alpha: float = 0.05,
                            budget: str = "uniform") -> CorrectionResult:
    """FWER control with per-length critical values.

    A rule of length ``l`` is significant when its p-value is at most
    ``alpha_l / Nt_l`` where ``alpha_l`` is the layer's share of
    ``alpha`` and ``Nt_l`` the number of tested rules of length ``l``.
    """
    validate_alpha(alpha)
    if budget not in ("uniform", "geometric"):
        raise CorrectionError(f"unknown budget scheme {budget!r}")
    by_length: Dict[int, List[ClassRule]] = defaultdict(list)
    for rule in ruleset.rules:
        by_length[rule.length].append(rule)
    if not by_length:
        return CorrectionResult(
            method="Layered", control=FWER, alpha=alpha, threshold=0.0,
            significant=[], n_tests=0,
            details={"budget": budget, "critical_values": {}},
        )
    lengths = sorted(by_length)
    shares = _layer_shares(lengths, alpha, budget)
    critical: Dict[int, float] = {}
    significant = []
    max_accepted = 0.0
    for length in lengths:
        rules = by_length[length]
        critical[length] = shares[length] / len(rules)
        for rule in rules:
            if rule.p_value <= critical[length]:
                significant.append(rule)
                max_accepted = max(max_accepted, rule.p_value)
    return CorrectionResult(
        method="Layered", control=FWER, alpha=alpha,
        # No single raw-p threshold exists (it varies per layer); report
        # the largest accepted p-value, which is what the FP analysis
        # uses as its excusal level.
        threshold=max_accepted,
        significant=significant,
        n_tests=ruleset.n_tests,
        details={"budget": budget, "critical_values": dict(critical)},
    )


def _layer_shares(lengths: List[int], alpha: float,
                  budget: str) -> Dict[int, float]:
    if budget == "uniform":
        share = alpha / len(lengths)
        return {length: share for length in lengths}
    weights = {length: 2.0 ** -length for length in lengths}
    total = sum(weights.values())
    return {length: alpha * weight / total
            for length, weight in weights.items()}


from .registry import Correction, register_correction  # noqa: E402

register_correction(Correction(
    name="layered", abbreviation="Layered", family=FWER,
    apply_fn=lambda ruleset, alpha, ctx: layered_critical_values(ruleset,
                                                                 alpha),
    aliases=("webb-layered",),
    description="Webb's layered critical values: alpha split by "
                "rule length"))
