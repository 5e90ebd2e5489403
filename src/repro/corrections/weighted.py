"""Weighted multiple-testing procedures (Genovese, Roeder & Wasserman).

The paper's corrections treat every hypothesis identically, yet rules
differ enormously in how *detectable* they are: a coverage-20 rule can
never reach the p-values a coverage-400 rule reaches (Figure 1). The
weighted-procedure literature (Genovese et al., Biometrika 2006)
shows that any non-negative weights ``w_i`` with mean 1 preserve the
error guarantee when each rule is tested against ``w_i * t`` instead
of ``t``:

* **weighted Bonferroni** — reject when ``p_i <= w_i * alpha / Nt``;
  FWER <= alpha by the union bound since the per-test levels sum to
  ``alpha``.
* **weighted BH** — run BH on the reweighted p-values ``p_i / w_i``;
  FDR <= alpha under the same independence/PRDS conditions as plain
  BH.

Crucially, weights must not peek at the class labels. In this
library's setting there is a natural *ancillary* choice: a rule's
**coverage** is invariant under the label-permutation null (Section
4.2.1 — coverage never changes across permutations), so any function
of coverage is a legitimate weight. :func:`testability_weights` uses
the inverse of each rule's best attainable p-value exponent, shifting
budget from hopeless low-coverage rules toward rules that could
actually spend it — a soft, error-controlled cousin of LAMP's hard
testability cut.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..errors import CorrectionError
from ..mining.rules import RuleSet
from .base import (
    FDR,
    FWER,
    CorrectionResult,
    select_by_threshold,
    validate_alpha,
)
from .lamp import attainable_floors

__all__ = ["weighted_bonferroni", "weighted_bh", "testability_weights"]


def _validate_weights(weights: Sequence[float], n: int) -> List[float]:
    if len(weights) != n:
        raise CorrectionError(
            f"{len(weights)} weights for {n} rules")
    if any(w < 0 for w in weights):
        raise CorrectionError("weights must be non-negative")
    total = sum(weights)
    if total <= 0:
        raise CorrectionError("weights must not all be zero")
    # Normalise to mean 1, the Genovese et al. convention.
    return [w * n / total for w in weights]


def testability_weights(ruleset: RuleSet) -> List[float]:
    """Coverage-derived weights: more budget where it can be spent.

    Weight ``i`` is ``-log10`` of the rule's best attainable p-value
    (floored at a small positive value), normalised to mean 1 by the
    weighted procedures. Rules whose coverage cannot produce small
    p-values receive near-zero weight; high-coverage rules receive
    proportionally more of the error budget. Depends only on coverage
    and the class margin — both fixed under the permutation null — so
    the weighting is ancillary and the error guarantees survive.
    """
    return [max(-math.log10(max(floor, 1e-300)), 0.0)
            for floor in attainable_floors(ruleset).tolist()]


def weighted_bonferroni(ruleset: RuleSet, alpha: float = 0.05,
                        weights: Optional[Sequence[float]] = None,
                        ) -> CorrectionResult:
    """FWER <= alpha with per-rule levels ``w_i * alpha / Nt``.

    ``weights`` default to :func:`testability_weights`. With all
    weights equal this is exactly Bonferroni. The reported
    ``threshold`` is the largest *accepted* raw p-value (the decision
    is per-rule, so no single raw-p cut-off exists; Section 5.2's
    false-positive analysis uses per-rule levels via ``details``).
    """
    validate_alpha(alpha)
    n_tests = ruleset.n_tests
    default_weights = weights is None
    if weights is None:
        weights = testability_weights(ruleset)
    normalised = _validate_weights(weights, n_tests)
    significant = select_by_threshold(
        ruleset, np.asarray(normalised) * alpha / n_tests)
    threshold = max((rule.p_value for rule in significant), default=0.0)
    return CorrectionResult(
        method="wBC", control=FWER, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=n_tests,
        details={"weights": "testability" if default_weights
                 else "caller", "max_weight": max(normalised, default=0)},
    )


def weighted_bh(ruleset: RuleSet, alpha: float = 0.05,
                weights: Optional[Sequence[float]] = None,
                ) -> CorrectionResult:
    """FDR <= alpha via BH on the reweighted p-values ``p_i / w_i``.

    Rules with zero weight are never rejected (their reweighted
    p-value is infinite).
    """
    validate_alpha(alpha)
    n_tests = ruleset.n_tests
    default_weights = weights is None
    if weights is None:
        weights = testability_weights(ruleset)
    normalised = np.asarray(_validate_weights(weights, n_tests))
    p_values = np.asarray(ruleset.p_values(), dtype=np.float64)
    reweighted = np.full(n_tests, np.inf)
    np.divide(p_values, normalised, out=reweighted, where=normalised > 0)
    ordered = np.sort(reweighted)
    passed = np.flatnonzero(
        ordered <= np.arange(1, n_tests + 1) * alpha / n_tests)
    cut = float(ordered[passed[-1]]) if len(passed) else 0.0
    rows = np.flatnonzero(reweighted <= cut) if cut > 0.0 else []
    significant = ruleset.rules[rows]
    threshold = float(p_values[rows].max(initial=0.0))
    return CorrectionResult(
        method="wBH", control=FDR, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=n_tests,
        details={"weights": "testability" if default_weights
                 else "caller", "reweighted_cut": cut},
    )


from .registry import Correction, register_correction  # noqa: E402

register_correction(Correction(
    name="weighted-bonferroni", abbreviation="wBC", family=FWER,
    apply_fn=lambda ruleset, alpha, ctx: weighted_bonferroni(ruleset,
                                                             alpha),
    description="coverage-weighted Bonferroni (Genovese et al.)"))

register_correction(Correction(
    name="weighted-bh", abbreviation="wBH", family=FDR,
    apply_fn=lambda ruleset, alpha, ctx: weighted_bh(ruleset, alpha),
    description="coverage-weighted Benjamini-Hochberg"))
