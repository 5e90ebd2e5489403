"""Benjamini–Yekutieli correction: FDR under arbitrary dependence.

The plain BH procedure (Section 4.1 of the paper) guarantees FDR
control under independence or positive regression dependence. Class
association rules are *heavily* dependent (sub/super-patterns share
records), which the paper works around empirically via permutation.
Benjamini & Yekutieli (2001) showed that shrinking every BH bound by
the harmonic factor ``c(m) = sum_{i=1..m} 1/i`` restores the guarantee
under *any* dependence — at a real power cost that this module makes
measurable (it slots into the same panels as BH).

This is an extension beyond the paper's method set, provided because a
user worried about rule dependence has exactly two principled options:
pay for permutations, or pay the ``log m`` factor here.
"""

from __future__ import annotations

import math

import numpy as np

from ..mining.rules import RuleSet
from .base import FDR, CorrectionResult, select_by_threshold, validate_alpha

__all__ = ["benjamini_yekutieli", "harmonic_number"]


def harmonic_number(m: int) -> float:
    """``H_m = sum_{i=1..m} 1/i`` (exact below 1e6, asymptotic above)."""
    if m <= 0:
        return 0.0
    if m < 1_000_000:
        return sum(1.0 / i for i in range(1, m + 1))
    gamma = 0.57721566490153286
    return math.log(m) + gamma + 1.0 / (2 * m)


def benjamini_yekutieli(ruleset: RuleSet, alpha: float = 0.05,
                        ) -> CorrectionResult:
    """BY step-up: FDR <= alpha under arbitrary dependence.

    Identical to BH with the working level ``alpha / c(Nt)``.
    """
    validate_alpha(alpha)
    n = ruleset.n_tests
    c_m = harmonic_number(n)
    ordered = np.sort(np.asarray(ruleset.p_values(), dtype=np.float64))
    passed = np.flatnonzero(
        ordered <= np.arange(1, n + 1) * alpha / (n * c_m))
    threshold = float(ordered[passed[-1]]) if len(passed) else 0.0
    significant = select_by_threshold(ruleset, threshold)
    return CorrectionResult(
        method="BY", control=FDR, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=n,
        details={"harmonic_factor": c_m},
    )


from .registry import Correction, register_correction  # noqa: E402

register_correction(Correction(
    name="by", abbreviation="BY", family=FDR,
    apply_fn=lambda ruleset, alpha, ctx: benjamini_yekutieli(ruleset,
                                                             alpha),
    aliases=("benjamini-yekutieli",), direct=True,
    description="BY step-up: FDR under arbitrary dependence"))
