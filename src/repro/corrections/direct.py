"""The direct adjustment approach (Section 4.1) and the no-correction
baseline.

* :func:`no_correction` — raw ``p <= alpha``; the paper's "No
  correction" arm, included to show how many spurious rules survive
  without any adjustment.
* :func:`bonferroni` — controls FWER at ``alpha`` by accepting only
  ``p <= alpha / Nt`` where ``Nt`` is the number of rules tested
  (``m * N_FP`` for ``m > 2`` classes, ``N_FP`` for two classes —
  :class:`~repro.mining.rules.RuleSet` already counts hypotheses that
  way).
* :func:`benjamini_hochberg` — controls FDR at ``alpha`` with the
  step-up procedure: sort p-values ascending, find the largest ``k``
  with ``p_k <= k * alpha / Nt``, accept the first ``k``.
"""

from __future__ import annotations

from .base import (
    FDR,
    FWER,
    NONE,
    CorrectionResult,
    bh_step_up,
    select_by_threshold,
    validate_alpha,
)
from .registry import Correction, register_correction
from ..mining.rules import RuleSet

__all__ = ["no_correction", "bonferroni", "benjamini_hochberg"]


def no_correction(ruleset: RuleSet, alpha: float = 0.05,
                  ) -> CorrectionResult:
    """Declare every rule with raw ``p <= alpha`` significant."""
    validate_alpha(alpha)
    significant = select_by_threshold(ruleset, alpha)
    return CorrectionResult(
        method="No correction", control=NONE, alpha=alpha, threshold=alpha,
        significant=significant, n_tests=ruleset.n_tests,
    )


def bonferroni(ruleset: RuleSet, alpha: float = 0.05) -> CorrectionResult:
    """Bonferroni correction: FWER <= alpha via ``p <= alpha / Nt``."""
    validate_alpha(alpha)
    n_tests = ruleset.n_tests
    threshold = alpha / n_tests if n_tests else 0.0
    significant = select_by_threshold(ruleset, threshold)
    return CorrectionResult(
        method="BC", control=FWER, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=n_tests,
    )


def benjamini_hochberg(ruleset: RuleSet, alpha: float = 0.05,
                       ) -> CorrectionResult:
    """Benjamini–Hochberg step-up: FDR <= alpha."""
    validate_alpha(alpha)
    threshold = bh_step_up(ruleset.p_values(), alpha)
    significant = select_by_threshold(ruleset, threshold)
    return CorrectionResult(
        method="BH", control=FDR, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=ruleset.n_tests,
    )


register_correction(Correction(
    name="none", abbreviation="No correction", family=NONE,
    apply_fn=lambda ruleset, alpha, ctx: no_correction(ruleset, alpha),
    aliases=("raw", "uncorrected"), direct=True,
    description="raw p <= alpha; the paper's no-adjustment arm"))

register_correction(Correction(
    name="bonferroni", abbreviation="BC", family=FWER,
    apply_fn=lambda ruleset, alpha, ctx: bonferroni(ruleset, alpha),
    aliases=("bonf",), direct=True,
    description="single-step Bonferroni: p <= alpha / Nt"))

register_correction(Correction(
    name="bh", abbreviation="BH", family=FDR,
    apply_fn=lambda ruleset, alpha, ctx: benjamini_hochberg(ruleset,
                                                            alpha),
    aliases=("benjamini-hochberg",), direct=True,
    description="Benjamini-Hochberg step-up FDR control"))
