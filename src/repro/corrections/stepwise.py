"""Stepwise FWER procedures: Holm, Hochberg and Šidák.

The paper's direct adjustment arm uses single-step Bonferroni (FWER)
and Benjamini–Hochberg (FDR). The classical multiple-testing literature
offers strictly more powerful FWER procedures at no extra modelling
cost, and they slot into the same pipeline — each consumes a scored
:class:`~repro.mining.rules.RuleSet` and returns a
:class:`~repro.corrections.base.CorrectionResult`:

* :func:`holm` — Holm's step-down procedure (Holm 1979). Sort p-values
  ascending and accept while ``p_(i) <= alpha / (Nt - i + 1)``; stop at
  the first failure. Uniformly more powerful than Bonferroni and valid
  under *arbitrary* dependence, so it is a free upgrade for the paper's
  "BC" arm.
* :func:`hochberg` — Hochberg's step-up procedure (Hochberg 1988).
  Find the *largest* ``i`` with ``p_(i) <= alpha / (Nt - i + 1)`` and
  accept everything up to it. Rejects a superset of Holm's hypotheses
  but requires non-negative dependence (the same MTP2-style condition
  BH needs), which rule p-values on overlapping patterns plausibly
  satisfy.
* :func:`sidak` — the Šidák single-step correction,
  ``1 - (1 - alpha)^(1/Nt)``. Exact under independence, marginally
  less conservative than Bonferroni, and the correction Abdi's
  encyclopedia entry (the paper's reference [1]) pairs with Bonferroni.

All three keep Bonferroni's semantics otherwise: ``n_tests`` is the
ruleset's hypothesis count ``Nt``, and the reported ``threshold`` is the
raw-p cut-off the decision is equivalent to.
"""

from __future__ import annotations

import math

import numpy as np

from ..mining.rules import RuleSet
from .base import (
    FWER,
    CorrectionResult,
    select_by_threshold,
    validate_alpha,
)

__all__ = ["holm", "hochberg", "sidak"]


def holm(ruleset: RuleSet, alpha: float = 0.05) -> CorrectionResult:
    """Holm's step-down procedure: FWER <= alpha under any dependence.

    Accepts the ``k`` smallest p-values where ``k`` is the largest
    prefix satisfying ``p_(i) <= alpha / (Nt - i + 1)`` for every
    ``i <= k``. With ``k = 0`` nothing is significant. The first step
    uses ``alpha / Nt``, so Holm always rejects at least what
    Bonferroni rejects.
    """
    validate_alpha(alpha)
    n_tests = ruleset.n_tests
    ordered = np.sort(np.asarray(ruleset.p_values(), dtype=np.float64))
    # Cross-multiplied ``p <= alpha / (n - i + 1)``; see bh_step_up.
    passed = ordered * (n_tests - np.arange(len(ordered))) <= alpha
    k = len(passed) if passed.all() else int(np.argmin(passed))
    threshold = float(ordered[k - 1]) if k else 0.0
    significant = select_by_threshold(ruleset, threshold)
    return CorrectionResult(
        method="Holm", control=FWER, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=n_tests,
    )


def hochberg(ruleset: RuleSet, alpha: float = 0.05) -> CorrectionResult:
    """Hochberg's step-up procedure: FWER <= alpha under non-negative
    dependence.

    Scans p-values from the largest down and accepts everything at or
    below the first ``p_(i)`` satisfying ``p_(i) <= alpha /
    (Nt - i + 1)``. The acceptance set always contains Holm's.
    """
    validate_alpha(alpha)
    n_tests = ruleset.n_tests
    ordered = np.sort(np.asarray(ruleset.p_values(), dtype=np.float64))
    # Cross-multiplied ``p <= alpha / (n - i + 1)``; see bh_step_up.
    passed = np.flatnonzero(
        ordered * (n_tests - np.arange(len(ordered))) <= alpha)
    threshold = float(ordered[passed[-1]]) if len(passed) else 0.0
    significant = select_by_threshold(ruleset, threshold)
    return CorrectionResult(
        method="Hochberg", control=FWER, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=n_tests,
    )


def sidak(ruleset: RuleSet, alpha: float = 0.05) -> CorrectionResult:
    """Šidák single-step correction: ``p <= 1 - (1 - alpha)^(1/Nt)``.

    Exact FWER control when the tests are independent; slightly more
    powerful than Bonferroni (``1 - (1-a)^(1/n) >= a/n``) but can be
    anti-conservative under negative dependence, which is why the
    paper's experiments stick to Bonferroni.
    """
    validate_alpha(alpha)
    n_tests = ruleset.n_tests
    threshold = sidak_threshold(alpha, n_tests)
    significant = select_by_threshold(ruleset, threshold)
    return CorrectionResult(
        method="Sidak", control=FWER, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=n_tests,
    )


def sidak_threshold(alpha: float, n_tests: int) -> float:
    """The per-test Šidák level ``1 - (1 - alpha)^(1/n)`` (0 if n=0).

    Computed as ``-expm1(log1p(-alpha) / n)`` so tiny levels at large
    ``n`` do not underflow to 0 prematurely.
    """
    validate_alpha(alpha)
    if n_tests <= 0:
        return 0.0
    if n_tests == 1:
        # expm1/log1p round-trip can lose the last ulp; the exact value is alpha.
        return alpha
    return -math.expm1(math.log1p(-alpha) / n_tests)


from .registry import Correction, register_correction  # noqa: E402

register_correction(Correction(
    name="holm", abbreviation="Holm", family=FWER,
    apply_fn=lambda ruleset, alpha, ctx: holm(ruleset, alpha),
    direct=True,
    description="Holm step-down FWER; Bonferroni's free upgrade"))

register_correction(Correction(
    name="hochberg", abbreviation="Hochberg", family=FWER,
    apply_fn=lambda ruleset, alpha, ctx: hochberg(ruleset, alpha),
    direct=True,
    description="Hochberg step-up FWER under non-negative dependence"))

register_correction(Correction(
    name="sidak", abbreviation="Sidak", family=FWER,
    apply_fn=lambda ruleset, alpha, ctx: sidak(ruleset, alpha),
    direct=True,
    description="Sidak single-step: p <= 1 - (1-alpha)^(1/Nt)"))
