"""Adaptive FDR control: Storey's q-values and two-stage BH.

Benjamini–Hochberg controls FDR at ``alpha * pi0`` where ``pi0`` is the
(unknown) fraction of true null hypotheses. In rule mining, ``pi0`` is
usually close to 1 on random data but can be well below 1 on real
datasets, where a large share of rules reflect genuine structure
(Figure 15 shows >80% of adult/mushroom rules below 1e-12). Adaptive
procedures estimate ``pi0`` and spend the reclaimed budget on extra
power:

* :func:`estimate_pi0` — Storey's fixed-``lambda`` estimator
  ``pi0 = #{p > lambda} / ((1 - lambda) * Nt)``, clamped to (0, 1].
* :func:`q_values` — Storey's q-value transform: ``q_(i) = min_{j>=i}
  pi0 * Nt * p_(j) / j``, the minimal FDR at which rule ``i`` would be
  declared significant.
* :func:`storey_fdr` — declare significant every rule with
  ``q <= alpha``. With ``pi0 = 1`` this is exactly BH.
* :func:`two_stage_bh` — the Benjamini–Krieger–Yekutieli (2006)
  two-stage procedure: a first BH pass at ``alpha / (1 + alpha)``
  estimates the null count as ``Nt - r1``; a second pass re-runs BH at
  the inflated level. Provably controls FDR at ``alpha`` under
  independence without a tuning parameter.

These are extensions beyond the paper's Section 4.1; they answer its
closing observation that the direct adjustment approach "inflates the
number of false negatives unnecessarily" with the standard remedies
from the FDR literature.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import CorrectionError
from ..mining.rules import RuleSet
from .base import (
    FDR,
    CorrectionResult,
    bh_step_up,
    select_by_threshold,
    validate_alpha,
)

__all__ = ["estimate_pi0", "q_values", "storey_fdr", "two_stage_bh"]


def estimate_pi0(p_values: Sequence[float], lam: float = 0.5) -> float:
    """Storey's estimate of the true-null fraction ``pi0``.

    P-values of true nulls are (approximately) uniform, so the density
    above ``lam`` is almost entirely null mass: ``pi0 ~= #{p > lam} /
    ((1 - lam) * Nt)``. The estimate is clamped to ``(0, 1]`` — values
    above 1 (possible by chance) must not *reduce* power below BH, and
    0 would declare everything significant.

    ``lam`` trades bias (low ``lam`` inflates ``pi0`` when alternatives
    leak above it) against variance (high ``lam`` leaves few p-values
    to count). Storey's software defaults to a smoother over a grid;
    for rule mining the fixed default 0.5 is robust because real rule
    p-values are extremely small and barely contaminate (0.5, 1].
    """
    if not 0.0 < lam < 1.0:
        raise CorrectionError(f"lambda must be in (0, 1), got {lam}")
    m = len(p_values)
    if m == 0:
        return 1.0
    above = int(np.count_nonzero(np.asarray(p_values) > lam))
    pi0 = above / ((1.0 - lam) * m)
    return min(1.0, max(pi0, 1.0 / m))


def q_values(p_values: Sequence[float], pi0: float = None,
             lam: float = 0.5) -> List[float]:
    """The q-value of every p-value, in input order.

    ``q(p_(i)) = min_{j >= i} pi0 * Nt * p_(j) / j`` — the smallest FDR
    level at which hypothesis ``i`` enters the rejection set. The
    trailing-minimum pass enforces monotonicity (a smaller p-value can
    never have a larger q-value).
    """
    if pi0 is None:
        pi0 = estimate_pi0(p_values, lam)
    if not 0.0 < pi0 <= 1.0:
        raise CorrectionError(f"pi0 must be in (0, 1], got {pi0}")
    m = len(p_values)
    p = np.asarray(p_values, dtype=np.float64)
    order = np.argsort(p, kind="stable")
    scaled = np.minimum(pi0 * m * p[order] / np.arange(1, m + 1), 1.0)
    out = np.empty(m)
    out[order] = np.minimum.accumulate(scaled[::-1])[::-1]
    return out.tolist()


def storey_fdr(ruleset: RuleSet, alpha: float = 0.05,
               lam: float = 0.5) -> CorrectionResult:
    """Storey's adaptive FDR: declare rules with ``q <= alpha``.

    Equivalent to BH run at the inflated level ``alpha / pi0``; with
    ``pi0`` estimated at 1 the two procedures coincide exactly.
    """
    validate_alpha(alpha)
    raw = np.asarray(ruleset.p_values(), dtype=np.float64)
    pi0 = estimate_pi0(raw, lam)
    qs = np.asarray(q_values(raw, pi0=pi0))
    threshold = float(raw[qs <= alpha].max(initial=0.0))
    significant = select_by_threshold(ruleset, threshold)
    return CorrectionResult(
        method="Storey", control=FDR, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=ruleset.n_tests,
        details={"pi0": pi0, "lambda": lam},
    )


def two_stage_bh(ruleset: RuleSet, alpha: float = 0.05) -> CorrectionResult:
    """Benjamini–Krieger–Yekutieli two-stage adaptive BH.

    Stage 1 runs BH at ``alpha' = alpha / (1 + alpha)`` and counts its
    rejections ``r1``. ``r1 = 0`` stops (nothing significant);
    ``r1 = Nt`` rejects everything. Otherwise stage 2 re-runs BH at
    ``alpha' * Nt / (Nt - r1)``, treating ``Nt - r1`` as the estimated
    null count.
    """
    validate_alpha(alpha)
    raw = np.asarray(ruleset.p_values(), dtype=np.float64)
    n_tests = ruleset.n_tests
    alpha_prime = alpha / (1.0 + alpha)
    stage1_cut = bh_step_up(raw, alpha_prime)
    r1 = int(np.count_nonzero(raw <= stage1_cut))
    if r1 == 0:
        threshold = 0.0
    elif r1 == n_tests:
        threshold = float(raw.max())
    else:
        threshold = bh_step_up(
            raw, alpha_prime * n_tests / (n_tests - r1))
    significant = select_by_threshold(ruleset, threshold)
    return CorrectionResult(
        method="BKY", control=FDR, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=n_tests,
        details={"stage1_rejections": r1,
                 "stage1_threshold": stage1_cut},
    )


from .registry import Correction, register_correction  # noqa: E402

register_correction(Correction(
    name="storey", abbreviation="Storey", family=FDR,
    apply_fn=lambda ruleset, alpha, ctx: storey_fdr(ruleset, alpha),
    aliases=("q-value", "qvalue"), direct=True,
    description="Storey q-values: adaptive FDR via pi0 estimation"))

register_correction(Correction(
    name="bky", abbreviation="BKY", family=FDR,
    apply_fn=lambda ruleset, alpha, ctx: two_stage_bh(ruleset, alpha),
    aliases=("two-stage-bh",), direct=True,
    description="Benjamini-Krieger-Yekutieli two-stage adaptive BH"))
