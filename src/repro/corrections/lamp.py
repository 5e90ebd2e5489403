"""LAMP: testability-aware Bonferroni correction.

The paper's Section 7 observes that reducing the number of tested
hypotheses directly buys power. LAMP (Terada et al., PNAS 2013 —
published after this paper, in the research line it seeded) formalizes
one safe reduction for Fisher-scored patterns: a rule whose coverage is
so small that even a *perfect* class split cannot reach the corrected
threshold is **untestable** — it can never be significant, so it need
not count toward the Bonferroni denominator.

The procedure finds the largest coverage threshold ``sigma`` such that

    m(sigma) * f(sigma) <= alpha

where ``m(sigma)`` is the number of rules with coverage >= sigma and
``f(sigma)`` the minimum attainable p-value at coverage ``sigma``
(monotone non-increasing in sigma). Rules with coverage >= sigma are
then tested against ``alpha / m(sigma)``. FWER <= alpha still holds:
untestable rules cannot be false positives at the corrected level by
construction, and the union bound covers the rest.
"""

from __future__ import annotations

import numpy as np

from ..mining.rules import RuleSet
from ..stats.fisher import min_attainable_p_value
from .base import FWER, CorrectionResult, select_by_threshold, validate_alpha

__all__ = ["attainable_floors", "lamp_bonferroni"]


def attainable_floors(ruleset: RuleSet) -> np.ndarray:
    """Each rule's minimum attainable p-value (float64, rule order),
    computed once per distinct ``(class, coverage)`` key."""
    n = ruleset.dataset.n_records
    keys, inverse = np.unique(
        ruleset.classes * (n + 1) + ruleset.coverages[ruleset.pattern_ids],
        return_inverse=True)
    floors = [min_attainable_p_value(
        n, ruleset.dataset.class_support(c), s)
        for c, s in (divmod(key, n + 1) for key in keys.tolist())]
    return np.array(floors, dtype=np.float64)[inverse.reshape(-1)]


def lamp_bonferroni(ruleset: RuleSet, alpha: float = 0.05,
                    ) -> CorrectionResult:
    """Bonferroni over only the *testable* rules (LAMP).

    Always at least as powerful as plain Bonferroni: the testable count
    ``m(sigma)`` never exceeds ``Nt``, so the per-rule threshold never
    shrinks. On low-``min_sup`` mining runs, where most rules have tiny
    coverage, the gain is substantial.
    """
    validate_alpha(alpha)
    n_rules = ruleset.n_tests
    # Keep the k rules with the smallest attainable floors; all of them
    # must be individually testable against alpha/k, i.e. the k-th
    # smallest floor must satisfy f_(k) <= alpha/k. Pick the largest
    # such k: FWER <= k * (alpha/k) = alpha by the union bound over the
    # tested set, and every excluded rule is simply never reported.
    floors = attainable_floors(ruleset)
    passed = np.flatnonzero(
        np.sort(floors) <= alpha / np.arange(1, n_rules + 1))
    n_testable = int(passed[-1]) + 1 if len(passed) else 0
    threshold = alpha / n_testable if n_testable else 0.0
    testable = floors <= threshold
    significant = select_by_threshold(
        ruleset, np.where(testable, threshold, -np.inf))
    coverages = ruleset.coverages[ruleset.pattern_ids[testable]]
    return CorrectionResult(
        method="LAMP", control=FWER, alpha=alpha, threshold=threshold,
        significant=significant, n_tests=n_testable,
        details={"sigma": int(coverages.min()) if len(coverages) else None,
                 "n_testable": n_testable, "n_total": n_rules},
    )


from .registry import Correction, register_correction  # noqa: E402

register_correction(Correction(
    name="lamp", abbreviation="LAMP", family=FWER,
    apply_fn=lambda ruleset, alpha, ctx: lamp_bonferroni(ruleset, alpha),
    description="Bonferroni over only the testable rules (LAMP)"))
