"""Fisher's exact test for class association rules (Section 2.2).

The p-value of ``R : X => c`` is the total probability, under the
hypergeometric null, of all outcomes at most as probable as the
observed ``supp(R)``::

    p(R) = sum_{k in E} H(k; n, n_c, supp(X)),
    E = {k : H(k) <= H(supp(R))}

— i.e. the *two-tailed* test. One-tailed variants (over- and
under-representation) are provided as well because the holdout
literature (Webb 2007) sometimes uses them; the paper's experiments all
use the two-tailed form.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import StatsError
from .hypergeom import pmf_table, support_bounds
from .logfact import LogFactorialBuffer
from .pvalue_buffer import PValueBuffer

__all__ = [
    "fisher_two_tailed",
    "fisher_right_tailed",
    "fisher_left_tailed",
    "fisher_from_contingency",
    "fisher_two_tailed_midp",
    "rule_p_value",
    "log_odds_ratio",
    "min_attainable_p_value",
]


def _check_support(supp_r: int, n: int, n_c: int, supp_x: int) -> None:
    low, high = support_bounds(n, n_c, supp_x)
    if supp_r < low or supp_r > high:
        raise StatsError(
            f"supp(R)={supp_r} impossible for n={n}, n_c={n_c}, "
            f"supp(X)={supp_x} (reachable range [{low}, {high}])")


def fisher_two_tailed(supp_r: int, n: int, n_c: int, supp_x: int,
                      buffer: Optional[LogFactorialBuffer] = None) -> float:
    """Two-tailed Fisher exact p-value of a rule.

    Parameters mirror the paper: ``n`` records, ``n_c`` of class ``c``,
    coverage ``supp(X)`` and rule support ``supp(R)``.
    """
    _check_support(supp_r, n, n_c, supp_x)
    return PValueBuffer(n, n_c, supp_x, buffer).p_value(supp_r)


def fisher_right_tailed(supp_r: int, n: int, n_c: int, supp_x: int,
                        buffer: Optional[LogFactorialBuffer] = None,
                        ) -> float:
    """P(supp >= supp_r): over-representation (positive association)."""
    _check_support(supp_r, n, n_c, supp_x)
    low, _high = support_bounds(n, n_c, supp_x)
    table = np.array(pmf_table(n, n_c, supp_x, buffer))
    # Reversed cumulative sum: entry k accumulates from the far (upper)
    # tail inward, so small terms add first — the same summation order
    # (and therefore the exact same float result) as the scalar loop
    # this replaces.
    tails = np.cumsum(table[::-1])[::-1]
    return min(float(tails[supp_r - low]), 1.0)


def fisher_left_tailed(supp_r: int, n: int, n_c: int, supp_x: int,
                       buffer: Optional[LogFactorialBuffer] = None) -> float:
    """P(supp <= supp_r): under-representation (negative association)."""
    _check_support(supp_r, n, n_c, supp_x)
    low, _high = support_bounds(n, n_c, supp_x)
    table = np.array(pmf_table(n, n_c, supp_x, buffer))
    # Cumulative sum from the lower tail upward: small terms first,
    # identical order (and float result) to the scalar loop.
    tails = np.cumsum(table)
    return min(float(tails[supp_r - low]), 1.0)


def fisher_from_contingency(a: int, b: int, c: int, d: int,
                            alternative: str = "two-sided") -> float:
    """Fisher exact test on a 2x2 table ``[[a, b], [c, d]]``.

    ``a`` counts records containing both X and c, ``b`` those with X but
    not c, ``c`` those with c but not X, ``d`` the rest. Provided so
    users with pre-tabulated contingency data can reuse the machinery.
    """
    for value, label in ((a, "a"), (b, "b"), (c, "c"), (d, "d")):
        if value < 0:
            raise StatsError(f"contingency cell {label} is negative")
    n = a + b + c + d
    n_c = a + c
    supp_x = a + b
    if n == 0:
        raise StatsError("empty contingency table")
    if alternative == "two-sided":
        return fisher_two_tailed(a, n, n_c, supp_x)
    if alternative == "greater":
        return fisher_right_tailed(a, n, n_c, supp_x)
    if alternative == "less":
        return fisher_left_tailed(a, n, n_c, supp_x)
    raise StatsError(f"unknown alternative {alternative!r}")


def rule_p_value(supp_r: int, n: int, n_c: int, supp_x: int,
                 buffer: Optional[LogFactorialBuffer] = None) -> float:
    """Alias of :func:`fisher_two_tailed` under the paper's notation.

    ``p(R) = p(supp(R); n, n_c, supp(X))`` — Section 2.2, Equation (1).
    """
    return fisher_two_tailed(supp_r, n, n_c, supp_x, buffer)


def fisher_two_tailed_midp(supp_r: int, n: int, n_c: int, supp_x: int,
                           buffer: Optional[LogFactorialBuffer] = None,
                           ) -> float:
    """Mid-p variant of the two-tailed test (Lancaster's correction).

    The exact test is conservative because the test statistic is
    discrete; the mid-p correction counts the observed outcome with
    weight one half: ``p_mid = p_two - 0.5 * H(supp_r)``. It is not
    guaranteed to control type-I error at exactly alpha, but its actual
    level is much closer to nominal — a standard option in the
    epidemiology literature and a useful sensitivity check here.
    """
    _check_support(supp_r, n, n_c, supp_x)
    return PValueBuffer(n, n_c, supp_x, buffer, midp=True).p_value(supp_r)


def log_odds_ratio(supp_r: int, n: int, n_c: int, supp_x: int) -> float:
    """Sample log odds ratio of the rule's 2x2 table (Haldane corrected).

    Not used by the correction machinery; exposed as a convenience
    effect-size measure for reporting alongside p-values.
    """
    a = supp_r
    b = supp_x - supp_r
    c = n_c - supp_r
    d = n - n_c - b
    if min(a, b, c, d) < 0:
        raise StatsError("inconsistent rule counts")
    return (math.log(a + 0.5) - math.log(b + 0.5)
            - math.log(c + 0.5) + math.log(d + 0.5))


def min_attainable_p_value(n: int, n_c: int, supp_x: int,
                           buffer: Optional[LogFactorialBuffer] = None,
                           ) -> float:
    """Smallest *two-tailed* p-value any rule with this coverage can
    reach.

    The minimum sits at one of the two flanks of the reachable range,
    but the two-tailed definition sums every outcome at most as
    probable — so when the opposite flank ties (inevitable for
    ``n_c = n/2``), it is included. This reproduces the paper's
    Section 2.3 example exactly: n=1000, supp(c)=500, supp(X)=5 gives
    0.062 (both flanks), not the single-flank 0.031. Useful for
    LAMP-style pruning and detectability analysis
    (:func:`repro.stats.power.min_testable_coverage`).
    """
    low, high = support_bounds(n, n_c, supp_x)
    table = PValueBuffer(n, n_c, supp_x, buffer)
    return min(table.p_value(low), table.p_value(high))
