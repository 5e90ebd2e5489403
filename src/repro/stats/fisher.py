"""Fisher's exact test for class association rules (Section 2.2).

The p-value of ``R : X => c`` is the total probability, under the
hypergeometric null, of all outcomes at most as probable as the
observed ``supp(R)``::

    p(R) = sum_{k in E} H(k; n, n_c, supp(X)),
    E = {k : H(k) <= H(supp(R))}

— i.e. the *two-tailed* test, the form all of the paper's experiments
use.
"""

from __future__ import annotations

from typing import Optional

from ..errors import StatsError
from .hypergeom import support_bounds
from .logfact import LogFactorialBuffer
from .pvalue_buffer import PValueBuffer

__all__ = [
    "fisher_two_tailed",
    "fisher_two_tailed_midp",
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
