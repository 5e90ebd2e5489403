"""The scalar p-value table builder (Section 4.2.3, Figure 2).

One coverage's table of two-tailed Fisher p-values, one plain Python
operation at a time:

* :func:`~repro.stats.hypergeom.pmf_table` — the hypergeometric pmf
  over ``[L, U]`` by the ratio recurrence, or per entry in log space
  when the recurrence seed ``H(L)`` is not a normal double;
* :func:`two_ends_sum_up` — Figure 2's two-ends-inward walk with tie
  grouping;
* :func:`mid_p` and :func:`pvalue_table` — the table a
  :class:`~repro.stats.PValueBuffer` stores, exact or mid-p.

The native kernel ``repro_pvalue_tables`` (:mod:`repro._native`) is a
transliteration of this module: the same IEEE operations in the same
order. This module is its fallback when the suite is unavailable (no
compiler, ``REPRO_NATIVE=0``), the role the Python closed walk plays
for mining, and the oracle it is tested against bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import StatsError
from .hypergeom import pmf_table
from .logfact import LogFactorialBuffer

__all__ = ["RELATIVE_TIE_TOLERANCE", "mid_p", "pvalue_table",
           "two_ends_sum_up"]

# Two pmf values within this relative factor are treated as equal when
# deciding which outcomes are "at least as extreme". The same guard
# factor is used by scipy's two-tailed Fisher test; it absorbs the
# round-off difference between analytically identical flank values.
RELATIVE_TIE_TOLERANCE = 1.0 + 1e-7


def two_ends_sum_up(pmf_values: Sequence[float]) -> List[float]:
    """Figure 2's walk: consume the smaller end next, group ties.

    The pmf is unimodal, so its smallest values sit at the two ends.
    Walking inward, a *group* is every end value within
    ``RELATIVE_TIE_TOLERANCE`` of the smaller end: its left-flank
    members upward, then its right-flank members downward. Every
    member receives the running total including the whole group, which
    matches the definition ``E = {j : H(j) <= H(k)}``. A group is
    summed by an explicit left-to-right loop, not :func:`sum`, whose
    float summation is compensated from Python 3.12 on. Results are
    clamped to 1.0.
    """
    m = len(pmf_values)
    result = [0.0] * m
    left, right = 0, m - 1
    total = 0.0
    while left <= right:
        smallest = min(pmf_values[left], pmf_values[right])
        ceiling = smallest * RELATIVE_TIE_TOLERANCE
        group: List[int] = []
        while left <= right and pmf_values[left] <= ceiling:
            group.append(left)
            left += 1
        while left <= right and pmf_values[right] <= ceiling:
            group.append(right)
            right -= 1
        if not group:
            raise StatsError("pmf table is not unimodal or contains NaN")
        group_sum = 0.0
        for i in group:
            group_sum += pmf_values[i]
        total += group_sum
        for i in group:
            result[i] = total
    return [p if p < 1.0 else 1.0 for p in result]


def mid_p(pvalues: Sequence[float],
          table: Sequence[float]) -> List[float]:
    """Lancaster mid-p: each p-value minus half its outcome's pmf."""
    return [max(0.0, p - 0.5 * mass) for p, mass in zip(pvalues, table)]


def pvalue_table(n: int, n_c: int, supp_x: int,
                 buffer: Optional[LogFactorialBuffer] = None,
                 midp: bool = False,
                 window: Optional[Tuple[int, int]] = None) -> List[float]:
    """The exact (or mid-p) p-value of every ``supp(R)`` in ``[L, U]``,
    or in ``window``.

    A log-space table's ``window`` must hold every support whose pmf
    is not 0.0 (a live window of
    :func:`~repro.stats.pvalue_tables.live_windows`): the zeros outside
    it are the first group the walk takes, so the walk over the window
    gives each of its supports the full table's bits. See
    :func:`~repro.stats.hypergeom.pmf_table` for where a window may
    narrow the table.
    """
    table = pmf_table(n, n_c, supp_x, buffer, window)
    pvalues = two_ends_sum_up(table)
    return mid_p(pvalues, table) if midp else pvalues
