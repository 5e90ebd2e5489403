"""Scalar reference implementation of the p-value table path.

This is the pure-Python table builder the library used before its
numpy rewrite, kept as the bit-identity oracle with one deliberate
change: its log-space fallback also takes tables whose recurrence seed
is subnormal, not only those where it is 0.0 (see
``test_subnormal_seed_table_is_accurate``):

* :func:`oracle_pmf_table` — the hypergeometric pmf over ``[L, U]`` by
  the ratio recurrence, falling back to a per-entry log-space
  evaluation when the recurrence seed ``H(L)`` is not a normal double
  (it underflowed to 0.0, or is subnormal and too imprecise to seed
  the recurrence);
* :func:`oracle_two_ends_sum_up` — Figure 2's two-ends-inward walk with
  tie grouping;
* :func:`oracle_midp` and :func:`oracle_pvalues` — the p-value table
  ``PValueBuffer`` stores, exact or mid-p.

The per-entry fallback evaluates :func:`repro.stats.pmf` inline, with
the same scalar operations in the same order over a list of
log-factorials, because calling ``pmf`` once per entry would make the
oracle too slow for the table sets the tests sweep;
``test_pvalue_bit_identity`` pins the two to each other.

The production :class:`repro.stats.PValueBuffer` must reproduce
:func:`oracle_pvalues` to the last bit; the kernel benchmark times the
two against each other.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import List, Optional, Sequence

from repro.errors import StatsError
from repro.stats import (
    RELATIVE_TIE_TOLERANCE,
    default_buffer,
    pmf,
    support_bounds,
)
from repro.stats.logfact import LogFactorialBuffer

__all__ = ["oracle_pmf_table", "oracle_log_space_table",
           "oracle_two_ends_sum_up", "oracle_midp", "oracle_pvalues"]


def oracle_pmf_table(n: int, n_c: int, supp_x: int,
                     buffer: Optional[LogFactorialBuffer] = None,
                     ) -> List[float]:
    """``[H(L), ..., H(U)]`` by the recurrence, or per entry in log
    space when the seed underflows."""
    low, high = support_bounds(n, n_c, supp_x)
    first = pmf(low, n, n_c, supp_x, buffer)
    if first < sys.float_info.min:
        return oracle_log_space_table(n, n_c, supp_x, buffer)
    table = [first]
    value = first
    for k in range(low, high):
        numerator = (n_c - k) * (supp_x - k)
        denominator = (k + 1) * (n - n_c - supp_x + k + 1)
        value = value * numerator / denominator
        table.append(value)
    return table


def oracle_log_space_table(n: int, n_c: int, supp_x: int,
                           buffer: Optional[LogFactorialBuffer] = None,
                           ) -> List[float]:
    """``[pmf(k) for k in [L, U]]``, one scalar evaluation per entry."""
    low, high = support_bounds(n, n_c, supp_x)
    lf = _log_factorials(buffer or default_buffer(), n)

    def log_binomial(a: int, b: int) -> float:
        return lf[a] - lf[b] - lf[a - b]

    denominator = log_binomial(n, supp_x)
    return [math.exp(log_binomial(n_c, k)
                     + log_binomial(n - n_c, supp_x - k)
                     - denominator)
            for k in range(low, high + 1)]


@functools.lru_cache(maxsize=4)
def _log_factorials(buffer: LogFactorialBuffer, n: int) -> List[float]:
    """``[ln(0!), ..., ln(n!)]`` as the scalar accessor returns them."""
    return [buffer.log_factorial(k) for k in range(n + 1)]


def oracle_two_ends_sum_up(pmf_values: Sequence[float]) -> List[float]:
    """Figure 2's walk: consume the smaller end next, group ties."""
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
        total += sum(pmf_values[i] for i in group)
        for i in group:
            result[i] = total
    return [p if p < 1.0 else 1.0 for p in result]


def oracle_midp(pvalues: Sequence[float],
                table: Sequence[float]) -> List[float]:
    """Lancaster mid-p: each p-value minus half its outcome's pmf."""
    return [max(0.0, p - 0.5 * mass) for p, mass in zip(pvalues, table)]


def oracle_pvalues(n: int, n_c: int, supp_x: int,
                   buffer: Optional[LogFactorialBuffer] = None,
                   midp: bool = False) -> List[float]:
    """The p-value table for one coverage, exactly as the scalar
    ``PValueBuffer`` built it."""
    table = oracle_pmf_table(n, n_c, supp_x, buffer)
    pvalues = oracle_two_ends_sum_up(table)
    return oracle_midp(pvalues, table) if midp else pvalues
