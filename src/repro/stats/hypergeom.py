"""Hypergeometric distribution built on the log-factorial buffer.

For a rule ``R : X => c`` on a dataset of ``n`` records with ``n_c``
records of class ``c`` and coverage ``supp(X)``, the null distribution
of ``supp(R)`` is hypergeometric::

    H(k; n, n_c, supp(X)) = C(n_c, k) * C(n - n_c, supp(X) - k)
                            / C(n, supp(X))

with support ``k in [L, U]``, ``L = max(0, n_c + supp(X) - n)`` and
``U = min(n_c, supp(X))`` (Section 2.2 of the paper).
"""

from __future__ import annotations

import math
import sys
from typing import List, Tuple

import numpy as np

from ..errors import StatsError
from .logfact import LogFactorialBuffer, default_buffer

__all__ = ["support_bounds", "log_pmf", "pmf", "pmf_table", "pmf_array",
           "mean", "mode"]

# ``math.exp`` of anything below this is exactly 0.0: the smallest
# subnormal double is exp(-744.44) and the rounding midpoint below it
# exp(-745.13).
_EXP_UNDERFLOW = -745.2


def _validate(n: int, n_c: int, supp_x: int) -> None:
    if n < 0:
        raise StatsError(f"population size n={n} must be non-negative")
    if not 0 <= n_c <= n:
        raise StatsError(f"class support n_c={n_c} out of [0, {n}]")
    if not 0 <= supp_x <= n:
        raise StatsError(f"coverage supp_x={supp_x} out of [0, {n}]")


def support_bounds(n: int, n_c: int, supp_x: int) -> Tuple[int, int]:
    """Return ``(L, U)``, the reachable range of ``supp(R)``."""
    _validate(n, n_c, supp_x)
    return max(0, n_c + supp_x - n), min(n_c, supp_x)


def log_pmf(k: int, n: int, n_c: int, supp_x: int,
            buffer: LogFactorialBuffer | None = None) -> float:
    """Return ``ln H(k; n, n_c, supp_x)`` (``-inf`` outside support)."""
    _validate(n, n_c, supp_x)
    low, high = max(0, n_c + supp_x - n), min(n_c, supp_x)
    if k < low or k > high:
        return float("-inf")
    buf = buffer or default_buffer()
    return (buf.log_binomial(n_c, k)
            + buf.log_binomial(n - n_c, supp_x - k)
            - buf.log_binomial(n, supp_x))


def pmf(k: int, n: int, n_c: int, supp_x: int,
        buffer: LogFactorialBuffer | None = None) -> float:
    """Return ``H(k; n, n_c, supp_x)``."""
    value = log_pmf(k, n, n_c, supp_x, buffer)
    return math.exp(value) if value > float("-inf") else 0.0


def pmf_table(n: int, n_c: int, supp_x: int,
              buffer: LogFactorialBuffer | None = None) -> List[float]:
    """Return ``[H(L), ..., H(U)]`` as a list (see :func:`pmf_array`)."""
    return pmf_array(n, n_c, supp_x, buffer).tolist()


def pmf_array(n: int, n_c: int, supp_x: int,
              buffer: LogFactorialBuffer | None = None) -> np.ndarray:
    """Return ``[H(L), ..., H(U)]`` as a float64 array in O(U - L).

    Uses the recurrence
    ``H(k+1)/H(k) = (n_c - k)(supp_x - k) / ((k+1)(n - n_c - supp_x + k + 1))``
    seeded with one log-space evaluation, so building a table for a
    whole coverage value costs a single exp plus one multiply per entry.
    The loop stays sequential: a ``cumprod`` of the ratios rounds
    differently. Accumulated round-off over a few thousand entries
    stays far below the 1e-7 tie tolerance of the two-tailed test.

    When the seed is not a normal double (large ``n``) every entry is
    evaluated in log space instead, vectorized over the log-factorial
    array in :func:`log_pmf`'s operation order and exponentiated with
    :func:`math.exp`, so each entry equals :func:`pmf` bit for bit. A
    seed that underflowed to 0.0 would zero the whole table; a
    subnormal one carries too few significant bits, and the recurrence
    would copy its relative error into every entry.
    """
    low, high = support_bounds(n, n_c, supp_x)
    first = pmf(low, n, n_c, supp_x, buffer)
    if first < sys.float_info.min:
        return _log_space_table(n, n_c, supp_x, low, high,
                                buffer or default_buffer())
    table = [first]
    value = first
    for k in range(low, high):
        numerator = (n_c - k) * (supp_x - k)
        denominator = (k + 1) * (n - n_c - supp_x + k + 1)
        value = value * numerator / denominator
        table.append(value)
    return np.array(table, dtype=np.float64)


def _log_space_table(n: int, n_c: int, supp_x: int, low: int, high: int,
                     buffer: LogFactorialBuffer) -> np.ndarray:
    """``pmf(k)`` for every ``k in [low, high]``, vectorized."""
    lf = buffer.as_array(n)
    k = np.arange(low, high + 1)
    rest = n - n_c
    logs = (((lf[n_c] - lf[k]) - lf[n_c - k])
            + ((lf[rest] - lf[supp_x - k]) - lf[rest - supp_x + k])
            - ((lf[n] - lf[supp_x]) - lf[n - supp_x]))
    # np.exp is not correctly rounded on every SIMD path; math.exp is
    # the reference pmf() uses, so the table matches it exactly.
    table = np.zeros(len(logs))
    live = np.flatnonzero(logs >= _EXP_UNDERFLOW)
    table[live] = np.fromiter(map(math.exp, logs[live].tolist()),
                              dtype=np.float64, count=len(live))
    return table


def mean(n: int, n_c: int, supp_x: int) -> float:
    """Expected ``supp(R)`` under independence: ``supp_x * n_c / n``."""
    _validate(n, n_c, supp_x)
    if n == 0:
        return 0.0
    return supp_x * n_c / n


def mode(n: int, n_c: int, supp_x: int) -> int:
    """The most probable ``supp(R)`` under independence."""
    _validate(n, n_c, supp_x)
    low, high = support_bounds(n, n_c, supp_x)
    m = math.floor((supp_x + 1) * (n_c + 1) / (n + 2))
    return min(max(m, low), high)
