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

import functools
import math
import sys
from typing import List, Tuple

from ..errors import StatsError
from .logfact import LogFactorialBuffer, default_buffer

__all__ = ["support_bounds", "log_pmf", "pmf", "pmf_table", "mean",
           "mode"]


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
              buffer: LogFactorialBuffer | None = None,
              window: Tuple[int, int] | None = None) -> List[float]:
    """Return ``[H(L), ..., H(U)]`` in O(U - L).

    Uses the recurrence
    ``H(k+1)/H(k) = (n_c - k)(supp_x - k) / ((k+1)(n - n_c - supp_x + k + 1))``
    seeded with one log-space evaluation, so a whole coverage value
    costs a single exp plus one multiply per entry. Accumulated
    round-off over a few thousand entries stays far below the 1e-7 tie
    tolerance of the two-tailed test.

    When the seed is not a normal double (large ``n``) every entry is
    evaluated in log space instead, with :func:`pmf`'s operations in
    its order, so each entry equals :func:`pmf` bit for bit. A seed
    that underflowed to 0.0 would zero the whole table; a subnormal
    one carries too few significant bits, and the recurrence would
    copy its relative error into every entry. Only there may
    ``window = (low, high)`` narrow the table to ``[H(low), ...,
    H(high)]``, each entry the same bits; the recurrence path raises
    :class:`~repro.errors.StatsError` for any window but ``(L, U)``.

    This is the pmf stage of the scalar p-value table builder
    (:mod:`repro.stats.pvalue_scalar`); the native kernel repeats it
    operation for operation.
    """
    low, high = support_bounds(n, n_c, supp_x)
    first, last = window if window is not None else (low, high)
    if not low <= first <= last <= high:
        raise StatsError(f"window [{first}, {last}] outside [{low}, "
                         f"{high}]")
    buffer = buffer or default_buffer()
    seed = pmf(low, n, n_c, supp_x, buffer)
    if seed < sys.float_info.min:
        lf = _log_factorials(buffer, n)

        def log_binomial(a: int, b: int) -> float:
            return lf[a] - lf[b] - lf[a - b]

        denominator = log_binomial(n, supp_x)
        return [math.exp(log_binomial(n_c, k)
                         + log_binomial(n - n_c, supp_x - k)
                         - denominator)
                for k in range(first, last + 1)]
    if (first, last) != (low, high):
        raise StatsError(f"window [{first}, {last}] of a ratio-"
                         f"recurrence table must be [{low}, {high}]")
    table = [seed]
    value = seed
    for k in range(low, high):
        numerator = (n_c - k) * (supp_x - k)
        denominator = (k + 1) * (n - n_c - supp_x + k + 1)
        value = value * numerator / denominator
        table.append(value)
    return table


@functools.lru_cache(maxsize=4)
def _log_factorials(buffer: LogFactorialBuffer, n: int) -> List[float]:
    """``[ln(0!), ..., ln(n!)]`` as the scalar accessor returns them."""
    return buffer.as_array(n)[:n + 1].tolist()


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
