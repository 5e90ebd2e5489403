"""The p-value buffer ``B_supp(X)`` of Section 4.2.3 (Figure 2).

For fixed ``n`` (records), ``n_c`` (class support) and coverage
``supp(X)``, a rule's two-tailed Fisher p-value depends only on
``supp(R) = k``. The buffer precomputes the p-value for *every*
reachable ``k in [L, U]`` so that permutation testing can score a rule
on each permutation with a single table lookup.

Construction follows the paper exactly: the hypergeometric pmf is
unimodal, so its smallest values sit at the two ends of ``[L, U]``.
Starting from both ends and walking inward, pmf values are accumulated
in ascending order; after processing entry ``k`` the running sum is the
two-tailed p-value for ``supp(R) = k`` (the total mass of all outcomes
at most as probable as ``k``). Ties — outcomes on opposite flanks with
equal probability, inevitable when ``n_c = n/2`` — are grouped: every
member of a tie group receives the sum *including* the whole group,
which matches the definition ``E = {j : H(j) <= H(k)}``.

The walk is computed with numpy as a merge of the two monotone flanks
(see :func:`_two_ends_sum_up`) and the table is stored as one float64
array; every entry equals the scalar walk's result bit for bit.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..errors import StatsError
from .hypergeom import pmf_array, support_bounds
from .logfact import LogFactorialBuffer

__all__ = ["PValueBuffer", "RELATIVE_TIE_TOLERANCE"]

# Two pmf values within this relative factor are treated as equal when
# deciding which outcomes are "at least as extreme". The same guard
# factor is used by scipy's two-tailed Fisher test; it absorbs the
# round-off difference between analytically identical flank values.
RELATIVE_TIE_TOLERANCE = 1.0 + 1e-7


class PValueBuffer:
    """All possible two-tailed p-values for one coverage value.

    Parameters
    ----------
    n, n_c, supp_x:
        Dataset size, class support and rule coverage; together they fix
        the hypergeometric null.
    buffer:
        Optional shared log-factorial buffer.
    midp:
        When true, store Lancaster mid-p values instead: each entry is
        the two-tailed p-value minus half the observed outcome's pmf.
        Mid-p is less conservative than the exact test (the discrete
        statistic makes the exact test over-cover); the buffer layout
        and lookup protocol are unchanged, so the whole permutation
        pipeline works with mid-p transparently.

    Attributes
    ----------
    low, high:
        The reachable range ``[L, U]`` of ``supp(R)``.
    """

    __slots__ = ("n", "n_c", "supp_x", "low", "high", "midp", "_pvalues")

    def __init__(self, n: int, n_c: int, supp_x: int,
                 buffer: Optional[LogFactorialBuffer] = None,
                 midp: bool = False) -> None:
        self.n = n
        self.n_c = n_c
        self.supp_x = supp_x
        self.midp = midp
        self.low, self.high = support_bounds(n, n_c, supp_x)
        pmf = pmf_array(n, n_c, supp_x, buffer)
        pvalues = _two_ends_sum_up(pmf)
        if midp:
            # Python's max(0.0, x): x only when x > 0.0.
            mid = pvalues - 0.5 * pmf
            pvalues = np.where(mid > 0.0, mid, 0.0)
        pvalues.flags.writeable = False
        self._pvalues = pvalues

    def __len__(self) -> int:
        return len(self._pvalues)

    def p_value(self, supp_r: int) -> float:
        """Two-tailed p-value of a rule with support ``supp_r``.

        ``supp_r`` must lie in ``[L, U]``; anything else is impossible
        for this coverage and indicates a caller bug.
        """
        if supp_r < self.low or supp_r > self.high:
            raise StatsError(
                f"supp(R)={supp_r} outside reachable range "
                f"[{self.low}, {self.high}] for n={self.n}, "
                f"n_c={self.n_c}, supp(X)={self.supp_x}")
        return float(self._pvalues[supp_r - self.low])

    def p_values(self) -> List[float]:
        """The full table ``[p(L), ..., p(U)]`` (a defensive copy)."""
        return self._pvalues.tolist()

    @property
    def array(self) -> np.ndarray:
        """The table ``[p(L), ..., p(U)]`` as a read-only float64 array."""
        return self._pvalues

    @property
    def nbytes(self) -> int:
        """Memory footprint of the table's float64 array."""
        return self._pvalues.nbytes

    def __repr__(self) -> str:
        return (f"PValueBuffer(n={self.n}, n_c={self.n_c}, "
                f"supp_x={self.supp_x}, range=[{self.low}, {self.high}])")


def _two_ends_sum_up(pmf: np.ndarray) -> np.ndarray:
    """Figure 2's two-ends-inward accumulation with tie grouping.

    The paper walks a left pointer up and a right pointer down, always
    consuming the smaller pmf next. A *group* is the maximal run of
    entries (from either flank) whose pmf equals the group minimum
    within ``RELATIVE_TIE_TOLERANCE``; the running total after the
    whole group is assigned to every member, so tied outcomes include
    each other.

    Both flanks of the pmf are monotone, so the walk consumes entries
    in ascending order of pmf: one stable sort of the table is the merge
    of the left flank with the reversed right flank. In that order
    entry ``i + 1`` is *linked* to entry ``i`` when
    ``v[i+1] <= v[i] * tolerance``. Entries without links are singleton
    groups and an isolated link is a pair, whose sum ``a + b`` does not
    depend on the order the walk adds it in. Underflowed zeros form one
    group summing to 0.0. Only runs of two or more consecutive links
    need the walk's greedy grouping and its summation order, so those
    runs alone are resolved in a loop. The running total over the group
    sums is a sequential ``cumsum``, exactly the walk's
    ``total += group_sum``.
    """
    m = len(pmf)
    order = pmf.argsort(kind="stable")
    values = pmf[order]
    if math.isnan(values[-1]):  # NaN sorts last
        raise StatsError("pmf table contains NaN")
    zeros = int(values.searchsorted(0.0, side="right"))
    order, values = order[zeros:], values[zeros:]

    linked = values[1:] <= values[:-1] * RELATIVE_TIE_TOLERANCE
    starts = np.empty(len(values), dtype=bool)
    starts[0] = True
    np.invert(linked, out=starts[1:])
    chained = bool((linked[1:] & linked[:-1]).any())
    if chained:
        _split_runs(values, linked, starts)
    heads = starts.nonzero()[0]
    sums = np.add.reduceat(values, heads)
    if chained:
        _resum_in_walk_order(pmf, order, heads, sums)

    result = np.zeros(m)
    result[order] = sums.cumsum()[starts.cumsum() - 1]
    # Clamp tiny floating point overshoot so callers can rely on p <= 1.
    return np.minimum(result, 1.0, out=result)


def _split_runs(values: np.ndarray, linked: np.ndarray,
                starts: np.ndarray) -> None:
    """Group runs of two or more consecutive links the walk's way.

    A group holds every entry within tolerance of the group's own
    minimum, not of its neighbour, so a run of links may split into
    several groups. Marks each new group in ``starts``.
    """
    edges = np.diff(linked.astype(np.int8), prepend=0, append=0)
    for first, last in zip((edges == 1).nonzero()[0].tolist(),
                           (edges == -1).nonzero()[0].tolist()):
        head = first
        for i in range(first + 1, last + 1):
            if values[i] > values[head] * RELATIVE_TIE_TOLERANCE:
                starts[i] = True
                head = i


def _resum_in_walk_order(pmf: np.ndarray, order: np.ndarray,
                         heads: np.ndarray, sums: np.ndarray) -> None:
    """Re-add every group of three or more in the walk's order.

    The walk adds a group's left-flank members upward, then its
    right-flank members as the right pointer meets them, downward. In
    the last group the left pointer crosses the mode and takes the
    right-flank members upward instead.
    """
    peak = int(pmf.argmax())
    ends = np.append(heads[1:], len(order))
    for g in ((ends - heads) >= 3).nonzero()[0].tolist():
        members = order[heads[g]:ends[g]]
        left = np.sort(members[members <= peak])
        right = np.sort(members[members > peak])
        if g < len(heads) - 1:
            right = right[::-1]
        walk = np.concatenate((left, right))
        sums[g] = sum(pmf[walk].tolist())
