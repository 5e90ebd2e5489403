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

The table is built by :func:`~repro.stats.pvalue_tables.
fill_fisher_tables` as a store of one key — the native kernel, or the
scalar builder of :mod:`repro.stats.pvalue_scalar` without it — and
stored as one float64 array.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import StatsError
from .hypergeom import support_bounds
from .logfact import LogFactorialBuffer
from .pvalue_tables import fill_fisher_tables

__all__ = ["PValueBuffer"]


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
        pvalues = np.empty(self.high - self.low + 1)
        fill_fisher_tables(n, [n_c], [supp_x], [self.low], [self.high],
                           [0], pvalues, midp=midp, logfact=buffer)
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

