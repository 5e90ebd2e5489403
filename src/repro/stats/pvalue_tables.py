"""One flat p-value table store per rule set (Section 4.2.3).

For fixed ``n`` and class support ``n_c`` a rule's p-value depends only
on its coverage ``supp(X)`` and support ``supp(R)``, so rules of the
same class and coverage share one table of every reachable support
``[L, U]``. :class:`PValueTables` builds that table once per distinct
``(class, coverage)`` key a rule set needs, into one float64 array
preallocated from :func:`~repro.stats.hypergeom.support_bounds`. Each
key has one offset that already absorbs its ``L``, so a rule's p-value
is ``flat[offset + supp(R)]`` and any batch of rules — Score's
observed supports, or every rule under a block of permutations —
resolves with one fancy index.

Fisher and mid-p tables are :class:`~repro.stats.pvalue_buffer.
PValueBuffer` arrays (Figure 2's two-ends walk); chi-square tables are
filled entry by entry with :func:`~repro.stats.chi2.chi2_rule_p_value`,
the function Score calls, so every entry equals the scalar p-value bit
for bit. The paper's memory-bounded static tier and one-slot dynamic
tier are Figure 4 ablation arms and live in
``benchmarks/test_fig04_optimizations.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import StatsError
from .chi2 import chi2_rule_p_value
from .logfact import LogFactorialBuffer
from .pvalue_buffer import PValueBuffer

__all__ = ["PValueTables", "SCORERS", "score_rules"]

#: The rule scorers a store can tabulate.
SCORERS = ("fisher", "fisher-midp", "chi2")


class PValueTables:
    """The p-value tables of a set of ``(class, coverage)`` keys.

    Parameters
    ----------
    n, class_supports:
        Dataset size and the support of every class; they fix each
        key's null.
    classes, coverages:
        One entry per rule (repeats are fine): the keys whose tables
        are built, each exactly once.
    scorer:
        ``"fisher"`` (exact two-tailed), ``"fisher-midp"`` (Lancaster
        mid-p) or ``"chi2"``.

    Attributes
    ----------
    flat:
        Every table, back to back, as one read-only float64 array.
    n_built:
        Number of tables built: the number of distinct keys.
    """

    def __init__(self, n: int, class_supports: Sequence[int],
                 classes: Sequence[int], coverages: Sequence[int],
                 scorer: str = "fisher",
                 logfact: Optional[LogFactorialBuffer] = None) -> None:
        if scorer not in SCORERS:
            raise StatsError(f"unknown scorer {scorer!r}")
        n_c = np.asarray(class_supports, dtype=np.int64)
        classes = np.asarray(classes, dtype=np.int64)
        coverages = np.asarray(coverages, dtype=np.int64)
        if classes.shape != coverages.shape:
            raise StatsError("classes and coverages differ in length")
        if ((classes < 0) | (classes >= len(n_c))).any():
            raise StatsError(f"class index out of [0, {len(n_c)})")
        if ((coverages < 0) | (coverages > n)).any():
            raise StatsError(f"coverage out of [0, {n}]")
        if ((n_c < 0) | (n_c > n)).any():
            raise StatsError(f"class support out of [0, {n}]")
        self.n = n
        self.scorer = scorer
        # Keys sort by class, then coverage.
        self._keys = np.unique(classes * (n + 1) + coverages)
        key_class, key_coverage = np.divmod(self._keys, n + 1)
        key_n_c = n_c[key_class]
        self._low = np.maximum(0, key_n_c + key_coverage - n)
        self._high = np.minimum(key_n_c, key_coverage)
        widths = self._high - self._low + 1
        starts = np.cumsum(widths) - widths
        flat = np.empty(int(widths.sum()))
        midp = scorer == "fisher-midp"
        for n_ci, coverage, low, high, start in zip(
                key_n_c.tolist(), key_coverage.tolist(),
                self._low.tolist(), self._high.tolist(), starts.tolist()):
            stop = start + high - low + 1
            if scorer == "chi2":
                flat[start:stop] = [chi2_rule_p_value(k, n, n_ci, coverage)
                                    for k in range(low, high + 1)]
            else:
                flat[start:stop] = PValueBuffer(n, n_ci, coverage, logfact,
                                                midp=midp).array
        flat.flags.writeable = False
        self.flat = flat
        self._offsets = starts - self._low
        self.n_built = len(self._keys)

    def _index(self, classes, coverages) -> np.ndarray:
        keys = (np.asarray(classes, dtype=np.int64) * (self.n + 1)
                + np.asarray(coverages, dtype=np.int64))
        index = np.searchsorted(self._keys, keys)
        found = index < len(self._keys)
        found[found] = self._keys[index[found]] == keys[found]
        if not found.all():
            c, s = divmod(int(keys[~found][0]), self.n + 1)
            raise StatsError(f"no p-value table for class {c}, "
                             f"coverage {s}")
        return index

    def offsets(self, classes, coverages) -> np.ndarray:
        """Per rule, the offset with ``flat[offset + supp(R)]`` its
        p-value (int64)."""
        return self._offsets[self._index(classes, coverages)]

    def p_values(self, classes, coverages, supports) -> np.ndarray:
        """The p-values of rules given by class, coverage and support.

        A support outside its key's reachable range ``[L, U]`` is
        impossible and raises :class:`~repro.errors.StatsError`.
        """
        index = self._index(classes, coverages)
        supports = np.asarray(supports, dtype=np.int64)
        outside = ((supports < self._low[index])
                   | (supports > self._high[index]))
        if outside.any():
            i = int(outside.nonzero()[0][0])
            c, s = divmod(int(self._keys[index[i]]), self.n + 1)
            raise StatsError(
                f"supp(R)={int(supports[i])} outside reachable range "
                f"[{int(self._low[index[i]])}, "
                f"{int(self._high[index[i]])}] for class {c}, "
                f"coverage {s}")
        return self.flat[self._offsets[index] + supports]

    def p_value(self, class_index: int, coverage: int,
                support: int) -> float:
        """One rule's p-value; see :meth:`p_values`."""
        return float(self.p_values([class_index], [coverage],
                                   [support])[0])


def score_rules(n: int, class_supports: Sequence[int],
                classes: Sequence[int], coverages: Sequence[int],
                supports: Sequence[int], scorer: str = "fisher",
                ) -> Tuple[List[float], Optional[PValueTables]]:
    """Rules' p-values under ``scorer``, and the store that served them.

    Fisher and mid-p rules read a store built for their keys with one
    fancy index. Chi-square rules are scored directly with
    :func:`~repro.stats.chi2.chi2_rule_p_value` and no store is
    returned: a chi-square table costs one scalar call per entry, so
    it is built only where a whole null is needed (permutation and
    sequential tests).
    """
    if scorer == "chi2":
        return [chi2_rule_p_value(k, n, class_supports[c], s)
                for c, s, k in zip(classes, coverages, supports)], None
    tables = PValueTables(n, class_supports, classes, coverages, scorer)
    return tables.p_values(classes, coverages, supports).tolist(), tables
