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

Fisher and mid-p tables (the hypergeometric pmf and Figure 2's
two-ends walk) are built by :func:`fill_fisher_tables`: with the
native suite loaded, every key in one ``repro_pvalue_tables`` call
that writes straight into the flat array; without it, key by key with
the scalar builder of :mod:`repro.stats.pvalue_scalar`, which the
kernel transliterates bit for bit. Chi-square tables are filled entry
by entry with :func:`~repro.stats.chi2.chi2_rule_p_value`, the
function Score calls, so every entry equals the scalar p-value bit
for bit. One DEBUG record per store on the ``repro.stats`` logger
gives its keys, entries, builder and seconds. The paper's
memory-bounded static tier and one-slot dynamic tier are Figure 4
ablation arms and live in ``benchmarks/test_fig04_optimizations.py``.
"""

from __future__ import annotations

import ctypes
import logging
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import _native
from ..errors import StatsError
from .chi2 import chi2_rule_p_value
from .logfact import LogFactorialBuffer, default_buffer
from .pvalue_scalar import RELATIVE_TIE_TOLERANCE, pvalue_table

__all__ = ["PValueTables", "SCORERS", "fill_fisher_tables",
           "score_rules"]

_LOG = logging.getLogger("repro.stats")

#: The rule scorers a store can tabulate.
SCORERS = ("fisher", "fisher-midp", "chi2")

_INT64_P = ctypes.POINTER(ctypes.c_int64)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


def fill_fisher_tables(n: int, n_c: Sequence[int],
                       coverages: Sequence[int], starts: Sequence[int],
                       out: np.ndarray,
                       midp: bool = False,
                       logfact: Optional[LogFactorialBuffer] = None,
                       ) -> bool:
    """Write the p-value table of every key ``(n_c[i], coverages[i])``
    to ``out[starts[i]:]``; return whether the native kernel ran.

    ``n_c``, ``coverages`` and ``starts`` are integer sequences of one
    length and ``out`` a writable contiguous float64 array that holds
    every table. Each table holds the exact (or, with ``midp``,
    Lancaster mid-p) two-tailed p-value of every ``supp(R)`` in its
    ``[L, U]``, equal bit for bit to
    :func:`~repro.stats.pvalue_scalar.pvalue_table`. Keys or offsets
    out of range, and a pmf with NaN, raise
    :class:`~repro.errors.StatsError`.
    """
    n_c = np.ascontiguousarray(n_c, dtype=np.int64)
    coverages = np.ascontiguousarray(coverages, dtype=np.int64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    if n_c.ndim != 1 or not n_c.shape == coverages.shape == starts.shape:
        raise StatsError("n_c, coverages and starts differ in shape")
    if (out.dtype != np.float64 or out.ndim != 1
            or not out.flags.c_contiguous or not out.flags.writeable):
        raise StatsError("out must be a writable contiguous 1-d float64 "
                         "array")
    buffer = logfact or default_buffer()
    suite = _native.load_suite()
    if suite is None:
        for n_ci, coverage, start in zip(n_c.tolist(), coverages.tolist(),
                                         starts.tolist()):
            table = pvalue_table(n, n_ci, coverage, buffer, midp)
            if not 0 <= start <= len(out) - len(table):
                raise StatsError("p-value table outside out")
            out[start:start + len(table)] = table
        return False
    if n < 0:
        raise StatsError(f"population size n={n} must be non-negative")
    lf = buffer.as_array(n)
    status = suite.pvalue_tables(
        lf.ctypes.data_as(_DOUBLE_P), int(n), n_c.ctypes.data_as(_INT64_P),
        coverages.ctypes.data_as(_INT64_P),
        starts.ctypes.data_as(_INT64_P), len(n_c),
        RELATIVE_TIE_TOLERANCE, int(midp), out.ctypes.data_as(_DOUBLE_P),
        len(out))
    if status == -1:
        raise StatsError("pmf table is not unimodal or contains NaN")
    if status == -3:
        raise StatsError("p-value table key out of [0, n] or table "
                         "outside out")
    if status != 0:
        raise MemoryError("p-value tables: native scratch allocation "
                          "failed")
    return True


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
    n_entries:
        Number of p-values in all tables: ``len(flat)``.
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
        began = time.perf_counter()
        if scorer == "chi2":
            for n_ci, coverage, low, high, start in zip(
                    key_n_c.tolist(), key_coverage.tolist(),
                    self._low.tolist(), self._high.tolist(),
                    starts.tolist()):
                flat[start:start + high - low + 1] = [
                    chi2_rule_p_value(k, n, n_ci, coverage)
                    for k in range(low, high + 1)]
            builder = "chi2 scalar"
        elif fill_fisher_tables(n, key_n_c, key_coverage, starts, flat,
                                midp=scorer == "fisher-midp",
                                logfact=logfact):
            builder = "native"
        else:
            builder = f"scalar (native kernels {_native.native_status()})"
        flat.flags.writeable = False
        self.flat = flat
        self._offsets = starts - self._low
        self.n_built = len(self._keys)
        self.n_entries = len(flat)
        _LOG.debug("p-value tables: %s, %d keys, %d entries, %s, %.6f s",
                   scorer, self.n_built, self.n_entries, builder,
                   time.perf_counter() - began)

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
                ) -> Tuple[np.ndarray, Optional[PValueTables]]:
    """Rules' p-values (float64) under ``scorer``, and the store that
    served them.

    Fisher and mid-p rules read a store built for their keys with one
    fancy index. Chi-square rules are scored directly with
    :func:`~repro.stats.chi2.chi2_rule_p_value` and no store is
    returned: a chi-square table costs one scalar call per entry, so
    it is built only where a whole null is needed (permutation and
    sequential tests).
    """
    if scorer == "chi2":
        rows = zip(*(np.asarray(column, dtype=np.int64).tolist()
                     for column in (classes, coverages, supports)))
        return np.array([chi2_rule_p_value(k, n, class_supports[c], s)
                         for c, s, k in rows], dtype=np.float64), None
    tables = PValueTables(n, class_supports, classes, coverages, scorer)
    return tables.p_values(classes, coverages, supports), tables
