"""The p-value tables equal the scalar builder bit for bit.

With the native suite loaded every Fisher and mid-p table is built by
the C kernel ``repro_pvalue_tables``; without it (``REPRO_NATIVE=0``,
no compiler) by the scalar builder in :mod:`repro.stats.pvalue_scalar`,
which is also the oracle here. Every rule p-value the library reports
comes from these tables. A log-space table is built and stored only
over its live window, so the store's p-value of every ``supp(R)`` in
``[L, U]`` must equal the oracle's *full* table in every bit, on every
table the paper workloads reach and on the shapes where the walk's tie
grouping matters. The Mushroom, Adult-shaped and log-space property
tests build their stores with the suite loaded and hidden; run the
rest of the module with the suite on and off.
"""

from __future__ import annotations

import ctypes
import math
import sys
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.data import make_german, make_mushroom
from repro.errors import StatsError
from repro.mining.rules import mine_class_rules
from repro.stats import (
    RELATIVE_TIE_TOLERANCE,
    LogFactorialBuffer,
    PValueTables,
    pmf,
    pmf_table,
    support_bounds,
)
from repro.stats.pvalue_scalar import mid_p, pvalue_table, two_ends_sum_up


def _store_values(store, class_index, n, n_c, supp_x):
    """The store's p-value of every ``supp(R)`` in ``[L, U]``."""
    low, high = support_bounds(n, n_c, supp_x)
    width = high - low + 1
    return store.p_values([class_index] * width, [supp_x] * width,
                          np.arange(low, high + 1))


def _same_bits(got, expected):
    return np.array_equal(np.asarray(got).view(np.uint64),
                          np.asarray(expected, dtype=np.float64)
                          .view(np.uint64))


def _mismatches(tables):
    """``(n, n_c, supp_x)`` of every table whose exact or mid-p
    :class:`PValueTables` p-value of any ``supp(R)`` in ``[L, U]``
    differs in any bit from the oracle's full table.

    The tables of one ``n`` are one store per scorer, one class per
    distinct ``n_c``, as Score builds them. A log-space table stores
    only its live window, so every value is read through
    :meth:`PValueTables.p_values`, as the library reads it.
    """
    by_n = defaultdict(list)
    for n, n_c, supp_x in tables:
        by_n[n].append((n_c, supp_x))
    bad = set()
    for n, keys in by_n.items():
        supports = sorted({n_c for n_c, _ in keys})
        classes = [supports.index(n_c) for n_c, _ in keys]
        coverages = [supp_x for _, supp_x in keys]
        stores = [PValueTables(n, supports, classes, coverages, scorer)
                  for scorer in ("fisher", "fisher-midp")]
        for (n_c, supp_x), class_index in zip(keys, classes):
            table = pmf_table(n, n_c, supp_x)
            exact = two_ends_sum_up(table)
            for store, expected in zip(stores,
                                       (exact, mid_p(exact, table))):
                got = _store_values(store, class_index, n, n_c, supp_x)
                if not _same_bits(got, expected):
                    bad.add((n, n_c, supp_x))
    return sorted(bad)


@pytest.fixture(params=("native", "scalar"))
def builder(request, monkeypatch):
    """Build the stores with the native suite loaded, then hidden (as
    with ``REPRO_NATIVE=0`` or no compiler)."""
    if request.param == "native":
        if _native.load_suite() is None:
            pytest.skip(f"native kernel suite unavailable "
                        f"({_native.native_status()})")
    else:
        monkeypatch.setattr(_native, "_kernel", None)
    return request.param


def _reached(dataset, min_sup):
    """(n, n_c, coverage) of every rule mined at ``min_sup``."""
    ruleset = mine_class_rules(dataset, min_sup)
    n = dataset.n_records
    return sorted({(n, dataset.class_support(rule.class_index),
                    rule.coverage) for rule in ruleset.rules})


def test_every_small_table():
    tables = [(n, n_c, supp_x)
              for n in range(61)
              for n_c in range(n + 1)
              for supp_x in range(n + 1)]
    assert _mismatches(tables) == []


@pytest.fixture(scope="module")
def mushroom_keys():
    return _reached(make_mushroom(seed=0), 2000)


def test_mushroom_tables(mushroom_keys, builder):
    # n = 8124: every table's recurrence seed underflows, so this is
    # the log-space path; most tables drop entries on both sides.
    assert len(mushroom_keys) == 995
    assert _mismatches(mushroom_keys) == []


#: Adult's size and class supports (32,561 records, 7,841 ``>50K``).
ADULT_N, ADULT_CLASSES = 32561, (24720, 7841)


def test_adult_shaped_tables(builder):
    """n = 32,561 at coverages from Adult's min_sup 1628 (5%) up: the
    live windows are a few hundred supports of tables up to 7,842
    wide."""
    coverages = sorted({1, 2, 50, 1628, 1629, 2500, 7841, 7842, 9000,
                        16280, 24720, 24721, 30000, ADULT_N - 1,
                        ADULT_N})
    tables = [(ADULT_N, n_c, supp_x) for n_c in ADULT_CLASSES
              for supp_x in coverages]
    assert _mismatches(tables) == []


def _log_space(key):
    n, n_c, supp_x = key
    low = support_bounds(n, n_c, supp_x)[0]
    return pmf(low, n, n_c, supp_x) < sys.float_info.min


@st.composite
def _log_space_keys(draw):
    """``(n, n_c, supp_x)`` whose recurrence seed ``H(L)`` is below
    ``DBL_MIN``: class support and coverage away from 0 and ``n``,
    where nearly every such table at ``n >= 2000`` is."""
    n = draw(st.integers(2000, 40000))
    margin = n // 10
    return (n, draw(st.integers(margin, n - margin)),
            draw(st.integers(margin, n - margin)))


@given(_log_space_keys().filter(_log_space))
@settings(max_examples=40, deadline=None)
def test_log_space_tables_property(key):
    """Any log-space key: its live window, built natively and by the
    scalar builder, gives every ``supp(R)`` in ``[L, U]`` the full
    oracle table's bits."""
    n, n_c, supp_x = key
    table = pmf_table(n, n_c, supp_x)
    exact = two_ends_sum_up(table)
    for native in (True, False):
        if native and _native.load_suite() is None:
            continue
        with pytest.MonkeyPatch.context() as patch:
            if not native:
                patch.setattr(_native, "_kernel", None)
            for scorer, expected in (("fisher", exact),
                                     ("fisher-midp",
                                      mid_p(exact, table))):
                store = PValueTables(n, [n_c], [0], [supp_x], scorer)
                got = _store_values(store, 0, n, n_c, supp_x)
                assert _same_bits(got, expected), (native, scorer)


def test_german_tables():
    # Every coverage from min_sup up, for both classes: a superset of
    # the (class, coverage) pairs mining at min_sup 40 reaches, at a
    # fraction of the mining time.
    dataset = make_german(seed=0)
    n = dataset.n_records
    tables = [(n, dataset.class_support(c), supp_x)
              for c in range(dataset.n_classes)
              for supp_x in range(40, n + 1)]
    assert _mismatches(tables) == []


def test_symmetric_tables():
    # n_c = n/2 makes the flanks tie pairwise: every group is a pair
    # or wider, at large n including underflowed zeros.
    tables = [(n, n // 2, supp_x)
              for n in (100, 1000, 8124, 20000)
              for supp_x in sorted({1, 2, 3, 7, n // 8, n // 3, n // 2,
                                    n // 2 + 1, n - 5, n - 1})]
    assert _mismatches(tables) == []


def test_subnormal_plateau_table():
    # The recurrence walks the right flank down into subnormals, where
    # neighbours round to the same value: a run of links whose groups
    # of three or more are re-added in the walk's order.
    assert _mismatches([(21044, 10016, 9290)]) == []


def _double_mode(n, n_c):
    """Coverages whose pmf has two equal modes: ``(s+1)(n_c+1)``
    divisible by ``n + 2``."""
    step = (n + 2) // math.gcd(n + 2, n_c + 1)
    return list(range(step - 1, n + 1, step))


@pytest.mark.parametrize("n", [60, 98, 1000, 8124, 20000])
def test_double_mode_tables(n):
    tables = []
    for n_c in (n // 7, n // 3, n // 2, n // 2 + 1, 2 * n // 3):
        for supp_x in _double_mode(n, n_c)[:6]:
            low, high = support_bounds(n, n_c, supp_x)
            mode_k = (supp_x + 1) * (n_c + 1) // (n + 2)
            assert low < mode_k <= high
            tables.append((n, n_c, supp_x))
    assert tables
    assert _mismatches(tables) == []


@pytest.mark.parametrize("n,n_c,supp_x", [(8124, 3916, 2000),
                                          (8124, 4208, 7000),
                                          (20000, 10000, 9999)])
def test_oracle_log_space_entries_equal_scalar_pmf(n, n_c, supp_x):
    """The scalar builder's inline per-entry evaluation is ``pmf``
    itself."""
    low, high = support_bounds(n, n_c, supp_x)
    assert pmf(low, n, n_c, supp_x) < sys.float_info.min
    assert pmf_table(n, n_c, supp_x) == [
        pmf(k, n, n_c, supp_x) for k in range(low, high + 1)]


def _walk(values, midp=False):
    """Figure 2's walk over ``values`` by the native kernel's walk
    entry point, or by the scalar walk without the suite."""
    suite = _native.load_suite()
    if suite is None:
        pvalues = two_ends_sum_up(values)
        return np.array(mid_p(pvalues, values) if midp else pvalues)
    pmf_values = np.array(values, dtype=np.float64)
    out = np.empty(len(pmf_values))
    double_p = ctypes.POINTER(ctypes.c_double)
    status = suite.pvalue_walk(pmf_values.ctypes.data_as(double_p),
                               len(pmf_values), RELATIVE_TIE_TOLERANCE,
                               int(midp), out.ctypes.data_as(double_p))
    if status != 0:
        raise StatsError(f"walk failed with status {status}")
    return out


# Pmf-like values chosen so that links chain: 1e-3 * (1 + 0.6e-7)^j
# links to its neighbour, but j = 0 and j = 2 are not within tolerance,
# so runs of links split into several groups; near-equal values at the
# top, whose sum depends on the order the walk adds them in; plus
# zeros, subnormals and exact ties.
_WALK_VALUES = [0.0, 5e-324, 1e-323, 2.5e-320, 1e-300]
_WALK_VALUES += [1e-3 * (1 + 0.6e-7) ** j for j in range(5)]
_WALK_VALUES += [0.05, 0.05 * (1 + 0.9e-7), 0.2]
_WALK_VALUES += [0.3 * (1 + 0.3e-7) ** j for j in range(3)]


@given(st.lists(st.sampled_from(_WALK_VALUES), min_size=0, max_size=25),
       st.lists(st.sampled_from(_WALK_VALUES), min_size=1, max_size=25))
@settings(max_examples=300, deadline=None)
def test_walk_on_unimodal_sequences_with_plateaus(left, right):
    """The kernel's walk equals the scalar walk on any unimodal
    sequence: plateaus inside a flank, ties across flanks, chained
    near-ties, zeros, and three or more tied values at the top; exact
    and mid-p."""
    values = sorted(left) + sorted(right, reverse=True)
    assume(max(values) > 0.0)  # a pmf's mode never underflows
    exact = two_ends_sum_up(values)
    assert np.array_equal(_walk(values), np.array(exact))
    assert np.array_equal(_walk(values, midp=True),
                          np.array(mid_p(exact, values)))


def test_tie_group_sums_left_to_right():
    """A group of three whose left-to-right float sum differs from the
    correctly rounded one: the walk adds the members one by one in
    walk order (``sum()`` compensates from Python 3.12 on)."""
    a, b, c = (0.0010000000040309273, 0.0010000000254230122,
               0.0010000000229132386)
    assert a <= b and a <= c <= a * RELATIVE_TIE_TOLERANCE
    naive = (a + b) + c
    assert naive != math.fsum([a, b, c])
    values = [a, b, 0.5, c]  # one group {a, b, c}, then the mode
    exact = two_ends_sum_up(values)
    assert exact[0] == exact[1] == exact[3] == naive
    assert np.array_equal(_walk(values), np.array(exact))


def test_walk_rejects_nan():
    with pytest.raises(StatsError):
        _walk([0.1, float("nan"), 0.2])
    with pytest.raises(StatsError):
        two_ends_sum_up([0.1, float("nan"), 0.2])


def test_store_rejects_nan_pmf():
    """A NaN log-factorial makes a NaN pmf, which both builders refuse
    with :class:`StatsError`."""
    logfact = LogFactorialBuffer(100)
    logfact._table[40] = float("nan")
    logfact._array = np.array(logfact._table)
    with pytest.raises(StatsError, match="NaN"):
        PValueTables(100, (50, 50), [0], [60], logfact=logfact)


def test_midp_is_not_contracted():
    """Mid-p's ``p - 0.5 * mass`` fused into one FMA moves the last bit
    of 8 entries of this Mushroom table (9,150 over the 995 tables);
    the suite is built without floating-point contraction."""
    assert all("-ffp-contract=off" in flags
               and "-ffast-math" not in flags
               for flags in _native._FLAG_SETS)
    store = PValueTables(8124, (4208, 3916), [0], [2000], "fisher-midp")
    assert _same_bits(_store_values(store, 0, 8124, 4208, 2000),
                      pvalue_table(8124, 4208, 2000, midp=True))


def test_subnormal_seed_table_is_accurate():
    """A subnormal recurrence seed has too few significant bits; the
    recurrence used to copy its ~3e-6 relative error into every entry.
    Such tables are now built in log space and match exact rational
    arithmetic."""
    n, n_c, supp_x = 1064, 532, 532
    low, high = support_bounds(n, n_c, supp_x)
    assert 0.0 < pmf(low, n, n_c, supp_x) < sys.float_info.min
    total = math.comb(n, supp_x)
    for k, value in zip(range(low, high + 1), pmf_table(n, n_c, supp_x)):
        exact = Fraction(math.comb(n_c, k) * math.comb(n - n_c, supp_x - k),
                         total)
        if exact > 1e-300:
            assert abs(value - exact) <= 1e-9 * exact


def test_pmf_table_stays_a_list_of_floats():
    table = pmf_table(8124, 3916, 2000)
    assert type(table) is list
    assert all(type(value) is float for value in table)
