"""The numpy p-value tables equal the scalar oracle bit for bit.

``PValueBuffer`` builds its pmf with numpy (vectorized log space when
the recurrence seed underflows) and runs Figure 2's walk as a merge of
the two flanks. Every rule p-value the library reports comes from these
tables, so they must equal the scalar reference in
:mod:`tests.stats.pvalue_oracle` exactly — ``np.array_equal``, not a
tolerance — on every table the paper workloads reach and on the shapes
where the walk's tie grouping matters.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.data import make_german, make_mushroom
from repro.errors import StatsError
from repro.mining.rules import mine_class_rules
from repro.stats import PValueBuffer, pmf, pmf_table, support_bounds
from repro.stats.pvalue_buffer import _two_ends_sum_up

from .pvalue_oracle import (
    oracle_log_space_table,
    oracle_midp,
    oracle_pmf_table,
    oracle_two_ends_sum_up,
)


def _mismatches(tables):
    """``(n, n_c, supp_x)`` of every table whose exact or mid-p
    ``PValueBuffer`` differs from the oracle in any bit."""
    built, expected, lengths = [], [], []
    for n, n_c, supp_x in tables:
        pmf_values = oracle_pmf_table(n, n_c, supp_x)
        exact = oracle_two_ends_sum_up(pmf_values)
        for midp, values in ((False, exact),
                             (True, oracle_midp(exact, pmf_values))):
            built.append(PValueBuffer(n, n_c, supp_x, midp=midp).array)
            expected.extend(values)
        lengths.append(2 * len(exact))
    new, old = np.concatenate(built), np.array(expected)
    if np.array_equal(new, old):
        return []
    table_of = np.repeat(np.arange(len(tables)), lengths)
    return sorted({tables[i] for i in table_of[new != old].tolist()})


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


def test_mushroom_tables():
    # n = 8124: every table's recurrence seed underflows, so this is
    # the vectorized log-space path.
    tables = _reached(make_mushroom(seed=0), 2000)
    assert len(tables) == 995
    assert _mismatches(tables) == []


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
    """The oracle's inline per-entry evaluation is ``pmf`` itself."""
    low, high = support_bounds(n, n_c, supp_x)
    assert oracle_log_space_table(n, n_c, supp_x) == [
        pmf(k, n, n_c, supp_x) for k in range(low, high + 1)]


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
    """The merge-based walk equals the scalar walk on any unimodal
    sequence: plateaus inside a flank, ties across flanks, chained
    near-ties, zeros, and three or more tied values at the top."""
    values = sorted(left) + sorted(right, reverse=True)
    assume(max(values) > 0.0)  # a pmf's mode never underflows
    assert np.array_equal(_two_ends_sum_up(np.array(values)),
                          np.array(oracle_two_ends_sum_up(values)))


def test_walk_rejects_nan():
    with pytest.raises(StatsError):
        _two_ends_sum_up(np.array([0.1, float("nan"), 0.2]))


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
    assert table == oracle_pmf_table(8124, 3916, 2000)
