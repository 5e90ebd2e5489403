"""Unit tests for the flat p-value table store (Section 4.2.3)."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import _native
from repro.errors import StatsError
from repro.stats import (
    PValueBuffer,
    PValueTables,
    chi2_rule_p_value,
    log_pmf,
    support_bounds,
)
from repro.stats.pvalue_scalar import pvalue_table
from repro.stats.pvalue_tables import LOG_PMF_FLOOR

from ..corrections.permutation_oracle import SCALAR_SCORERS

N = 100
CLASS_SUPPORTS = (60, 40)
KEYS = ((1, 5), (1, 17), (0, 40), (1, 80), (0, 80), (1, 17), (1, 5))


def _store(scorer="fisher", keys=KEYS):
    return PValueTables(N, CLASS_SUPPORTS, [c for c, _ in keys],
                        [s for _, s in keys], scorer=scorer)


def _every_support(keys=KEYS):
    """``(classes, coverages, supports)`` over every reachable support
    of every key."""
    rows = []
    for c, s in sorted(set(keys)):
        low, high = support_bounds(N, CLASS_SUPPORTS[c], s)
        rows += [(c, s, k) for k in range(low, high + 1)]
    return tuple(list(column) for column in zip(*rows))


class TestLookups:
    @pytest.mark.parametrize("scorer", ("fisher", "fisher-midp"))

    def test_fisher_matches_scalar(self, scorer):
        classes, coverages, supports = _every_support()
        got = _store(scorer).p_values(classes, coverages, supports)
        for p, c, s, k in zip(got, classes, coverages, supports):
            assert p == pytest.approx(
                SCALAR_SCORERS[scorer](k, N, CLASS_SUPPORTS[c], s),
                rel=1e-9)

    def test_chi2_matches_scalar_exactly(self):
        classes, coverages, supports = _every_support()
        got = _store("chi2").p_values(classes, coverages, supports)
        assert got.tolist() == [
            chi2_rule_p_value(k, N, CLASS_SUPPORTS[c], s)
            for c, s, k in zip(classes, coverages, supports)]

    @pytest.mark.parametrize("midp", (False, True))

    def test_tables_are_pvalue_buffers_bit_for_bit(self, midp):
        store = _store("fisher-midp" if midp else "fisher")
        for c, s in set(KEYS):
            buffer = PValueBuffer(N, CLASS_SUPPORTS[c], s, midp=midp)
            supports = np.arange(buffer.low, buffer.high + 1)
            offset = store.offsets[store.index([c], [s])[0]]
            assert np.array_equal(store.flat[offset + supports],
                                  buffer.array)


class TestKeys:
    def test_one_table_per_distinct_key(self):
        store = _store()
        assert store.n_built == len(set(KEYS))

    def test_flat_is_sized_by_support_bounds(self):
        """At n = 100 every table is on the ratio recurrence and is
        stored whole."""
        bounds = [support_bounds(N, CLASS_SUPPORTS[c], s)
                  for c, s in set(KEYS)]
        store = _store()
        assert len(store.flat) == sum(high - low + 1
                                      for low, high in bounds)
        assert not store.flat.flags.writeable

    @pytest.mark.parametrize("scorer", ("fisher", "fisher-midp"))
    def test_flat_is_sized_by_live_windows(self, scorer):
        """A log-space table stores exactly its live window — every
        support whose scalar log-pmf is at least ``LOG_PMF_FLOOR`` —
        plus one pad on each side where it dropped supports. The
        window holds the scalar oracle's whole nonzero span, and the
        oracle's full table is 0.0 at every support stored as a pad
        or not at all."""
        n, class_supports = 8124, (4208, 3916)
        keys = [(0, 1), (1, 2000), (0, 2000), (1, 4062), (0, 7000),
                (1, 8124)]
        store = PValueTables(n, class_supports, [c for c, _ in keys],
                             [s for _, s in keys], scorer)
        expected_size = 0
        for c, s in keys:
            n_c = class_supports[c]
            low, high = support_bounds(n, n_c, s)
            live = [k for k in range(low, high + 1)
                    if log_pmf(k, n, n_c, s) >= LOG_PMF_FLOOR]
            first, last = live[0] - (live[0] > low), \
                live[-1] + (live[-1] < high)
            key = store.index([c], [s])[0]
            assert (store.first[key], store.last[key]) == (first, last)
            expected_size += last - first + 1
            full = pvalue_table(n, n_c, s, midp=scorer == "fisher-midp")
            nonzero = [k for k, p in zip(range(low, high + 1), full) if p]
            assert live[0] <= nonzero[0] and nonzero[-1] <= live[-1]
            outside = [p for k, p in zip(range(low, high + 1), full)
                       if not live[0] <= k <= live[-1]]
            assert outside == [0.0] * len(outside)
        assert store.n_entries == len(store.flat) == expected_size
        assert expected_size < sum(
            np.diff(support_bounds(n, class_supports[c], s))[0] + 1
            for c, s in keys)

    def test_empty_store(self):
        store = PValueTables(N, CLASS_SUPPORTS, [], [])
        assert store.n_built == 0 and len(store.flat) == 0
        assert len(store.p_values([], [], [])) == 0

    def test_mushroom_builds_one_table_per_key(self):
        """``mushroom-bh``'s Score stage: 995 distinct keys, 995 tables
        (the one-slot dynamic tier rebuilt 17 of them)."""
        from repro.data import make_mushroom
        from repro.mining import mine_class_rules

        ruleset = mine_class_rules(make_mushroom(seed=0), 2000)
        keys = {(r.class_index, r.coverage) for r in ruleset.rules}
        assert ruleset.tables.n_built == len(keys) == 995

    def test_chi2_rule_set_builds_its_store_on_first_use(
            self, small_random_dataset):
        from repro.mining import mine_class_rules

        ruleset = mine_class_rules(small_random_dataset, 15,
                                   scorer="chi2")
        assert ruleset._tables is None
        tables = ruleset.tables
        assert tables.scorer == "chi2" and ruleset.tables is tables
        for rule in ruleset.rules:
            assert tables.p_value(rule.class_index, rule.coverage,
                                  rule.support) == rule.p_value

    def test_footprint_is_the_flat_array(self):
        """Building the store keeps at most 1.1x its flat array alive:
        each key's table is copied in and dropped."""
        import tracemalloc

        from repro.stats import LogFactorialBuffer

        logfact = LogFactorialBuffer(8124)
        logfact.as_array(8124)
        # One small store first, so first-use imports and the scalar
        # builder's cached log-factorial list fall outside the window.
        PValueTables(8124, (4208, 3916), [1], [2000], logfact=logfact)
        coverages = list(range(2000, 2400))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = PValueTables(8124, (4208, 3916), [1] * 400,
                                 coverages, logfact=logfact)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert store.n_built == 400
        assert allocated <= 1.1 * store.flat.nbytes


class TestBuilders:
    @pytest.mark.parametrize("scorer", ("fisher", "fisher-midp"))
    def test_scalar_fallback_equals_kernel(self, scorer, monkeypatch):
        """The store built with the suite unloaded (no compiler,
        ``REPRO_NATIVE=0``) is the same array, bit for bit."""
        n, class_supports = 8124, (4208, 3916)
        classes = [0, 1, 0, 1, 1]
        coverages = [2000, 2000, 2500, 4062, 8124]
        built = PValueTables(n, class_supports, classes, coverages,
                             scorer)
        monkeypatch.setattr(_native, "_kernel", None)
        fallback = PValueTables(n, class_supports, classes, coverages,
                                scorer)
        assert np.array_equal(built.flat, fallback.flat)

    def test_n_entries_counts_every_p_value(self):
        store = _store()
        assert store.n_entries == len(store.flat) > 0

    def test_one_debug_record_per_store(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.stats"):
            store = _store("fisher-midp")
        records = [r for r in caplog.records if r.name == "repro.stats"]
        assert len(records) == 1
        message = records[0].getMessage()
        assert message.startswith(
            f"p-value tables: fisher-midp, {store.n_built} keys, "
            f"{store.n_entries} entries, ")
        builder = ("native" if _native.load_suite() is not None
                   else "scalar (native kernels")
        assert f"entries, {builder}" in message


class TestErrors:
    def test_support_outside_range_raises(self):
        store = _store()
        low, high = support_bounds(N, 40, 80)
        for support in (low - 1, high + 1):
            with pytest.raises(StatsError, match="outside reachable"):
                store.p_value(1, 80, support)

    def test_unknown_key_raises(self):
        store = _store()
        with pytest.raises(StatsError, match="no p-value table"):
            store.p_value(0, 17, 5)
        with pytest.raises(StatsError, match="no p-value table"):
            store.index([1], [N + 1])

    def test_fill_refuses_what_does_not_fit(self):
        """Keys, windows and offsets are checked before any pointer
        reaches the kernel."""
        from repro.stats.pvalue_tables import fill_fisher_tables

        high = support_bounds(N, 40, 17)[1]
        width = high + 1
        for n_c, coverage, low_k, high_k, start, out in (
                (40, 17, 0, high, 0, np.empty(width - 1)),
                (40, 17, 0, high, 1, np.empty(width)),
                (40, 17, 0, high, -1, np.empty(width)),
                (40, N + 1, 0, high, 0, np.empty(2 * N)),
                (-1, 17, 0, high, 0, np.empty(width)),
                (40, 17, 0, high, 0, np.empty(width, dtype=np.float32)),
                (40, 17, -1, high, 0, np.empty(width + 1)),
                (40, 17, 0, high + 1, 0, np.empty(width + 1)),
                (40, 17, 5, 4, 0, np.empty(width)),
                # A ratio-recurrence table is built whole.
                (40, 17, 1, high, 0, np.empty(width))):
            with pytest.raises(StatsError):
                fill_fisher_tables(N, [n_c], [coverage], [low_k],
                                   [high_k], [start], out)
        with pytest.raises(StatsError):
            fill_fisher_tables(N, [40, 40], [17], [0], [high], [0],
                               np.empty(width))
        out = np.empty(width)
        native = fill_fisher_tables(N, [40], [17], [0], [high], [0], out)
        assert native is (_native.load_suite() is not None)
        assert np.array_equal(out, PValueBuffer(N, 40, 17).array)

    def test_log_space_window_must_be_in_range(self):
        """A log-space window may narrow the table, but not leave
        ``[L, U]``."""
        from repro.stats.pvalue_tables import fill_fisher_tables

        n, n_c, s = 8124, 3916, 2000
        low, high = support_bounds(n, n_c, s)
        out = np.empty(high - low + 2)
        for window in ((low - 1, high), (low, high + 1)):
            with pytest.raises(StatsError):
                fill_fisher_tables(n, [n_c], [s], [window[0]],
                                   [window[1]], [0], out)
        fill_fisher_tables(n, [n_c], [s], [low + 10], [high - 10], [0],
                           out)
        assert out[:high - low - 19].tolist() == pvalue_table(
            n, n_c, s, window=(low + 10, high - 10))

    def test_invalid_construction(self):
        with pytest.raises(StatsError):
            PValueTables(N, CLASS_SUPPORTS, [2], [10])
        with pytest.raises(StatsError):
            PValueTables(N, CLASS_SUPPORTS, [0], [N + 1])
        with pytest.raises(StatsError):
            PValueTables(N, (N + 1, 0), [0], [10])
        with pytest.raises(StatsError):
            PValueTables(N, CLASS_SUPPORTS, [0, 1], [10])
        with pytest.raises(StatsError):
            PValueTables(N, CLASS_SUPPORTS, [0], [10], scorer="exact")
