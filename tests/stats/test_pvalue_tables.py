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
    support_bounds,
)

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
            offset = store.offsets([c], [s])[0]
            assert np.array_equal(store.flat[offset + supports],
                                  buffer.array)


class TestKeys:
    def test_one_table_per_distinct_key(self):
        store = _store()
        assert store.n_built == len(set(KEYS))

    def test_flat_is_sized_by_support_bounds(self):
        bounds = [support_bounds(N, CLASS_SUPPORTS[c], s)
                  for c, s in set(KEYS)]
        store = _store()
        assert len(store.flat) == sum(high - low + 1
                                      for low, high in bounds)
        assert not store.flat.flags.writeable

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
            store.offsets([1], [N + 1])

    def test_fill_refuses_what_does_not_fit(self):
        """Keys and offsets are checked before any pointer reaches the
        kernel."""
        from repro.stats.pvalue_tables import fill_fisher_tables

        width = support_bounds(N, 40, 17)[1] + 1
        for n_c, coverage, start, out in (
                (40, 17, 0, np.empty(width - 1)),
                (40, 17, 1, np.empty(width)),
                (40, 17, -1, np.empty(width)),
                (40, N + 1, 0, np.empty(2 * N)),
                (-1, 17, 0, np.empty(width)),
                (40, 17, 0, np.empty(width, dtype=np.float32))):
            with pytest.raises(StatsError):
                fill_fisher_tables(N, [n_c], [coverage], [start], out)
        with pytest.raises(StatsError):
            fill_fisher_tables(N, [40, 40], [17], [0], np.empty(width))
        out = np.empty(width)
        native = fill_fisher_tables(N, [40], [17], [0], out)
        assert native is (_native.load_suite() is not None)
        assert np.array_equal(out, PValueBuffer(N, 40, 17).array)

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
