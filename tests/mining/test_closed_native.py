"""The native closed walk ≡ the Python walk, column for column.

With the kernel suite loaded, :func:`repro.mining.mine_closed` runs the
whole LCM walk in one ``repro_lcm_mine`` call; the Python walk is the
fallback when no compiler is available and the oracle here. Every
property compares the two pattern sets column by column — item CSR,
supports, parent and the tidset arena's bytes — on ragged record counts,
closure masks of one to four words, every item order, length caps and
items present in every record (a non-empty root closure). A wide view
(20,000 frequent items) pins the kernel's scratch memory to the path
instead of the m(m+1)/2 worst case.
"""

from __future__ import annotations

import logging
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.mining import mine_closed
from repro.tidvector import arena_rows, pack_bool_matrix

ORDERS = ("support-ascending", "support-descending", "original")


def _require_native():
    if _native.load_suite() is None:
        pytest.skip(f"native kernel suite unavailable "
                    f"({_native.native_status()})")


def _python_walk(tidsets, n_records, min_sup, **options):
    """Mine with the suite unloaded: the Python walk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "_kernel", None)
        return mine_closed(tidsets, n_records, min_sup, **options)


def _nodes(patterns):
    """Every column, dtype and shape included, plus the views."""
    columns = (patterns.item_ids, patterns.item_offsets,
               patterns.supports, patterns.parent, patterns.matrix.words)
    return ([(c.dtype.str, c.shape, c.tobytes()) for c in columns],
            patterns.n_records, patterns.min_sup, list(patterns))


@st.composite
def instances(draw):
    n_records = draw(st.integers(min_value=1, max_value=200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # Few random items: any closed structure, small trees.
        n_items = draw(st.integers(min_value=1, max_value=10))
        density = draw(st.sampled_from((0.1, 0.3, 0.6, 0.9)))
        flags = rng.random((n_items, n_records)) < density
    else:
        # Up to 256 items (closure masks of 1-4 words), each the
        # intersection of one or two of a few base sets, so every
        # pattern tidset is an intersection of bases and the tree stays
        # small however many items share it.
        mask_words = draw(st.integers(min_value=1, max_value=4))
        n_items = draw(st.integers(min_value=64 * mask_words - 63,
                                   max_value=64 * mask_words))
        n_bases = draw(st.integers(min_value=1, max_value=5))
        bases = rng.random((n_bases, n_records)) < rng.uniform(
            0.3, 0.95, size=(n_bases, 1))
        picks = rng.integers(0, n_bases, size=(n_items, 2))
        flags = bases[picks[:, 0]] & bases[picks[:, 1]]
    n_full = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_full):
        # Items in every record join the root's closure.
        at = int(rng.integers(0, flags.shape[0] + 1))
        flags = np.insert(flags, at, True, axis=0)
    # Low supports grow real trees; the full range hits the guards.
    min_sup = draw(st.one_of(
        st.integers(min_value=1, max_value=max(1, n_records // 4)),
        st.integers(min_value=1, max_value=n_records + 1)))
    max_length = draw(st.sampled_from((None, 0, 1, 2, 3)))
    order = draw(st.sampled_from(ORDERS))
    return flags, min_sup, max_length, order


class TestNativeEqualsPython:
    @given(instance=instances())
    @settings(max_examples=80, deadline=None)
    def test_node_for_node(self, instance):
        _require_native()
        flags, min_sup, max_length, order = instance
        n_records = flags.shape[1]
        tidsets = arena_rows(pack_bool_matrix(flags), n_records)
        options = dict(max_length=max_length, item_order=order)
        native = mine_closed(tidsets, n_records, min_sup, **options)
        python = _python_walk(tidsets, n_records, min_sup, **options)
        assert _nodes(native) == _nodes(python)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("max_length", (None, 0, 1, 2, 3))
    def test_seeded_sweep(self, order, max_length):
        # Sizeable trees on every mask width, beside hypothesis' small
        # and degenerate draws.
        _require_native()
        rng = np.random.default_rng(
            [ORDERS.index(order), 9 if max_length is None else max_length])
        for mask_words in (1, 2, 3, 4):
            n_records = 27 + 45 * mask_words  # never a multiple of 64
            bases = rng.random((4, n_records)) < 0.7
            picks = rng.integers(0, 4, size=(64 * mask_words - 3, 2))
            flags = np.vstack([
                bases[picks[:, 0]] & bases[picks[:, 1]],
                rng.random((2, n_records)) < 0.5,
                np.ones((1, n_records), dtype=bool),
            ])
            tidsets = arena_rows(pack_bool_matrix(flags), n_records)
            options = dict(max_length=max_length, item_order=order)
            native = mine_closed(tidsets, n_records, 3, **options)
            python = _python_walk(tidsets, n_records, 3, **options)
            assert _nodes(native) == _nodes(python)

    def test_fig6_exploratory_half(self):
        _require_native()
        from repro.data import GeneratorConfig, generate

        dataset = generate(GeneratorConfig(n_records=400, n_attributes=20,
                                           n_rules=0), seed=606).dataset
        half = dataset.subset(list(range(200)))
        native = mine_closed(half.item_tidsets, 200, 10)
        python = _python_walk(half.item_tidsets, 200, 10)
        assert len(native) > 1000
        assert _nodes(native) == _nodes(python)


class TestArenaOutput:
    def test_tidsets_share_one_read_only_arena(self):
        _require_native()
        rng = np.random.default_rng(4)
        flags = rng.random((12, 150)) < 0.5
        flags[3] = True
        patterns = mine_closed(arena_rows(pack_bool_matrix(flags), 150),
                               150, 5)
        arena = patterns.matrix.words
        root = patterns[0]
        assert root.parent_id == -1 and root.support == 150
        assert root.items == frozenset({3})
        assert not arena.flags.writeable
        assert all(np.shares_memory(arena, p.tidset.words)
                   for p in patterns)


class TestConcurrentWalks:
    def test_threads_match_serial(self):
        """The kernel keeps no state between calls and releases the
        GIL, so concurrent mines return the serial result."""
        _require_native()
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(31)
        flags = rng.random((14, 333)) < 0.45
        tidsets = arena_rows(pack_bool_matrix(flags), 333)
        expected = _nodes(mine_closed(tidsets, 333, 4))
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(mine_closed, tidsets, 333, 4)
                       for _ in range(8)]
            results = [future.result(timeout=60) for future in futures]
        assert all(_nodes(result) == expected for result in results)


class TestWideView:
    N_RECORDS = 1000
    N_ITEMS = 20_000

    def test_twenty_thousand_frequent_items(self):
        """A kernel that preallocated the worst-case stack would need
        m(m+1)/2 tidsets and closure masks (~0.5 TB) here."""
        _require_native()
        rng = np.random.default_rng(20)
        bases = rng.random((3, self.N_RECORDS)) < np.array(
            [[0.5], [0.6], [0.7]])
        packed = pack_bool_matrix(bases)
        copy_of = np.arange(self.N_ITEMS) % 3
        tidsets = arena_rows(packed[copy_of], self.N_RECORDS)
        min_sup = 100
        # Interleaved copies keep each LCM prefix check short.
        patterns = mine_closed(tidsets, self.N_RECORDS, min_sup,
                               item_order="original")

        # Oracle: the closed tidsets are the intersections of base
        # subsets; each closure is every copy of a base containing it.
        expected = {(frozenset(), self.N_RECORDS)}
        for size in (1, 2, 3):
            for subset in combinations(range(3), size):
                tids = np.logical_and.reduce(bases[list(subset)])
                if tids.sum() < min_sup:
                    continue
                members = [b for b in range(3)
                           if not (tids & ~bases[b]).any()]
                items = frozenset(np.flatnonzero(
                    np.isin(copy_of, members)).tolist())
                expected.add((items, int(tids.sum())))
        assert {(p.items, p.support) for p in patterns} == expected
        assert len(patterns) == len(expected)
        for i, p in enumerate(patterns):
            assert p.parent_id < i
            if p.parent_id >= 0:
                parent = patterns[p.parent_id]
                assert p.tidset.is_subset(parent.tidset)
            assert p.tidset.count() == p.support


class TestWalkLog:
    def _mine(self):
        rng = np.random.default_rng(9)
        flags = rng.random((8, 70)) < 0.5
        return mine_closed(arena_rows(pack_bool_matrix(flags), 70), 70, 3)

    def test_native_walk_logged(self, caplog):
        _require_native()
        with caplog.at_level(logging.DEBUG, logger="repro.mining"):
            patterns = self._mine()
        records = [r for r in caplog.records if r.name == "repro.mining"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert records[0].getMessage() == \
            f"closed walk: native, {len(patterns)} patterns"

    def test_python_walk_logs_native_status(self, caplog, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(_native, "_kernel", "unset")
        monkeypatch.setattr(_native, "_status", _native._status)
        with caplog.at_level(logging.DEBUG, logger="repro.mining"):
            patterns = self._mine()
        records = [r for r in caplog.records if r.name == "repro.mining"]
        assert len(records) == 1
        message = records[0].getMessage()
        assert message.startswith("closed walk: python")
        assert "disabled via REPRO_NATIVE=0" in message
        assert message.endswith(f"{len(patterns)} patterns")
