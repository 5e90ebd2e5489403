"""Unit tests for the vertical view builder."""

from __future__ import annotations

import pytest

from repro.errors import MiningError
from repro.mining import build_vertical_view

from .. import bigint_oracle as bs


def _tidsets():
    # item 0: support 4, item 1: support 2, item 2: support 1, item 3: 0
    return [0b1111, 0b0011, 0b0100, 0b0000]


class TestFiltering:
    def test_min_sup_filters(self):
        view = build_vertical_view(_tidsets(), 4, min_sup=2)
        assert set(view.item_ids) == {0, 1}

    def test_min_sup_one_keeps_nonempty(self):
        view = build_vertical_view(_tidsets(), 4, min_sup=1)
        assert set(view.item_ids) == {0, 1, 2}

    def test_invalid_min_sup(self):
        with pytest.raises(MiningError):
            build_vertical_view(_tidsets(), 4, min_sup=0)

    def test_invalid_n_records(self):
        with pytest.raises(MiningError):
            build_vertical_view(_tidsets(), 0, min_sup=1)


class TestOrdering:
    def test_support_ascending_default(self):
        view = build_vertical_view(_tidsets(), 4, min_sup=1)
        assert view.supports == sorted(view.supports)

    def test_support_descending(self):
        view = build_vertical_view(_tidsets(), 4, min_sup=1,
                                   order="support-descending")
        assert view.supports == sorted(view.supports, reverse=True)

    def test_original_order(self):
        view = build_vertical_view(_tidsets(), 4, min_sup=1,
                                   order="original")
        assert view.item_ids == sorted(view.item_ids)

    def test_unknown_order(self):
        with pytest.raises(MiningError):
            build_vertical_view(_tidsets(), 4, min_sup=1, order="zigzag")

    def test_order_of_maps_back(self):
        view = build_vertical_view(_tidsets(), 4, min_sup=1)
        for position, item_id in enumerate(view.item_ids):
            assert view.order_of[item_id] == position


class TestPatternTidset:
    def test_intersection(self):
        view = build_vertical_view(_tidsets(), 4, min_sup=1)
        p0 = view.order_of[0]
        p1 = view.order_of[1]
        assert view.pattern_tidset([p0, p1]) == 0b0011

    def test_empty_pattern_is_universe(self):
        view = build_vertical_view(_tidsets(), 4, min_sup=1)
        assert view.pattern_tidset([]) == bs.universe(4)

    def test_n_items(self):
        view = build_vertical_view(_tidsets(), 4, min_sup=2)
        assert view.n_items == 2
