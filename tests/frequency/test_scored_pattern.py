"""Edge-case tests for ScoredPattern and the scoring path."""

from __future__ import annotations

import pytest

from repro.frequency import ScoredPattern, score_patterns
from repro.frequency.nullmodel import NullModel

from .. import bigint_oracle as bs


class TestScoredPattern:
    def test_lift_normal(self):
        pattern = ScoredPattern(frozenset({1, 2}), support=50,
                                expected_support=25.0, p_value=1e-6)
        assert pattern.lift == pytest.approx(2.0)

    def test_lift_zero_expected_with_support(self):
        pattern = ScoredPattern(frozenset({1, 2}), support=3,
                                expected_support=0.0, p_value=0.0)
        assert pattern.lift == float("inf")

    def test_lift_zero_expected_no_support(self):
        pattern = ScoredPattern(frozenset({1, 2}), support=0,
                                expected_support=0.0, p_value=1.0)
        assert pattern.lift == 1.0

    def test_length(self):
        pattern = ScoredPattern(frozenset({1, 2, 5}), support=1,
                                expected_support=1.0, p_value=0.5)
        assert pattern.length == 3

    def test_frozen(self):
        pattern = ScoredPattern(frozenset({1}), support=1,
                                expected_support=1.0, p_value=0.5)
        with pytest.raises(AttributeError):
            pattern.support = 2


class TestScorePatternsEdges:
    def test_no_frequent_patterns(self):
        # Two items that never co-occur at min_sup 5.
        tidsets = [bs.bitset_from_indices([0]),
                   bs.bitset_from_indices([1])]
        assert score_patterns(tidsets, 4, min_sup=5) == []

    def test_max_length_respected(self):
        full = bs.universe(10)
        tidsets = [full, full, full, full]
        scored = score_patterns(tidsets, 10, min_sup=2, max_length=2)
        assert all(s.length == 2 for s in scored)

    def test_explicit_null_model_reused(self):
        full = bs.universe(8)
        half = bs.bitset_from_indices([0, 1, 2, 3])
        tidsets = [full, half, half]
        null = NullModel(tidsets, 8)
        scored = score_patterns(tidsets, 8, min_sup=2, null=null)
        by_items = {s.items: s for s in scored}
        pair = by_items[frozenset({1, 2})]
        # items 1 and 2 are identical: support 4, null expects 2.
        assert pair.support == 4
        assert pair.expected_support == pytest.approx(2.0)
        assert pair.p_value < 0.2

    def test_full_frequency_items_are_uninformative(self):
        full = bs.universe(8)
        tidsets = [full, full]
        scored = score_patterns(tidsets, 8, min_sup=2)
        pair = scored[0]
        # Everything contains the pair; the null expects exactly that.
        assert pair.p_value == pytest.approx(1.0)
