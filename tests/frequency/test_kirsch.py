"""Unit tests for Kirsch et al.'s support-threshold search."""

from __future__ import annotations

import random

import pytest

from repro.errors import StatsError
from repro.frequency import find_support_threshold
from repro.frequency.kirsch import _candidate_grid

from .. import bigint_oracle as bs


def _random_bitsets(n_records, n_items, frequency, rng):
    bitsets = []
    for __ in range(n_items):
        bits = 0
        for r in range(n_records):
            if rng.random() < frequency:
                bits |= 1 << r
        bitsets.append(bits)
    return bitsets


def _random_tidsets(n_records, n_items, frequency, rng):
    return bs.to_tidvectors(
        _random_bitsets(n_records, n_items, frequency, rng), n_records)


def _structured_tidsets(n_records, n_items, rng):
    """Half the items are near-copies of item 0 -> many heavy pairs."""
    bitsets = _random_bitsets(n_records, n_items, 0.4, rng)
    base = bitsets[0]
    for i in range(1, n_items // 2):
        noisy = base
        for r in range(n_records):
            if rng.random() < 0.05:
                noisy ^= 1 << r
        bitsets[i] = noisy
    return bs.to_tidvectors(bitsets, n_records)


class TestCandidateGrid:
    def test_single_candidate_when_range_collapses(self):
        assert _candidate_grid([5, 5], 5, 10) == [5]

    def test_grid_spans_the_range(self):
        grid = _candidate_grid([10, 50], 10, 5)
        assert grid[0] == 10
        assert grid[-1] == 50
        assert grid == sorted(grid)

    def test_grid_handles_empty_supports(self):
        assert _candidate_grid([], 7, 4) == [7]


class TestFindSupportThreshold:
    def test_structured_data_yields_a_threshold(self):
        rng = random.Random(0)
        tidsets = _structured_tidsets(150, 10, rng)
        result = find_support_threshold(
            tidsets, 150, k=2, min_sup=15, n_null_samples=10, seed=1)
        assert result.found
        assert result.observed_count > 0
        assert result.fdr_bound < 0.5

    def test_random_data_usually_yields_none(self):
        rng = random.Random(2)
        found = 0
        for trial in range(5):
            tidsets = _random_tidsets(100, 8, 0.5, rng)
            result = find_support_threshold(
                tidsets, 100, k=2, min_sup=10, n_null_samples=10,
                seed=trial)
            found += 1 if result.found else 0
        # Bonferroni over the grid at 5% keeps false alarms rare.
        assert found <= 1

    def test_threshold_is_within_grid(self):
        rng = random.Random(3)
        tidsets = _structured_tidsets(150, 10, rng)
        result = find_support_threshold(
            tidsets, 150, k=2, min_sup=15, n_null_samples=10, seed=4)
        if result.found:
            assert result.threshold in result.candidates

    def test_describe_renders_decision_table(self):
        rng = random.Random(5)
        tidsets = _structured_tidsets(120, 8, rng)
        result = find_support_threshold(
            tidsets, 120, k=2, min_sup=12, n_null_samples=8, seed=6)
        text = result.describe()
        assert "null mean" in text
        if result.found:
            assert "s*" in text
        else:
            assert "no candidate" in text

    def test_deterministic_with_seed(self):
        rng = random.Random(7)
        tidsets = _structured_tidsets(120, 8, rng)
        first = find_support_threshold(tidsets, 120, k=2, min_sup=12,
                                       n_null_samples=6, seed=8)
        second = find_support_threshold(tidsets, 120, k=2, min_sup=12,
                                        n_null_samples=6, seed=8)
        assert first.threshold == second.threshold
        assert first.candidates == second.candidates

    def test_fdr_bound_is_null_mean_over_observed(self):
        rng = random.Random(9)
        tidsets = _structured_tidsets(150, 10, rng)
        result = find_support_threshold(
            tidsets, 150, k=2, min_sup=15, n_null_samples=10, seed=10)
        if result.found:
            assert result.fdr_bound == pytest.approx(
                min(1.0, result.null_mean / result.observed_count))

    def test_parameter_validation(self):
        with pytest.raises(StatsError):
            find_support_threshold([0], 4, k=0, min_sup=1)
        with pytest.raises(StatsError):
            find_support_threshold([0], 4, k=2, min_sup=1, alpha=1.5)
        with pytest.raises(StatsError):
            find_support_threshold([0], 4, k=2, min_sup=1,
                                   n_null_samples=0)
        with pytest.raises(StatsError):
            find_support_threshold([0], 4, k=2, min_sup=1,
                                   n_candidates=0)
