"""Unit tests for the Megiddo-Srikant resampling calibration."""

from __future__ import annotations

import random

import pytest

from repro.errors import StatsError
from repro.frequency import (
    CalibrationResult,
    calibrate_cutoff,
    score_patterns,
    significant_frequent_patterns,
)
from repro.tidvector import TidVector

from .. import bigint_oracle as bs


def _random_tidsets(n_records, n_items, frequency, rng):
    tidsets = []
    for __ in range(n_items):
        bits = 0
        for r in range(n_records):
            if rng.random() < frequency:
                bits |= 1 << r
        tidsets.append(bits)
    return bs.to_tidvectors(tidsets, n_records)


def _planted_pair_tidsets(n_records, n_items, rng):
    """Random items plus a pair (0, 1) that co-occurs far above null."""
    tidsets = _random_tidsets(n_records, n_items, 0.4, rng)
    together = TidVector.from_indices(range(0, n_records, 2), n_records)
    tidsets[0] = together
    tidsets[1] = together
    return tidsets


class TestScorePatterns:
    def test_excludes_singletons(self):
        rng = random.Random(0)
        tidsets = _random_tidsets(60, 5, 0.5, rng)
        scored = score_patterns(tidsets, 60, min_sup=5)
        assert all(s.length >= 2 for s in scored)

    def test_planted_pair_scores_extreme(self):
        rng = random.Random(1)
        tidsets = _planted_pair_tidsets(100, 6, rng)
        scored = score_patterns(tidsets, 100, min_sup=10)
        pair = next(s for s in scored if s.items == frozenset({0, 1}))
        # items 0 and 1 each have frequency 0.5, co-occur in all 50.
        assert pair.support == 50
        assert pair.expected_support == pytest.approx(25.0)
        assert pair.p_value < 1e-6
        assert pair.lift == pytest.approx(2.0)

    def test_independent_pairs_score_moderate(self):
        rng = random.Random(2)
        tidsets = _random_tidsets(100, 4, 0.6, rng)
        scored = score_patterns(tidsets, 100, min_sup=5)
        moderate = [s for s in scored if s.p_value > 0.01]
        # With no planted structure most pairs should be unsurprising.
        assert len(moderate) >= len(scored) // 2


class TestCalibrateCutoff:
    def test_threshold_respects_budget(self):
        rng = random.Random(3)
        tidsets = _random_tidsets(80, 6, 0.5, rng)
        calibration = calibrate_cutoff(tidsets, 80, min_sup=8,
                                       n_resamples=5, seed=0)
        assert calibration.expected_false_positives(
            calibration.threshold) <= calibration.false_positive_budget

    def test_threshold_is_maximal(self):
        rng = random.Random(4)
        tidsets = _random_tidsets(80, 6, 0.5, rng)
        calibration = calibrate_cutoff(tidsets, 80, min_sup=8,
                                       n_resamples=5, seed=1)
        if calibration.threshold < 1.0:
            bumped = min(1.0, calibration.threshold * (1.0 + 1e-6))
            pooled = sorted(p for ps in calibration.null_p_values
                            for p in ps)
            next_above = [p for p in pooled if p > calibration.threshold]
            if next_above:
                bumped = next_above[0]
                assert calibration.expected_false_positives(bumped) \
                    > calibration.false_positive_budget

    def test_stricter_budget_lowers_threshold(self):
        rng = random.Random(5)
        tidsets = _random_tidsets(80, 8, 0.5, rng)
        loose = calibrate_cutoff(tidsets, 80, min_sup=8,
                                 n_resamples=5,
                                 false_positive_budget=2.0, seed=2)
        strict = calibrate_cutoff(tidsets, 80, min_sup=8,
                                  n_resamples=5,
                                  false_positive_budget=0.2, seed=2)
        assert strict.threshold <= loose.threshold

    def test_deterministic_with_seed(self):
        rng = random.Random(6)
        tidsets = _random_tidsets(60, 5, 0.5, rng)
        first = calibrate_cutoff(tidsets, 60, min_sup=6,
                                 n_resamples=4, seed=9)
        second = calibrate_cutoff(tidsets, 60, min_sup=6,
                                  n_resamples=4, seed=9)
        assert first.threshold == second.threshold
        assert first.null_p_values == second.null_p_values

    def test_parameter_validation(self):
        with pytest.raises(StatsError):
            calibrate_cutoff([0], 4, min_sup=1, n_resamples=0)
        with pytest.raises(StatsError):
            calibrate_cutoff([0], 4, min_sup=1,
                             false_positive_budget=0.0)

    def test_mean_null_patterns_diagnostic(self):
        result = CalibrationResult(
            threshold=0.5, n_resamples=2, false_positive_budget=1.0,
            null_p_values=[[0.1, 0.2], [0.3, 0.4, 0.5, 0.6]])
        assert result.mean_null_patterns == pytest.approx(3.0)
        assert result.expected_false_positives(0.25) == \
            pytest.approx(1.0)


class TestSignificantFrequentPatterns:
    def test_planted_pair_survives(self):
        rng = random.Random(7)
        tidsets = _planted_pair_tidsets(120, 6, rng)
        significant = significant_frequent_patterns(
            tidsets, 120, min_sup=12, n_resamples=5, seed=3)
        assert frozenset({0, 1}) in {s.items for s in significant}

    def test_random_data_yields_few_survivors(self):
        rng = random.Random(8)
        tidsets = _random_tidsets(100, 8, 0.5, rng)
        significant = significant_frequent_patterns(
            tidsets, 100, min_sup=10, n_resamples=8, seed=4)
        scored = score_patterns(tidsets, 100, min_sup=10)
        # The calibration should remove nearly everything on null data.
        assert len(significant) <= max(2, len(scored) // 10)

    def test_sorted_by_p_value(self):
        rng = random.Random(9)
        tidsets = _planted_pair_tidsets(120, 6, rng)
        significant = significant_frequent_patterns(
            tidsets, 120, min_sup=12, n_resamples=5, seed=5)
        p_values = [s.p_value for s in significant]
        assert p_values == sorted(p_values)
