"""Unit tests for the item-independence null model."""

from __future__ import annotations

import random

import pytest

from repro.errors import StatsError
from repro.frequency import (
    NullModel,
    item_frequencies,
    pattern_null_probability,
)

from .. import bigint_oracle as bs


@pytest.fixture
def tidsets():
    # 10 records; item 0 in 5, item 1 in 8, item 2 in 2, item 3 empty.
    return bs.to_tidvectors([
        bs.bitset_from_indices([0, 1, 2, 3, 4]),
        bs.bitset_from_indices([0, 1, 2, 3, 4, 5, 6, 7]),
        bs.bitset_from_indices([8, 9]),
        0,
    ], 10)


class TestItemFrequencies:
    def test_observed_marginals(self, tidsets):
        assert item_frequencies(tidsets, 10) == [0.5, 0.8, 0.2, 0.0]

    def test_rejects_empty_dataset(self):
        with pytest.raises(StatsError):
            item_frequencies([], 0)


class TestPatternNullProbability:
    def test_product_of_marginals(self, tidsets):
        frequencies = item_frequencies(tidsets, 10)
        assert pattern_null_probability(frequencies, [0, 1]) == \
            pytest.approx(0.4)

    def test_empty_pattern_is_certain(self):
        assert pattern_null_probability([0.5], []) == 1.0

    def test_zero_frequency_item_kills_the_pattern(self, tidsets):
        frequencies = item_frequencies(tidsets, 10)
        assert pattern_null_probability(frequencies, [0, 3]) == 0.0


class TestNullModel:
    def test_expected_support(self, tidsets):
        model = NullModel(tidsets, 10)
        assert model.expected_support([0, 1]) == pytest.approx(4.0)

    def test_p_value_of_expected_support_is_moderate(self, tidsets):
        model = NullModel(tidsets, 10)
        assert model.p_value(4, [0, 1]) > 0.3

    def test_p_value_of_maximal_support_is_small(self, tidsets):
        model = NullModel(tidsets, 10)
        assert model.p_value(10, [0, 1]) < 1e-3

    def test_p_value_antitone_in_support(self, tidsets):
        model = NullModel(tidsets, 10)
        values = [model.p_value(s, [0, 1]) for s in range(11)]
        for a, b in zip(values, values[1:]):
            assert a >= b

    def test_n_items(self, tidsets):
        assert NullModel(tidsets, 10).n_items == 4


class TestSampling:
    def test_sample_shape(self, tidsets):
        model = NullModel(tidsets, 10)
        sampled = model.sample_tidsets(random.Random(0))
        assert len(sampled) == len(tidsets)
        limit = bs.universe(10)
        for bits in sampled:
            assert bits.to_bigint() & ~limit == 0

    def test_zero_frequency_item_stays_empty(self, tidsets):
        model = NullModel(tidsets, 10)
        sampled = model.sample_tidsets(random.Random(1))
        assert not sampled[3]

    def test_full_frequency_item_stays_full(self):
        model = NullModel(bs.to_tidvectors([bs.universe(6)], 6), 6)
        sampled = model.sample_tidsets(random.Random(2))
        assert sampled[0].to_bigint() == bs.universe(6)

    def test_marginals_preserved_in_expectation(self, tidsets):
        model = NullModel(tidsets, 10)
        rng = random.Random(3)
        totals = [0] * len(tidsets)
        rounds = 400
        for __ in range(rounds):
            for i, bits in enumerate(model.sample_tidsets(rng)):
                totals[i] += bs.popcount(bits)
        for i, frequency in enumerate(model.frequencies):
            observed = totals[i] / (rounds * 10)
            assert observed == pytest.approx(frequency, abs=0.05)

    def test_samples_differ_across_draws(self, tidsets):
        model = NullModel(tidsets, 10)
        rng = random.Random(4)
        first = model.sample_tidsets(rng)
        second = model.sample_tidsets(rng)
        assert first != second
