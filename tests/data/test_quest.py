"""Unit tests for the Quest-style transaction generator."""

from __future__ import annotations

import random

import pytest

from repro.data import QuestConfig, QuestData, generate_quest
from repro.data.quest import _draw_patterns, _draw_weights, _poisson_draw
from repro.errors import DataError

from .. import bigint_oracle as bs


class TestQuestConfig:
    def test_defaults_validate(self):
        config = QuestConfig()
        assert config.n_transactions == 1000

    @pytest.mark.parametrize("kwargs", [
        {"n_transactions": 0},
        {"n_items": 1},
        {"n_patterns": 0},
        {"avg_transaction_length": 0.0},
        {"avg_pattern_length": -1.0},
        {"correlation": 1.5},
        {"corruption_mean": 1.0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(DataError):
            QuestConfig(**kwargs)


class TestPoissonDraw:
    def test_mean_is_close(self):
        rng = random.Random(0)
        draws = [_poisson_draw(rng, 5.0) for __ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(5.0, abs=0.2)

    def test_nonnegative(self):
        rng = random.Random(1)
        assert all(_poisson_draw(rng, 0.5) >= 0 for __ in range(200))


class TestDrawPatterns:
    def test_pattern_count_and_universe(self):
        config = QuestConfig(n_items=50, n_patterns=12)
        patterns = _draw_patterns(config, random.Random(2))
        assert len(patterns) == 12
        for pattern in patterns:
            assert pattern
            assert all(0 <= item < 50 for item in pattern)

    def test_consecutive_patterns_overlap_on_average(self):
        config = QuestConfig(n_items=60, n_patterns=40,
                             avg_pattern_length=6.0, correlation=0.9)
        patterns = _draw_patterns(config, random.Random(3))
        overlaps = [len(a & b) for a, b in zip(patterns, patterns[1:])]
        assert sum(overlaps) / len(overlaps) > 1.0


class TestDrawWeights:
    def test_normalized(self):
        weights = _draw_weights(10, random.Random(4))
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)


class TestGenerateQuest:
    def test_shape(self):
        config = QuestConfig(n_transactions=200, n_items=40)
        data = generate_quest(config, seed=5)
        assert data.n_transactions == 200
        assert len(data.patterns) == config.n_patterns

    def test_transactions_sorted_distinct_nonempty(self):
        data = generate_quest(QuestConfig(n_transactions=150), seed=6)
        for transaction in data.transactions:
            assert transaction
            assert transaction == sorted(set(transaction))

    def test_item_ids_in_range(self):
        config = QuestConfig(n_transactions=100, n_items=30)
        data = generate_quest(config, seed=7)
        for transaction in data.transactions:
            assert all(0 <= item < 30 for item in transaction)

    def test_average_length_tracks_t_parameter(self):
        config = QuestConfig(n_transactions=600,
                             avg_transaction_length=8.0, n_items=200)
        data = generate_quest(config, seed=8)
        mean_length = (sum(len(t) for t in data.transactions)
                       / data.n_transactions)
        assert 4.0 < mean_length < 12.0

    def test_deterministic_with_seed(self):
        config = QuestConfig(n_transactions=80)
        first = generate_quest(config, seed=9)
        second = generate_quest(config, seed=9)
        assert first.transactions == second.transactions
        assert first.patterns == second.patterns

    def test_different_seeds_differ(self):
        config = QuestConfig(n_transactions=80)
        first = generate_quest(config, seed=10)
        second = generate_quest(config, seed=11)
        assert first.transactions != second.transactions

    def test_tidsets_match_transactions(self):
        data = generate_quest(QuestConfig(n_transactions=60), seed=12)
        tidsets = data.tidsets()
        assert len(tidsets) == data.config.n_items
        for r, transaction in enumerate(data.transactions):
            for item in range(data.config.n_items):
                contains = bool(tidsets[item].to_bigint() >> r & 1)
                assert contains == (item in transaction)

    def test_tidsets_cached(self):
        data = generate_quest(QuestConfig(n_transactions=40), seed=13)
        assert data.tidsets() is data.tidsets()

    def test_planted_patterns_exceed_null_cooccurrence(self):
        """Pattern items co-occur more than independence predicts."""
        config = QuestConfig(n_transactions=800, n_items=80,
                             n_patterns=8, corruption_mean=0.2,
                             avg_pattern_length=3.0)
        data = generate_quest(config, seed=14)
        tidsets = data.tidsets()
        n = data.n_transactions
        lifted = 0
        tested = 0
        for pattern in data.patterns:
            items = sorted(pattern)[:2]
            if len(items) < 2:
                continue
            a, b = items
            supp_a = bs.popcount(tidsets[a])
            supp_b = bs.popcount(tidsets[b])
            both = bs.popcount(tidsets[a] & tidsets[b])
            if supp_a == 0 or supp_b == 0:
                continue
            tested += 1
            if both * n > supp_a * supp_b:
                lifted += 1
        assert tested > 0
        assert lifted >= tested * 0.7

    def test_default_config_used_when_none(self):
        data = generate_quest(seed=15)
        assert isinstance(data, QuestData)
        assert data.n_transactions == 1000
