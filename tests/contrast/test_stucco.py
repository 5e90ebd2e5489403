"""Unit tests for STUCCO contrast-set mining."""

from __future__ import annotations

import random

import pytest

from repro.contrast import (
    find_contrast_sets,
    group_contingency,
    stucco_alpha_levels,
)
from repro.data import Dataset, GeneratorConfig, generate
from repro.errors import MiningError, StatsError
from repro.tidvector import TidVector


@pytest.fixture
def contrasting_dataset():
    """Attribute A separates the groups hard; B is pure noise."""
    rng = random.Random(0)
    records = []
    labels = []
    for g, label in ((0, "phd"), (1, "hs")):
        for __ in range(60):
            a = "a1" if (rng.random() < (0.8 if g == 0 else 0.2)) \
                else "a0"
            b = f"b{rng.randrange(2)}"
            records.append([a, b])
            labels.append(label)
    return Dataset.from_records(records, labels, ["A", "B"],
                                name="contrasting")


class TestAlphaLevels:
    def test_layered_halving(self):
        levels = stucco_alpha_levels(0.05, {1: 10, 2: 10})
        assert levels[1] == pytest.approx(0.05 / (2 * 10))
        assert levels[2] == pytest.approx(0.05 / (4 * 10))

    def test_never_loosens_with_depth(self):
        levels = stucco_alpha_levels(0.05, {1: 1000, 2: 1, 3: 1})
        assert levels[2] <= levels[1]
        assert levels[3] <= levels[2]

    def test_empty_level_counts_as_one(self):
        levels = stucco_alpha_levels(0.05, {1: 0})
        assert levels[1] == pytest.approx(0.05 / 2)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(StatsError):
            stucco_alpha_levels(0.0, {1: 5})
        with pytest.raises(StatsError):
            stucco_alpha_levels(1.0, {1: 5})


class TestGroupContingency:
    def test_counts_sum_to_group_sizes(self, contrasting_dataset):
        tidset = contrasting_dataset.item_tidsets[0]
        containing, missing = group_contingency(
            tidset, contrasting_dataset)
        for g in range(contrasting_dataset.n_classes):
            assert containing[g] + missing[g] == \
                contrasting_dataset.class_support(g)

    def test_empty_pattern_tidset(self, contrasting_dataset):
        containing, missing = group_contingency(
            TidVector.empty(contrasting_dataset.n_records),
            contrasting_dataset)
        assert containing == [0, 0]
        assert sum(missing) == contrasting_dataset.n_records


class TestFindContrastSets:
    def test_finds_the_separating_attribute(self, contrasting_dataset):
        result = find_contrast_sets(contrasting_dataset,
                                    min_deviation=0.2)
        found_items = set()
        for contrast in result.contrast_sets:
            for item in contrast.items:
                found_items.add(
                    contrasting_dataset.catalog.item(item).attribute)
        assert "A" in found_items

    def test_noise_attribute_alone_never_survives(
            self, contrasting_dataset):
        result = find_contrast_sets(contrasting_dataset,
                                    min_deviation=0.2)
        for contrast in result.contrast_sets:
            attributes = {
                contrasting_dataset.catalog.item(i).attribute
                for i in contrast.items}
            assert attributes != {"B"}

    def test_deviation_matches_proportions(self, contrasting_dataset):
        result = find_contrast_sets(contrasting_dataset,
                                    min_deviation=0.2)
        for contrast in result.contrast_sets:
            expected = (max(contrast.group_proportions)
                        - min(contrast.group_proportions))
            assert contrast.deviation == pytest.approx(expected)

    def test_survivors_meet_both_filters(self, contrasting_dataset):
        result = find_contrast_sets(contrasting_dataset,
                                    min_deviation=0.25)
        for contrast in result.contrast_sets:
            assert contrast.deviation >= 0.25
            assert contrast.p_value <= \
                result.alpha_per_level[contrast.level]

    def test_rejection_bookkeeping_adds_up(self, contrasting_dataset):
        result = find_contrast_sets(contrasting_dataset,
                                    min_deviation=0.2)
        total_candidates = sum(result.candidates_per_level.values())
        assert (result.n_found + result.rejected_large
                + result.rejected_significant) == total_candidates

    def test_higher_deviation_threshold_finds_fewer(
            self, contrasting_dataset):
        loose = find_contrast_sets(contrasting_dataset,
                                   min_deviation=0.1)
        strict = find_contrast_sets(contrasting_dataset,
                                    min_deviation=0.5)
        assert strict.n_found <= loose.n_found

    def test_random_data_yields_nothing(self):
        config = GeneratorConfig(n_records=300, n_attributes=10,
                                 n_rules=0)
        data = generate(config, seed=5)
        result = find_contrast_sets(data.dataset, min_deviation=0.05)
        # The layered Bonferroni keeps false alarms near zero.
        assert result.n_found <= 1

    def test_max_length_caps_levels(self, contrasting_dataset):
        result = find_contrast_sets(contrasting_dataset,
                                    min_deviation=0.1, max_length=1)
        assert max(result.candidates_per_level) == 1
        assert all(c.level == 1 for c in result.contrast_sets)

    def test_min_sup_prunes_candidates(self, contrasting_dataset):
        low = find_contrast_sets(contrasting_dataset, min_sup=1)
        high = find_contrast_sets(contrasting_dataset, min_sup=30)
        assert (sum(high.candidates_per_level.values())
                <= sum(low.candidates_per_level.values()))

    def test_parameter_validation(self, contrasting_dataset):
        with pytest.raises(MiningError):
            find_contrast_sets(contrasting_dataset, min_deviation=1.5)
        with pytest.raises(MiningError):
            find_contrast_sets(contrasting_dataset, min_sup=0)


class TestMultiGroup:
    def test_three_groups(self):
        rng = random.Random(1)
        records = []
        labels = []
        rates = {"g0": 0.9, "g1": 0.5, "g2": 0.1}
        for label, rate in rates.items():
            for __ in range(50):
                a = "yes" if rng.random() < rate else "no"
                records.append([a])
                labels.append(label)
        dataset = Dataset.from_records(records, labels, ["A"],
                                       name="three-groups")
        result = find_contrast_sets(dataset, min_deviation=0.3)
        assert result.n_found >= 1
        top = result.sorted_by_deviation()[0]
        assert top.deviation > 0.5
        assert len(top.group_proportions) == 3


class TestDescribe:
    def test_result_describe(self, contrasting_dataset):
        result = find_contrast_sets(contrasting_dataset,
                                    min_deviation=0.2)
        text = result.describe()
        assert "contrast sets" in text
        assert "failed deviation" in text

    def test_contrast_describe_shows_groups(self, contrasting_dataset):
        result = find_contrast_sets(contrasting_dataset,
                                    min_deviation=0.2)
        if result.contrast_sets:
            text = result.contrast_sets[0].describe(
                contrasting_dataset)
            assert "phd=" in text and "hs=" in text
