"""Unit tests for the classifier plumbing in repro.classify.base."""

from __future__ import annotations

import pytest

from repro.classify.base import (
    Prediction,
    majority_class,
    record_item_sets,
    rule_matches,
)
from repro.mining.rules import ClassRule

from .. import bigint_oracle as bs


def _rule(items, class_index=0):
    return ClassRule(pattern_id=0, items=frozenset(items),
                     class_index=class_index, coverage=10, support=8,
                     confidence=0.8, p_value=0.01)


class TestRecordItemSets:
    def test_round_trips_the_columnar_layout(self, tiny_dataset):
        sets = record_item_sets(tiny_dataset)
        assert len(sets) == tiny_dataset.n_records
        for item_id, tids in enumerate(tiny_dataset.item_tidsets):
            for r in range(tiny_dataset.n_records):
                contains = bool(tids >> r & 1)
                assert (item_id in sets[r]) == contains

    def test_every_record_has_one_item_per_attribute(self, tiny_dataset):
        sets = record_item_sets(tiny_dataset)
        for items in sets:
            assert len(items) == tiny_dataset.n_attributes

    def test_sets_are_frozen(self, tiny_dataset):
        sets = record_item_sets(tiny_dataset)
        assert all(isinstance(s, frozenset) for s in sets)


class TestRuleMatches:
    def test_subset_matches(self):
        assert rule_matches(_rule({1, 2}), frozenset({1, 2, 3}))

    def test_exact_match(self):
        assert rule_matches(_rule({1, 2}), frozenset({1, 2}))

    def test_missing_item_fails(self):
        assert not rule_matches(_rule({1, 4}), frozenset({1, 2, 3}))

    def test_empty_lhs_matches_everything(self):
        assert rule_matches(_rule(set()), frozenset())


class TestMajorityClass:
    def test_whole_dataset_majority(self, tiny_dataset):
        # tiny is 4 pos / 4 neg: tie breaks to the smaller index.
        assert majority_class(tiny_dataset) == 0

    def test_majority_within_tidset(self, tiny_dataset):
        # records 0..2 are all pos
        tidset = bs.bitset_from_indices([0, 1, 2])
        assert majority_class(tiny_dataset, tidset) == 0
        # records 4..6 are all neg
        tidset = bs.bitset_from_indices([4, 5, 6])
        assert majority_class(tiny_dataset, tidset) == 1

    def test_empty_tidset_falls_back_to_tie_break(self, tiny_dataset):
        assert majority_class(tiny_dataset, 0) == 0


class TestPrediction:
    def test_is_frozen(self):
        prediction = Prediction(0, None, 0.5, is_default=True)
        with pytest.raises(AttributeError):
            prediction.class_index = 1

    def test_carries_rule(self):
        rule = _rule({1})
        prediction = Prediction(1, rule, 0.8, is_default=False)
        assert prediction.rule is rule
        assert not prediction.is_default
