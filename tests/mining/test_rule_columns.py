"""The columnar :class:`~repro.mining.rules.RuleSet`.

Rules are stored as one array per field; ``RuleSet.rules`` builds a
frozen :class:`~repro.mining.rules.ClassRule` view on access, with
plain ``int``/``float`` fields. Score builds no view at all, and a
pipeline run builds views only of the rules a correction decides on.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import Pipeline
from repro.data import make_german
from repro.errors import MiningError
from repro.mining import mine_class_rules
from repro.mining.rules import ClassRule, Rules, RuleSet

from .score_oracle import reference_rules


@pytest.fixture
def ruleset(small_random_dataset):
    return mine_class_rules(small_random_dataset, min_sup=10)


def _fields(rule):
    return (rule.pattern_id, rule.class_index, rule.coverage, rule.support,
            rule.confidence, rule.p_value)


class TestColumns:
    def test_dtypes_and_lengths(self, ruleset):
        assert ruleset.pattern_ids.dtype == np.int64
        assert ruleset.classes.dtype == np.int64
        assert ruleset.supports.dtype == np.int64
        assert ruleset.confidences.dtype == np.float64
        assert ruleset.p_values().dtype == np.float64
        n = ruleset.n_tests
        assert n > 0
        for column in (ruleset.pattern_ids, ruleset.classes,
                       ruleset.supports, ruleset.confidences,
                       ruleset.p_values()):
            assert column.shape == (n,)

    def test_views_match_the_scalar_oracle(self, small_random_dataset,
                                           ruleset):
        expected = reference_rules(small_random_dataset, ruleset.patterns)
        assert [_fields(rule) for rule in ruleset.rules] == expected

    def test_view_fields_are_plain_python(self, ruleset):
        rule = ruleset.rules[0]
        for value in (rule.pattern_id, rule.class_index, rule.coverage,
                      rule.support):
            assert type(value) is int
        assert type(rule.confidence) is float
        assert type(rule.p_value) is float
        assert all(type(i) is int for i in rule.items)
        assert json.dumps(rule.to_json())

    def test_items_are_the_pattern_items(self, ruleset):
        for rule in ruleset.rules:
            assert rule.items == ruleset.patterns[rule.pattern_id].items


class TestRulesSequence:
    def test_int_slice_and_array_indexing(self, ruleset):
        rules = list(ruleset.rules)
        n = len(rules)
        assert len(ruleset.rules) == n
        assert ruleset.rules[0] == rules[0]
        assert ruleset.rules[-1] == rules[-1]
        assert ruleset.rules[2:9:3] == rules[2:9:3]
        rows = np.array([n - 1, 0, 3])
        assert ruleset.rules[rows] == [rules[i] for i in rows]
        assert ruleset.rules[np.zeros(0, dtype=np.int64)] == []
        mask = ruleset.p_values() <= 0.5
        assert ruleset.rules[mask] == [r for r in rules if r.p_value <= 0.5]
        with pytest.raises(IndexError):
            ruleset.rules[n]
        assert list(ruleset.rules) == rules

    def test_views_are_frozen_and_hashable(self, ruleset):
        rule = ruleset.rules[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.p_value = 0.0
        again = ruleset.rules[0]
        assert again is not rule
        assert again == rule and hash(again) == hash(rule)

    def test_sorted_by_p(self, ruleset):
        ordered = ruleset.sorted_by_p()
        assert [r.p_value for r in ordered] == \
            sorted(ruleset.p_values().tolist())


class TestConstruction:
    def test_take_cuts_every_column(self, ruleset):
        rows = np.flatnonzero(ruleset.p_values() <= 0.5)
        cut = ruleset.take(rows)
        assert cut.n_tests == len(rows)
        assert cut.patterns is ruleset.patterns
        assert cut.tables is ruleset.tables
        assert list(cut.rules) == ruleset.rules[rows]

    def test_round_trip_through_the_constructor(self, ruleset):
        again = RuleSet(ruleset.dataset, ruleset.patterns,
                        ruleset.pattern_ids, ruleset.classes,
                        ruleset.supports, ruleset.confidences,
                        ruleset.p_values(), ruleset.min_sup)
        assert list(again.rules) == list(ruleset.rules)

    @pytest.mark.parametrize("change, message", [
        (dict(classes=[0, 0]), "differ in length"),
        (dict(pattern_ids=[[1]]), "differ in length"),
        (dict(pattern_ids=[-1]), "pattern id -1"),
        (dict(pattern_ids=[10 ** 6]), "pattern id 1000000"),
        (dict(classes=[2]), "class 2"),
    ])
    def test_rejects_bad_columns(self, ruleset, change, message):
        columns = dict(pattern_ids=[1], classes=[0], supports=[1],
                       confidences=[1.0], p_values=[0.5])
        columns.update(change)
        with pytest.raises(MiningError, match=message):
            RuleSet(ruleset.dataset, ruleset.patterns,
                    min_sup=ruleset.min_sup, **columns)


@pytest.fixture
def construction_count(monkeypatch):
    """Counts every :class:`ClassRule` built: the views of
    ``RuleSet.rules`` and every ``__init__`` (``replace`` too)."""
    built = []
    views = Rules._views
    init = ClassRule.__init__

    def counting_views(self, rows):
        out = views(self, rows)
        built.extend(out)
        return out

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Rules, "_views", counting_views)
    monkeypatch.setattr(ClassRule, "__init__", counting_init)
    return built


@pytest.mark.parametrize("method", ["BH", "HD_BH"])
def test_a_run_builds_views_of_decided_rules_only(construction_count,
                                                  method):
    dataset = make_german(seed=0)
    result = Pipeline(min_sup=40, corrections=(method,), seed=0).run(
        dataset)
    decided = result[method]
    bound = decided.n_significant
    if method == "HD_BH":
        run = result.context.shared["holdout:structured:0.05"]
        bound += len(run.candidates)
    assert 0 < decided.n_significant
    assert len(construction_count) <= bound
