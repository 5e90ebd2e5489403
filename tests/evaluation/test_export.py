"""Unit tests for CSV export of mined rules."""

from __future__ import annotations

import csv

import pytest

from repro.corrections import bonferroni
from repro.errors import EvaluationError
from repro.evaluation import rule_rows, rules_to_csv
from repro.mining import mine_class_rules


@pytest.fixture(scope="module")
def mined():
    from repro.data import GeneratorConfig, generate
    config = GeneratorConfig(
        n_records=300, n_attributes=8, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=60, max_coverage=60,
        min_confidence=0.9, max_confidence=0.9)
    dataset = generate(config, seed=23).dataset
    return dataset, mine_class_rules(dataset, 25)


class TestRuleRows:
    def test_sorted_by_p_value(self, mined):
        dataset, ruleset = mined
        rows = rule_rows(ruleset.rules, dataset)
        p_values = [row[6] for row in rows]
        assert p_values == sorted(p_values)

    def test_row_contents_match_rule(self, mined):
        dataset, ruleset = mined
        best = ruleset.sorted_by_p()[0]
        row = rule_rows(ruleset.rules, dataset)[0]
        assert row[1] == dataset.class_names[best.class_index]
        assert row[3] == best.coverage
        assert row[4] == best.support
        assert row[6] == best.p_value

    def test_measure_columns_appended(self, mined):
        dataset, ruleset = mined
        rows = rule_rows(ruleset.rules, dataset,
                         measures=("lift", "jaccard"))
        assert all(len(row) == 9 for row in rows)
        assert all(0.0 <= row[8] <= 1.0 for row in rows)  # jaccard

    def test_unknown_measure_rejected(self, mined):
        dataset, ruleset = mined
        with pytest.raises(EvaluationError):
            rule_rows(ruleset.rules, dataset, measures=("bogus",))


class TestRulesToCsv:
    def test_roundtrip(self, mined, tmp_path):
        dataset, ruleset = mined
        path = tmp_path / "rules.csv"
        written = rules_to_csv(ruleset.rules, dataset, path,
                               measures=("lift",))
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["rule", "class", "length", "coverage",
                           "support", "confidence", "p_value", "lift"]
        assert len(rows) - 1 == written == len(ruleset.rules)

    def test_threshold_filter(self, mined, tmp_path):
        dataset, ruleset = mined
        result = bonferroni(ruleset, 0.05)
        path = tmp_path / "significant.csv"
        written = rules_to_csv(ruleset.rules, dataset, path,
                               threshold=result.threshold)
        assert written == result.n_significant
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        for row in rows[1:]:
            assert float(row[6]) <= result.threshold

    def test_empty_rule_list(self, mined, tmp_path):
        dataset, _ruleset = mined
        path = tmp_path / "empty.csv"
        assert rules_to_csv([], dataset, path) == 0
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1  # header only
