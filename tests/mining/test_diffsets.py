"""Unit tests for the Diffsets pattern forest (paper Section 4.2.2)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.data import GeneratorConfig, generate
from repro.errors import MiningError
from repro.mining import PatternForest, mine_closed

from .. import bigint_oracle as bs


@pytest.fixture(scope="module")
def forest_inputs():
    config = GeneratorConfig(n_records=150, n_attributes=10,
                             min_values=2, max_values=3, n_rules=0)
    ds = generate(config, seed=17).dataset
    patterns = mine_closed(ds.item_tidsets, ds.n_records, min_sup=10)
    labels = np.array([label == 0 for label in ds.class_labels])
    return ds, patterns, labels


class TestPolicies:
    def test_all_policies_agree(self, forest_inputs):
        ds, patterns, labels = forest_inputs
        class_bits = bs.from_numpy_bool(labels)
        expected = [bs.popcount(int(p.tidset) & class_bits)
                    for p in patterns]
        for policy in ("packed", "diffsets", "auto"):
            forest = PatternForest(patterns, ds.n_records, policy)
            assert forest.class_supports(labels).tolist() == expected

    def test_matches_direct_counting(self, forest_inputs):
        ds, patterns, labels = forest_inputs
        forest = PatternForest(patterns, ds.n_records, "diffsets")
        supports = forest.class_supports(labels)
        class_bits = bs.from_numpy_bool(labels)
        for p in patterns:
            assert supports[p.node_id] == bs.popcount(p.tidset & class_bits)

    def test_unknown_policy(self, forest_inputs):
        ds, patterns, _ = forest_inputs
        with pytest.raises(MiningError):
            PatternForest(patterns, ds.n_records, "compressed")

    def test_supports_vector(self, forest_inputs):
        ds, patterns, _ = forest_inputs
        forest = PatternForest(patterns, ds.n_records, "diffsets")
        assert forest.supports.tolist() == [p.support for p in patterns]

    def test_wrong_indicator_shape(self, forest_inputs):
        ds, patterns, _ = forest_inputs
        forest = PatternForest(patterns, ds.n_records, "diffsets")
        with pytest.raises(MiningError):
            forest.class_supports(np.ones(3, dtype=bool))

    def test_out_of_order_patterns_rejected(self, forest_inputs):
        ds, patterns, _ = forest_inputs
        if len(patterns) < 2:
            pytest.skip("need at least two patterns")
        reordered = list(reversed(patterns))
        with pytest.raises(MiningError):
            PatternForest(reordered, ds.n_records, "diffsets")


class TestDiffsetRule:
    def test_policy_follows_paper_threshold(self, forest_inputs):
        """Diff storage iff supp(child) > supp(parent) / 2."""
        ds, patterns, _ = forest_inputs
        forest = PatternForest(patterns, ds.n_records, "diffsets")
        for p in patterns:
            if p.parent_id < 0:
                assert not forest._is_diff[p.node_id]
                continue
            parent = patterns[p.parent_id]
            expected = p.support > parent.support / 2
            assert bool(forest._is_diff[p.node_id]) == expected

    def test_compression_never_worse_on_diff_nodes(self, forest_inputs):
        ds, patterns, _ = forest_inputs
        forest = PatternForest(patterns, ds.n_records, "diffsets")
        # Each diff node stores parent_support - support ids, which the
        # paper's rule guarantees is < support (the full-list cost).
        for p in patterns:
            if forest._is_diff[p.node_id]:
                parent = patterns[p.parent_id]
                assert parent.support - p.support < p.support

    def test_stats_accounting(self, forest_inputs):
        ds, patterns, _ = forest_inputs
        full = PatternForest(patterns, ds.n_records, "packed")
        diff = PatternForest(patterns, ds.n_records, "diffsets")
        assert full.stats.stored_ids == full.stats.full_policy_ids
        assert diff.stats.stored_ids <= full.stats.stored_ids
        assert diff.stats.full_nodes + diff.stats.diff_nodes == \
            diff.stats.n_nodes
        assert diff.stats.compression_ratio >= 1.0

    def test_tidset_reconstruction(self, forest_inputs):
        ds, patterns, _ = forest_inputs
        for policy in ("packed", "diffsets"):
            forest = PatternForest(patterns, ds.n_records, policy)
            for p in patterns[:20]:
                assert forest.tidset(p.node_id) == p.tidset


class TestPermutationUsage:
    def test_shuffled_labels_keep_totals(self, forest_inputs):
        ds, patterns, labels = forest_inputs
        forest = PatternForest(patterns, ds.n_records, "diffsets")
        rng = np.random.default_rng(4)
        shuffled = labels.copy()
        rng.shuffle(shuffled)
        original = forest.class_supports(labels)
        permuted = forest.class_supports(shuffled)
        # The root covers everything, so its class support is invariant.
        root = patterns[0].node_id
        assert original[root] == permuted[root]

    def test_many_permutations_agree_across_policies(self, forest_inputs):
        ds, patterns, labels = forest_inputs
        forests = {policy: PatternForest(patterns, ds.n_records, policy)
                   for policy in ("packed", "diffsets", "auto")}
        rng = np.random.default_rng(5)
        for _ in range(5):
            shuffled = labels.copy()
            rng.shuffle(shuffled)
            class_bits = bs.from_numpy_bool(shuffled)
            expected = [bs.popcount(int(p.tidset) & class_bits)
                        for p in patterns]
            for forest in forests.values():
                assert forest.class_supports(shuffled).tolist() == \
                    expected
