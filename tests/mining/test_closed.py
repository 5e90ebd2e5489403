"""Unit tests for the closed frequent pattern miner (Section 3)."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.data import GeneratorConfig, generate
from repro.errors import MiningError
from repro.mining import mine_apriori, mine_closed
from repro.tidvector import TidVector

from .. import bigint_oracle as bs


def _random_tidsets(rng, n_items, n_records, density=0.4):
    out = []
    for _ in range(n_items):
        bits = 0
        for r in range(n_records):
            if rng.random() < density:
                bits |= 1 << r
        out.append(bits)
    return bs.to_tidvectors(out, n_records)


class TestSmallHandChecked:
    def test_two_identical_items_collapse(self):
        # Items 0 and 1 always co-occur: only the pair is closed.
        tidsets = bs.to_tidvectors([0b0111, 0b0111, 0b1100], 4)
        patterns = mine_closed(tidsets, 4, min_sup=1)
        itemsets = {tuple(sorted(p.items)) for p in patterns
                    if p.items}
        assert (0, 1) in itemsets
        assert (0,) not in itemsets
        assert (1,) not in itemsets

    def test_root_is_universe(self):
        patterns = mine_closed(bs.to_tidvectors([0b01, 0b10], 2), 2, min_sup=1)
        root = patterns[0]
        assert root.parent_id == -1
        assert root.support == 2
        assert root.items == frozenset()

    def test_full_support_item_joins_root(self):
        patterns = mine_closed(bs.to_tidvectors([0b11, 0b01], 2), 2, min_sup=1)
        root = patterns[0]
        assert root.items == frozenset({0})

    def test_min_sup_prunes(self):
        tidsets = bs.to_tidvectors([0b0001, 0b1111], 4)
        patterns = mine_closed(tidsets, 4, min_sup=2)
        for p in patterns:
            assert p.support >= 2
        assert all(0 not in p.items for p in patterns)

    def test_max_length_caps(self):
        rng = random.Random(2)
        tidsets = _random_tidsets(rng, 8, 30)
        patterns = mine_closed(tidsets, 30, min_sup=1, max_length=2)
        assert all(p.length <= 2 for p in patterns)

    def test_invalid_max_length(self):
        with pytest.raises(MiningError):
            mine_closed(bs.to_tidvectors([0b1], 1), 1, min_sup=1, max_length=-1)

    def test_min_sup_above_n_returns_empty(self):
        assert len(mine_closed(bs.to_tidvectors([0b11], 2), 2, min_sup=3)) == 0


class TestAgainstApriori:
    """The closed miner must agree with brute-force Apriori."""

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_equals_support_maximal_frequent(self, seed):
        rng = random.Random(seed)
        n_records = rng.randint(10, 40)
        n_items = rng.randint(3, 8)
        tidsets = _random_tidsets(rng, n_items, n_records)
        min_sup = rng.randint(1, 4)
        closed = mine_closed(tidsets, n_records, min_sup)
        frequent = mine_apriori(tidsets, n_records, min_sup)

        # Expected closed sets: group frequent patterns by tidset and
        # keep the largest itemset of each group.
        by_tidset = {}
        for fp in frequent:
            best = by_tidset.get(fp.tidset)
            if best is None or len(fp.items) > len(best.items):
                by_tidset[fp.tidset] = fp
        expected = {(fs.tidset, fs.items) for fs in by_tidset.values()}
        got = {(p.tidset, p.items) for p in closed if p.items}
        # The root may add the full-universe tidset even when no single
        # item reaches full support; frequent patterns never include it.
        got.discard((TidVector.universe(n_records), frozenset()))
        assert got == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_each_closed_pattern_support_correct(self, seed):
        rng = random.Random(100 + seed)
        tidsets = _random_tidsets(rng, 6, 25)
        for p in mine_closed(tidsets, 25, min_sup=2):
            expected = bs.universe(25)
            for item in p.items:
                expected &= tidsets[item].to_bigint()
            assert p.tidset.to_bigint() == expected
            assert p.support == bs.popcount(expected)

    def test_no_duplicate_tidsets(self):
        rng = random.Random(500)
        tidsets = _random_tidsets(rng, 9, 35)
        closed = mine_closed(tidsets, 35, min_sup=2)
        seen = [p.tidset for p in closed]
        assert len(seen) == len(set(seen))


class TestTreeStructure:
    def test_parents_precede_children(self):
        rng = random.Random(9)
        tidsets = _random_tidsets(rng, 8, 30)
        patterns = mine_closed(tidsets, 30, min_sup=2)
        for i, p in enumerate(patterns):
            assert p.parent_id < i

    def test_child_tidset_subset_of_parent(self):
        rng = random.Random(10)
        tidsets = _random_tidsets(rng, 8, 30)
        patterns = mine_closed(tidsets, 30, min_sup=2)
        for p in patterns:
            if p.parent_id >= 0:
                parent = patterns[p.parent_id]
                assert bs.is_subset(p.tidset, parent.tidset)

    def test_parent_column_is_the_views_parent(self):
        rng = random.Random(11)
        tidsets = _random_tidsets(rng, 7, 25)
        patterns = mine_closed(tidsets, 25, min_sup=1)
        assert patterns.parent.tolist() == \
            [p.parent_id for p in patterns]
        assert patterns.parent[0] == -1
        assert (patterns.parent[1:] >= 0).all()


class TestOnSyntheticData:
    def test_embedded_pattern_closure_is_mined(self, embedded_data):
        ds = embedded_data.dataset
        rule = embedded_data.embedded_rules[0]
        patterns = mine_closed(ds.item_tidsets, ds.n_records, min_sup=40)
        tidsets = {p.tidset for p in patterns}
        assert ds.pattern_tidset(rule.item_ids) in tidsets

    def test_deterministic(self, small_random_dataset):
        ds = small_random_dataset
        a = mine_closed(ds.item_tidsets, ds.n_records, min_sup=10)
        b = mine_closed(ds.item_tidsets, ds.n_records, min_sup=10)
        assert [(p.items, p.tidset) for p in a] == \
            [(p.items, p.tidset) for p in b]

    def test_lower_min_sup_is_superset(self, small_random_dataset):
        ds = small_random_dataset
        high = {p.tidset for p in
                mine_closed(ds.item_tidsets, ds.n_records, min_sup=30)}
        low = {p.tidset for p in
               mine_closed(ds.item_tidsets, ds.n_records, min_sup=10)}
        assert high <= low
