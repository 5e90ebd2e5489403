"""Unit tests for the FP-growth oracle and its FP-tree structure."""

from __future__ import annotations

import pytest

from repro.errors import MiningError
from repro.mining import mine_apriori

from .. import bigint_oracle as bs
from ..fpgrowth_oracle import FPTree, mine_fpgrowth


def tidsets_from_transactions(transactions, n_items):
    """Build per-item tidsets from a list of item-id lists."""
    tidsets = [0] * n_items
    for record, items in enumerate(transactions):
        for item in items:
            tidsets[item] |= 1 << record
    return bs.to_tidvectors(tidsets, len(transactions))


@pytest.fixture
def classic_transactions():
    """The Han/Pei/Yin running example, item-id encoded."""
    # items: 0=f 1=c 2=a 3=b 4=m 5=p 6=i 7=o
    return [
        [0, 2, 1, 3, 6, 4, 5],
        [2, 1, 0, 3, 7, 4],
        [3, 0, 6, 7],
        [3, 1, 5, 6],
        [2, 0, 1, 4, 5],
    ]


class TestFPTree:
    def test_insert_accumulates_counts(self):
        tree = FPTree()
        tree.insert([1, 2, 3])
        tree.insert([1, 2])
        tree.insert([1, 4])
        assert tree.item_counts == {1: 3, 2: 2, 3: 1, 4: 1}
        root_children = tree.root.children
        assert set(root_children) == {1}
        assert root_children[1].count == 3

    def test_prefix_sharing_limits_node_count(self):
        tree = FPTree()
        for _ in range(10):
            tree.insert([5, 6, 7])
        assert tree.n_nodes == 3

    def test_header_chain_collects_all_nodes(self):
        tree = FPTree()
        tree.insert([1, 2])
        tree.insert([3, 2])
        nodes = tree.nodes_of(2)
        assert len(nodes) == 2
        assert all(node.item == 2 for node in nodes)

    def test_prefix_paths(self):
        tree = FPTree()
        tree.insert([1, 2, 4])
        tree.insert([1, 3, 4])
        paths = sorted(tree.prefix_paths(4))
        assert paths == [([1, 2], 1), ([1, 3], 1)]

    def test_single_path_detection(self):
        tree = FPTree()
        tree.insert([1, 2, 3])
        assert tree.is_single_path()
        tree.insert([1, 9])
        assert not tree.is_single_path()

    def test_insert_count_validation(self):
        with pytest.raises(MiningError):
            FPTree().insert([1], count=0)


class TestMineFPGrowth:
    def test_matches_apriori_on_classic_example(self,
                                                classic_transactions):
        tidsets = tidsets_from_transactions(classic_transactions, 8)
        expected = mine_apriori(tidsets, 5, 3)
        got = mine_fpgrowth(tidsets, 5, 3)
        assert len(got) == len(expected)
        for a, b in zip(expected, got):
            assert a.items == b.items
            assert a.support == b.support
            assert a.tidset == b.tidset

    def test_known_frequent_patterns(self, classic_transactions):
        tidsets = tidsets_from_transactions(classic_transactions, 8)
        patterns = {frozenset(p.items): p.support
                    for p in mine_fpgrowth(tidsets, 5, 3)}
        # Hand-checked from the classic example at min_sup=3.
        assert patterns[frozenset({0})] == 4          # f
        assert patterns[frozenset({1})] == 4          # c
        assert patterns[frozenset({0, 1, 2, 4})] == 3  # f,c,a,m

    def test_tidsets_are_exact(self, classic_transactions):
        tidsets = tidsets_from_transactions(classic_transactions, 8)
        for pattern in mine_fpgrowth(tidsets, 5, 2):
            expected = bs.universe(5)
            for item in pattern.items:
                expected &= tidsets[item].to_bigint()
            assert pattern.tidset.to_bigint() == expected
            assert pattern.support == bs.popcount(expected)

    def test_max_length_truncates(self, classic_transactions):
        tidsets = tidsets_from_transactions(classic_transactions, 8)
        capped = mine_fpgrowth(tidsets, 5, 2, max_length=2)
        assert capped
        assert all(p.length <= 2 for p in capped)
        full = mine_fpgrowth(tidsets, 5, 2)
        short = [p for p in full if p.length <= 2]
        assert {p.items for p in capped} == {p.items for p in short}

    def test_max_length_zero_yields_nothing(self, classic_transactions):
        tidsets = tidsets_from_transactions(classic_transactions, 8)
        assert mine_fpgrowth(tidsets, 5, 2, max_length=0) == []

    def test_min_sup_above_everything(self, classic_transactions):
        tidsets = tidsets_from_transactions(classic_transactions, 8)
        assert mine_fpgrowth(tidsets, 5, 6) == []

    def test_empty_database(self):
        assert mine_fpgrowth([], 0, 1) == []

    def test_min_sup_validation(self):
        with pytest.raises(MiningError):
            mine_fpgrowth(bs.to_tidvectors([0b1], 1), 1, 0)

    def test_matches_apriori_on_dataset(self, small_random_dataset):
        ds = small_random_dataset
        expected = mine_apriori(ds.item_tidsets, ds.n_records, 30)
        got = mine_fpgrowth(ds.item_tidsets, ds.n_records, 30)
        assert [(p.items, p.support) for p in expected] \
            == [(p.items, p.support) for p in got]

    def test_dense_dataset(self, tiny_dataset):
        ds = tiny_dataset
        expected = mine_apriori(ds.item_tidsets, ds.n_records, 2)
        got = mine_fpgrowth(ds.item_tidsets, ds.n_records, 2)
        assert [(p.items, p.support) for p in expected] \
            == [(p.items, p.support) for p in got]

    def test_supports_are_antimonotone(self, small_random_dataset):
        ds = small_random_dataset
        by_items = {p.items: p.support
                    for p in mine_fpgrowth(ds.item_tidsets,
                                           ds.n_records, 25)}
        for items, support in by_items.items():
            for item in items:
                parent = items - {item}
                if parent:
                    assert by_items[parent] >= support
