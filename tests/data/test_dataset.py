"""Unit tests for the Dataset model (paper Section 2.1)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.data import Dataset, Item
from repro.errors import DataError
from repro.tidvector import TidVector

from .. import bigint_oracle as bs


class TestConstruction:
    def test_from_records_basic(self, tiny_dataset):
        assert tiny_dataset.n_records == 8
        assert tiny_dataset.n_attributes == 3
        assert tiny_dataset.n_items == 6  # a,b,x,y,m,n
        assert tiny_dataset.n_classes == 2

    def test_item_tidsets(self, tiny_dataset):
        item_a = tiny_dataset.catalog.id_of(Item("A", "a"))
        assert bs.bitset_to_indices(
            tiny_dataset.item_tidsets[item_a]) == [0, 1, 2, 3]

    def test_class_encoding_first_seen_order(self, tiny_dataset):
        assert tiny_dataset.class_names == ["pos", "neg"]
        assert tiny_dataset.class_labels[:4] == [0, 0, 0, 0]

    def test_missing_values_produce_no_item(self):
        ds = Dataset.from_records(
            [["a", None], ["a", "x"]], ["c0", "c1"], ["A", "B"])
        assert ds.n_items == 2  # A=a, B=x

    def test_explicit_class_names(self):
        ds = Dataset.from_records([["a"], ["b"]], ["no", "yes"],
                                  class_names=["yes", "no"])
        assert ds.class_names == ["yes", "no"]
        assert ds.class_labels == [1, 0]

    def test_unknown_explicit_label_rejected(self):
        with pytest.raises(DataError):
            Dataset.from_records([["a"], ["b"]], ["no", "maybe"],
                                 class_names=["yes", "no"])

    def test_ragged_records_rejected(self):
        with pytest.raises(DataError):
            Dataset.from_records([["a", "b"], ["a"]], ["c0", "c1"])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset.from_records([["a"], ["b"]], ["c0"])

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            Dataset.from_records([["a"], ["b"]], ["c0", "c0"])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Dataset.from_records([], [])

    def test_from_transactions(self):
        ds = Dataset.from_transactions(
            [["1", "2"], ["2", "3"], ["1"]], ["a", "b", "a"])
        assert ds.n_records == 3
        assert ds.n_items == 3
        assert ds.class_names == ["a", "b"]


class TestCounting:
    def test_class_supports(self, tiny_dataset):
        assert tiny_dataset.class_support(0) == 4
        assert tiny_dataset.class_support(1) == 4

    def test_pattern_tidset_and_support(self, tiny_dataset):
        catalog = tiny_dataset.catalog
        a = catalog.id_of(Item("A", "a"))
        x = catalog.id_of(Item("B", "x"))
        assert tiny_dataset.pattern_support([a, x]) == 2
        assert bs.bitset_to_indices(
            tiny_dataset.pattern_tidset([a, x])) == [0, 1]

    def test_empty_pattern_covers_everything(self, tiny_dataset):
        assert tiny_dataset.pattern_support([]) == 8

    def test_rule_support(self, tiny_dataset):
        catalog = tiny_dataset.catalog
        a = catalog.id_of(Item("A", "a"))
        assert tiny_dataset.rule_support([a], 0) == 4
        assert tiny_dataset.rule_support([a], 1) == 0

    def test_class_summaries(self, tiny_dataset):
        summaries = tiny_dataset.class_summaries()
        assert [s.name for s in summaries] == ["pos", "neg"]
        assert all(s.support == 4 for s in summaries)

    def test_item_support(self, tiny_dataset):
        item_m = tiny_dataset.catalog.id_of(Item("C", "m"))
        assert tiny_dataset.item_support(item_m) == 4


class TestPatternArena:
    """``pattern_arena`` against ``pattern_tidset``, row by row."""

    @staticmethod
    def _csr(patterns):
        offsets = np.cumsum([0] + [len(p) for p in patterns])
        item_ids = [i for p in patterns for i in p]
        return item_ids, offsets

    @pytest.mark.parametrize("gather_bytes", (1, 8 * 5, 1 << 18))
    @pytest.mark.parametrize("n_records", (2, 63, 64, 65, 300))
    def test_rows_equal_pattern_tidset(self, n_records, gather_bytes,
                                       monkeypatch):
        """Whether a gather holds one item row, a few or every one."""
        from repro.data import dataset

        monkeypatch.setattr(dataset, "GATHER_BYTES", gather_bytes)
        rng = np.random.default_rng(n_records)
        records = [[f"v{v}" for v in row]
                   for row in rng.integers(0, 3, (n_records, 4))]
        labels = rng.integers(0, 2, n_records)
        labels[:2] = (0, 1)
        ds = Dataset.from_records(records, [f"c{c}" for c in labels])
        patterns = [[i % ds.n_items for i in p] for p in (
            [], [0], [1, 4], [4, 1], [0, 1], [0, 0], [2, 5, 8, 11], [],
            [3, 7], [])]
        patterns += [rng.choice(ds.n_items, size=k, replace=False)
                     .tolist() for k in (1, 2, 3, 4) for _ in range(5)]
        words = ds.pattern_arena(*self._csr(patterns))
        assert words.shape == (len(patterns), (n_records + 63) // 64)
        for row, pattern in zip(words, patterns):
            assert np.array_equal(row, ds.pattern_tidset(pattern).words)

    def test_empty_and_edge_inputs(self, tiny_dataset):
        words = tiny_dataset.pattern_arena([], [0])
        assert words.shape == (0, 1)
        words = tiny_dataset.pattern_arena([], [0, 0])
        assert TidVector(words[0], 8) == TidVector.universe(8)
        for item_ids, offsets in (([1], [0]), ([1], [1, 1]),
                                  ([1, 2], [0, 2, 1]), ([], [])):
            with pytest.raises(DataError):
                tiny_dataset.pattern_arena(item_ids, offsets)


class TestTransformations:
    def test_with_class_labels_shares_tidsets(self, tiny_dataset):
        flipped = tiny_dataset.with_class_labels(
            [1 - c for c in tiny_dataset.class_labels])
        assert flipped.item_tidsets is not None
        assert flipped.item_tidsets[0] == tiny_dataset.item_tidsets[0]
        assert flipped.class_support(0) == 4

    def test_permuted_preserves_class_counts(self, tiny_dataset):
        import numpy as np

        permuted = tiny_dataset.permuted(np.random.default_rng(0xC0FFEE))
        assert sorted(permuted.class_labels) == sorted(
            tiny_dataset.class_labels)
        assert permuted.item_tidsets == tiny_dataset.item_tidsets

    def test_permuted_generator_is_deterministic(self, tiny_dataset):
        import numpy as np

        first = tiny_dataset.permuted(np.random.default_rng(7))
        second = tiny_dataset.permuted(np.random.default_rng(7))
        assert first.class_labels == second.class_labels

    def test_permuted_class_tidsets_counts(self, tiny_dataset):
        import numpy as np

        tidsets = tiny_dataset.permuted_class_tidsets(
            np.random.default_rng(0xC0FFEE))
        assert [bs.popcount(t) for t in tidsets] == [4, 4]
        assert not tidsets[0] & tidsets[1]
        assert (tidsets[0] | tidsets[1]).to_bigint() == bs.universe(8)

    def test_subset_reindexes(self, tiny_dataset):
        sub = tiny_dataset.subset([4, 5, 6, 7])
        assert sub.n_records == 4
        assert sub.class_support(1) == 4
        item_b = sub.catalog.id_of(Item("A", "b"))
        assert bs.bitset_to_indices(sub.item_tidsets[item_b]) == [0, 1, 2, 3]

    def test_subset_shares_catalog(self, tiny_dataset):
        sub = tiny_dataset.subset([0, 1])
        assert sub.catalog is tiny_dataset.catalog

    def test_subset_rejects_duplicates(self, tiny_dataset):
        with pytest.raises(DataError):
            tiny_dataset.subset([0, 0])

    def test_subset_rejects_out_of_range(self, tiny_dataset):
        with pytest.raises(DataError):
            tiny_dataset.subset([99])

    def test_split_half_structured(self, tiny_dataset):
        first, second = tiny_dataset.split_half()
        assert first.n_records == 4
        assert second.n_records == 4
        assert first.class_support(0) == 4  # records 0-3 are all "pos"

    def test_split_half_random_partitions(self, tiny_dataset, rng):
        first, second = tiny_dataset.split_half(rng=rng)
        assert first.n_records + second.n_records == 8
        total_pos = first.class_support(0) + second.class_support(0)
        assert total_pos == 4

    def test_split_half_custom_boundary(self, tiny_dataset):
        first, second = tiny_dataset.split_half(boundary=2)
        assert first.n_records == 2
        assert second.n_records == 6

    def test_split_empty_half_rejected(self, tiny_dataset):
        with pytest.raises(DataError):
            tiny_dataset.split_half(boundary=0)


class TestRoundTrip:
    def test_to_records_roundtrip(self, tiny_dataset):
        rows = tiny_dataset.to_records()
        rebuilt = Dataset.from_records(
            rows, [tiny_dataset.class_names[c]
                   for c in tiny_dataset.class_labels],
            tiny_dataset.catalog.attributes)
        assert rebuilt.n_items == tiny_dataset.n_items
        for item in tiny_dataset.catalog:
            original = tiny_dataset.item_tidsets[
                tiny_dataset.catalog.id_of(item)]
            restored = rebuilt.item_tidsets[rebuilt.catalog.id_of(item)]
            assert original == restored

    def test_repr_mentions_shape(self, tiny_dataset):
        text = repr(tiny_dataset)
        assert "n_records=8" in text
        assert "tiny" in text


class TestValidation:
    def test_tidset_out_of_range_rejected(self):
        from repro.data import ItemCatalog
        catalog = ItemCatalog()
        catalog.add_pair("A", "x")
        arena = np.array([[0b100]], dtype=np.uint64)  # record 2 of 2
        with pytest.raises(DataError, match="records >= n"):
            Dataset(2, catalog, arena, [0, 1], ["a", "b"])
        with pytest.raises(DataError, match="covers 3 records"):
            Dataset(2, catalog, [TidVector.empty(3)], [0, 1], ["a", "b"])

    def test_bigint_tidset_rejected(self):
        from repro.data import ItemCatalog
        catalog = ItemCatalog()
        catalog.add_pair("A", "x")
        with pytest.raises(DataError, match="not a TidVector"):
            Dataset(2, catalog, [0b01], [0, 1], ["a", "b"])

    def test_label_out_of_range_rejected(self):
        from repro.data import ItemCatalog
        catalog = ItemCatalog()
        catalog.add_pair("A", "x")
        with pytest.raises(DataError):
            Dataset(2, catalog, bs.to_tidvectors([0b11], 2), [0, 2],
                    ["a", "b"])

    def test_tidset_count_mismatch_rejected(self):
        from repro.data import ItemCatalog
        catalog = ItemCatalog()
        catalog.add_pair("A", "x")
        with pytest.raises(DataError):
            Dataset(2, catalog, [], [0, 1], ["a", "b"])
