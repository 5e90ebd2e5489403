"""The packed uint64 bitmap kernel agrees exactly with bigint popcount.

:class:`repro.bitmat.BitMatrix` is the counting engine behind the
permutation engine's pattern-forest storage; these tests pin its
contract — the kernels are *bit-identical* to
``popcount(tidset & class_bits)`` for any forest and any labelling,
including the awkward shapes: record counts not divisible by 64,
empty forests, empty batches, all-one and all-zero indicators, and
arbitrarily small numpy tiles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native, bitmat
from repro.bitmat import (
    BitMatrix,
    pack_indicator,
    pack_indicators,
    words_per_row,
)
from repro.data import GeneratorConfig, generate
from repro.mining import mine_closed
from repro.tidvector import TidVector

from .. import bigint_oracle as bs


def _matrix(bitsets, n_records):
    """A matrix of bigint bitsets, converted through the oracle."""
    return BitMatrix.from_tidsets(bs.to_tidvectors(bitsets, n_records),
                                  n_records)


@st.composite
def matrix_instances(draw):
    # Straddle the word boundary on purpose: 1..130 covers < 1 word,
    # exactly 1 word, exactly 2 words, and ragged tails.
    n_records = draw(st.integers(min_value=1, max_value=130))
    n_rows = draw(st.integers(min_value=0, max_value=8))
    tidsets = [
        draw(st.integers(min_value=0, max_value=(1 << n_records) - 1))
        for _ in range(n_rows)
    ]
    indicator = np.array(
        draw(st.lists(st.booleans(), min_size=n_records,
                      max_size=n_records)), dtype=bool)
    return tidsets, n_records, indicator


class TestAgainstBigints:
    @given(matrix_instances())
    @settings(max_examples=80, deadline=None)
    def test_class_supports_matches_popcount(self, instance):
        tidsets, n_records, indicator = instance
        matrix = _matrix(tidsets, n_records)
        class_bits = bs.from_numpy_bool(indicator)
        expected = [bs.popcount(t & class_bits) for t in tidsets]
        assert matrix.class_supports(indicator).tolist() == expected

    @given(matrix_instances())
    @settings(max_examples=60, deadline=None)
    def test_tidset_round_trip(self, instance):
        tidsets, n_records, _ = instance
        matrix = _matrix(tidsets, n_records)
        assert [matrix.tidvector(row).to_bigint() for row in range(
            matrix.n_rows)] == tidsets
        expected = [bs.popcount(t) for t in tidsets]
        assert matrix.row_popcounts().tolist() == expected

    @given(matrix_instances(),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_single_rows(self, instance, n_batch,
                                       tile_bytes):
        tidsets, n_records, indicator = instance
        matrix = _matrix(tidsets, n_records)
        rng = np.random.default_rng(n_batch * 7 + n_records)
        batch = np.stack(
            [rng.permutation(indicator) for _ in range(n_batch)]
        ) if n_batch else np.zeros((0, n_records), dtype=bool)
        with pytest.MonkeyPatch.context() as patch:
            # The numpy path, cut into tiles of every size.
            patch.setattr(_native, "load_suite", lambda: None)
            patch.setattr(bitmat, "TILE_BYTES", tile_bytes)
            got = matrix.class_supports_batch(batch)
        assert got.shape == (n_batch, len(tidsets))
        for row in range(n_batch):
            assert (got[row] == matrix.class_supports(batch[row])).all()

    @given(st.integers(min_value=1, max_value=130))
    @settings(max_examples=30, deadline=None)
    def test_all_one_and_all_zero_indicators(self, n_records):
        universe = bs.universe(n_records)
        tidsets = [universe, 0, universe >> 1, 1 << (n_records - 1)]
        matrix = _matrix(tidsets, n_records)
        ones = np.ones(n_records, dtype=bool)
        zeros = np.zeros(n_records, dtype=bool)
        assert matrix.class_supports(ones).tolist() == \
            [bs.popcount(t) for t in tidsets]
        assert matrix.class_supports(zeros).tolist() == [0] * 4

    def test_word_round_trip_through_bitset_module(self):
        for n_records in (1, 63, 64, 65, 100, 128, 130):
            bits = (0x9E3779B97F4A7C15 * 0x10001) % (1 << n_records)
            words = bs.to_uint64_words(bits, n_records)
            assert len(words) == words_per_row(n_records)
            assert bs.from_uint64_words(words) == bits


class TestEdgesAndValidation:
    def test_empty_forest(self):
        matrix = BitMatrix.from_tidsets([], 77)
        assert matrix.n_rows == 0
        assert matrix.class_supports(
            np.ones(77, dtype=bool)).shape == (0,)
        batch = np.ones((3, 77), dtype=bool)
        assert matrix.class_supports_batch(batch).shape == (3, 0)

    def test_bigint_and_mismatched_tidsets_rejected(self):
        with pytest.raises(TypeError, match="TidVector"):
            BitMatrix.from_tidsets([0b101], 10)
        with pytest.raises(ValueError):
            BitMatrix.from_tidsets([TidVector.empty(65)], 64)

    def test_indicator_shape_validated(self):
        matrix = _matrix([0b101], 3)
        with pytest.raises(ValueError):
            matrix.class_supports(np.ones(4, dtype=bool))
        with pytest.raises(ValueError):
            matrix.class_supports_batch(np.ones((2, 4), dtype=bool))

    def test_pack_layout_matches_bigint_layout(self):
        indicator = np.zeros(70, dtype=bool)
        indicator[[0, 63, 64, 69]] = True
        packed = pack_indicator(indicator)
        assert bs.from_uint64_words(packed) == \
            bs.from_numpy_bool(indicator)
        stacked = pack_indicators(np.stack([indicator, ~indicator]))
        assert bs.from_uint64_words(stacked[1]) == \
            bs.complement(bs.from_numpy_bool(indicator), 70)

    def test_block_rows_always_positive(self, monkeypatch):
        # A tile smaller than one cell still holds one row of one
        # labelling, so the numpy kernel always makes progress.
        matrix = _matrix([0b1011, 0b0110, 0], 1000)
        monkeypatch.setattr(_native, "load_suite", lambda: None)
        monkeypatch.setattr(bitmat, "TILE_BYTES", 1)
        batch = np.zeros((2, 1000), dtype=bool)
        batch[0, :3] = True
        batch[1, 1:4] = True
        assert matrix.class_supports_batch(batch).tolist() == \
            [[2, 2, 0], [2, 2, 0]]


class TestNativeKernel:
    """The fused C kernel and the numpy path are interchangeable."""

    def test_native_and_numpy_paths_agree(self, monkeypatch):
        from repro import _native

        rng = np.random.default_rng(11)
        n_records = 777
        tidsets = [bs.from_numpy_bool(rng.random(n_records) < 0.3)
                   for _ in range(40)]
        matrix = _matrix(tidsets, n_records)
        batch = rng.random((9, n_records)) < 0.5
        with_native = matrix.class_supports_batch(batch)
        single_native = matrix.class_supports(batch[0])
        # Force the pure-numpy fallback and recompute.
        monkeypatch.setattr(_native, "_kernel", None)
        without = matrix.class_supports_batch(batch)
        single_numpy = matrix.class_supports(batch[0])
        assert (with_native == without).all()
        assert (single_native == single_numpy).all()

    def test_suite_exports(self):
        """One shared object, five entry points; the closure check
        lives inside the closed walk and the permutation statistics
        inside the fused pass, not in kernels of their own."""
        from repro import _native

        assert [symbol for symbol, _restype, _args
                in _native._KERNEL_SIGNATURES] == [
            "repro_class_supports_batch", "repro_lcm_mine",
            "repro_permutation_pass", "repro_pvalue_tables",
            "repro_pvalue_walk"]
        for removed in ("repro_subset_mask", "repro_andnot_counts",
                        "repro_permutation_stats"):
            assert removed not in _native._SOURCE
        suite = _native.load_suite()
        if suite is not None:
            assert not hasattr(suite, "subset_mask")
            assert not hasattr(suite, "andnot_counts")
            assert not hasattr(suite, "permutation_stats")

    def test_kernel_unavailability_is_silent(self, monkeypatch):
        """REPRO_NATIVE=0 must disable compilation, not break."""
        from repro import _native

        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(_native, "_kernel", "unset")
        assert _native.load_suite() is None
        assert "disabled" in _native.native_status()
        matrix = _matrix([0b1011], 4)
        assert matrix.class_supports(
            np.array([1, 0, 1, 1], dtype=bool)).tolist() == [2]


class TestForestPackedPolicy:
    """The packed forest storage the permutation engine builds: one
    :class:`BitMatrix` row per mined pattern."""

    @pytest.fixture(scope="class")
    def forest_inputs(self):
        config = GeneratorConfig(n_records=150, n_attributes=10,
                                 min_values=2, max_values=3, n_rules=0)
        ds = generate(config, seed=17).dataset
        patterns = mine_closed(ds.item_tidsets, ds.n_records,
                               min_sup=10)
        labels = np.array([label == 0 for label in ds.class_labels])
        forest = BitMatrix.from_tidsets([p.tidset for p in patterns],
                                        ds.n_records)
        return ds, patterns, labels, forest

    def test_packed_agrees_with_bigint_oracle(self, forest_inputs):
        _, patterns, labels, forest = forest_inputs
        rng = np.random.default_rng(5)
        for indicator in [labels] + [rng.permutation(labels)
                                     for _ in range(5)]:
            class_bits = bs.from_numpy_bool(indicator)
            assert forest.class_supports(indicator).tolist() == [
                bs.popcount(p.tidset.to_bigint() & class_bits)
                for p in patterns]

    def test_batch_query_agrees_with_single_queries(self,
                                                    forest_inputs):
        _, _, labels, forest = forest_inputs
        rng = np.random.default_rng(4)
        batch = np.stack([rng.permutation(labels) for _ in range(6)])
        got = forest.class_supports_batch(batch)
        for row, indicator in zip(got, batch):
            assert (row == forest.class_supports(indicator)).all()

    def test_shuffled_labels_keep_root_support(self, forest_inputs):
        _, patterns, labels, forest = forest_inputs
        # The root covers every record, so its class support is the
        # class size under any shuffle.
        shuffled = np.random.default_rng(4).permutation(labels)
        root = 0
        assert forest.class_supports(labels)[root] == \
            forest.class_supports(shuffled)[root] == labels.sum()

    def test_packed_tidset_reconstruction(self, forest_inputs):
        _, patterns, _, forest = forest_inputs
        for row, pattern in enumerate(patterns[:20]):
            assert forest.tidvector(row) == pattern.tidset

    def test_batch_shape_validated(self, forest_inputs):
        ds, _, _, forest = forest_inputs
        with pytest.raises(ValueError):
            forest.class_supports(np.ones(3, dtype=bool))
        with pytest.raises(ValueError):
            forest.class_supports_batch(
                np.ones(ds.n_records, dtype=bool))
        with pytest.raises(ValueError):
            forest.class_supports_batch(
                np.ones((2, ds.n_records + 1), dtype=bool))
