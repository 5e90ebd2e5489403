"""Unit tests for the bigint oracle (tests/bigint_oracle.py)."""

from __future__ import annotations

import numpy as np
import pytest

from . import bigint_oracle as bs



class TestPopcount:
    def test_zero(self):
        assert bs.popcount(0) == 0

    def test_single_bits(self):
        for i in (0, 1, 7, 63, 64, 1000):
            assert bs.popcount(1 << i) == 1

    def test_all_ones(self):
        assert bs.popcount((1 << 257) - 1) == 257


class TestConstruction:
    def test_from_indices_roundtrip(self):
        ids = [0, 3, 17, 100]
        bits = bs.bitset_from_indices(ids)
        assert bs.bitset_to_indices(bits) == ids

    def test_from_indices_duplicates_collapse(self):
        assert bs.bitset_from_indices([2, 2, 2]) == 4

    def test_from_indices_range_check(self):
        with pytest.raises(ValueError):
            bs.bitset_from_indices([5], n=5)
        with pytest.raises(ValueError):
            bs.bitset_from_indices([-1], n=5)

    def test_from_indices_in_range_ok(self):
        assert bs.bitset_from_indices([0, 4], n=5) == 0b10001

    def test_from_bool_sequence(self):
        assert bs.bitset_from_bool_sequence(
            [True, False, True, True]) == 0b1101

    def test_empty_iterable(self):
        assert bs.bitset_from_indices([]) == 0


class TestIteration:
    def test_iter_indices_ascending(self):
        bits = bs.bitset_from_indices([9, 2, 40])
        assert list(bs.iter_indices(bits)) == [2, 9, 40]

    def test_iter_empty(self):
        assert list(bs.iter_indices(0)) == []


class TestUniverseAndComplement:
    def test_universe(self):
        assert bs.universe(0) == 0
        assert bs.universe(3) == 0b111

    def test_universe_negative(self):
        with pytest.raises(ValueError):
            bs.universe(-1)

    def test_complement(self):
        assert bs.complement(0b101, 3) == 0b010

    def test_complement_twice_is_identity(self):
        original = 0b1011001
        assert bs.complement(bs.complement(original, 7), 7) == original


class TestSubset:
    def test_subset_true(self):
        assert bs.is_subset(0b0101, 0b1101)

    def test_subset_false(self):
        assert not bs.is_subset(0b0111, 0b1101)

    def test_empty_is_subset_of_everything(self):
        assert bs.is_subset(0, 0)
        assert bs.is_subset(0, 0b111)


class TestNumpyBridge:
    def test_to_numpy_indices_matches_python(self):
        bits = bs.bitset_from_indices([0, 5, 63, 64, 200])
        np_ids = bs.to_numpy_indices(bits, 201)
        assert np_ids.tolist() == [0, 5, 63, 64, 200]

    def test_to_numpy_empty(self):
        assert bs.to_numpy_indices(0, 100).size == 0

    def test_from_numpy_bool_roundtrip(self):
        flags = np.zeros(130, dtype=bool)
        flags[[1, 64, 129]] = True
        bits = bs.from_numpy_bool(flags)
        assert bs.bitset_to_indices(bits) == [1, 64, 129]

    def test_roundtrip_both_ways(self):
        flags = np.random.default_rng(3).random(500) < 0.3
        bits = bs.from_numpy_bool(flags)
        back = bs.to_numpy_indices(bits, 500)
        assert (back == np.nonzero(flags)[0]).all()
