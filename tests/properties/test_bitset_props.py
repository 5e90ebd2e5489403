"""Property-based tests for the bitset substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from .. import bigint_oracle as bs


index_sets = st.sets(st.integers(min_value=0, max_value=300), max_size=60)


@given(index_sets)
def test_roundtrip_indices(ids):
    bits = bs.bitset_from_indices(ids)
    assert set(bs.bitset_to_indices(bits)) == ids


@given(index_sets)
def test_popcount_is_cardinality(ids):
    assert bs.popcount(bs.bitset_from_indices(ids)) == len(ids)


@given(index_sets, index_sets)
def test_intersection_is_set_intersection(a, b):
    bits = bs.bitset_from_indices(a) & bs.bitset_from_indices(b)
    assert set(bs.bitset_to_indices(bits)) == a & b


@given(index_sets, index_sets)
def test_union_is_set_union(a, b):
    bits = bs.bitset_from_indices(a) | bs.bitset_from_indices(b)
    assert set(bs.bitset_to_indices(bits)) == a | b


@given(index_sets, index_sets)
def test_difference_is_set_difference(a, b):
    bits = bs.bitset_from_indices(a) & ~bs.bitset_from_indices(b)
    assert set(bs.bitset_to_indices(bits)) == a - b


@given(index_sets, index_sets)
def test_subset_agrees_with_sets(a, b):
    assert bs.is_subset(bs.bitset_from_indices(a),
                        bs.bitset_from_indices(b)) == (a <= b)


@given(index_sets)
def test_complement_partitions_universe(ids):
    n = 301
    bits = bs.bitset_from_indices(ids, n)
    other = bs.complement(bits, n)
    assert bits & other == 0
    assert bits | other == bs.universe(n)


@given(index_sets)
@settings(max_examples=40)
def test_numpy_bridge_agrees(ids):
    n = 301
    bits = bs.bitset_from_indices(ids, n)
    assert bs.to_numpy_indices(bits, n).tolist() == sorted(ids)


@given(st.lists(st.booleans(), max_size=200))
def test_bool_sequence_roundtrip(flags):
    bits = bs.bitset_from_bool_sequence(flags)
    expected = {i for i, f in enumerate(flags) if f}
    assert set(bs.bitset_to_indices(bits)) == expected
