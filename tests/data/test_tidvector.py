"""Property suite: TidVector word-wise ops ≡ the bigint bitset oracles.

The packed uint64 :class:`~repro.tidvector.TidVector` is the library's
tidset representation; ``tests/bigint_oracle.py`` is the independent
bigint oracle these tests check the word-wise kernels against.
Universe widths are drawn *ragged* on purpose — empty sets, a universe
of one record, exact multiples of 64 and awkward tails — because every
historical packing bug lives at the last partially-filled word.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tidvector import (
    TidVector,
    as_tidvector,
    pack_id_lists,
    arena_rows,
    stack_tidvectors,
    words_for,
)

from .. import bigint_oracle as bs

# Ragged widths: 1, tails just around word boundaries, exact multiples.
widths = st.sampled_from([1, 2, 5, 63, 64, 65, 127, 128, 129, 200, 320])


@st.composite
def vector_pairs(draw):
    """Two index sets over one shared (ragged) universe."""
    n = draw(widths)
    ids = st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
    return n, draw(ids), draw(ids)


@given(vector_pairs())
def test_roundtrip_bigint(pair):
    n, a, _ = pair
    bits = bs.bitset_from_indices(a, n)
    vector = bs.to_tidvector(bits, n)
    assert vector.to_bigint() == bits
    assert list(vector.indices()) == sorted(a)
    assert vector == TidVector.from_indices(a, n)


@given(vector_pairs())
def test_count_and_bool_match_oracle(pair):
    n, a, _ = pair
    vector = TidVector.from_indices(a, n)
    assert vector.count() == len(a)
    assert bool(vector) == bool(a)
    assert bs.popcount(vector) == len(a)


@given(vector_pairs())
def test_and_or_andnot_match_oracle(pair):
    n, a, b = pair
    va, vb = TidVector.from_indices(a, n), TidVector.from_indices(b, n)
    oracle_a, oracle_b = (bs.bitset_from_indices(a, n),
                          bs.bitset_from_indices(b, n))
    assert (va & vb).to_bigint() == oracle_a & oracle_b
    assert (va | vb).to_bigint() == oracle_a | oracle_b
    assert va.andnot(vb).to_bigint() == oracle_a & ~oracle_b
    assert (va & ~vb).to_bigint() == oracle_a & ~oracle_b


@given(vector_pairs())
def test_counting_shortcuts_match_materialized(pair):
    n, a, b = pair
    va, vb = TidVector.from_indices(a, n), TidVector.from_indices(b, n)
    assert va.intersection_count(vb) == len(a & b)
    assert va.andnot_count(vb) == len(a - b)
    assert va.is_subset(vb) == (a <= b)
    assert va.intersects(vb) == bool(a & b)


@given(vector_pairs())
def test_complement_partitions_universe(pair):
    n, a, _ = pair
    vector = TidVector.from_indices(a, n)
    other = vector.complement()
    assert not (vector & other)
    assert (vector | other) == TidVector.universe(n)
    assert other.to_bigint() == bs.complement(vector.to_bigint(), n)


@given(vector_pairs())
def test_bool_bridge_roundtrip(pair):
    n, a, _ = pair
    vector = TidVector.from_indices(a, n)
    flags = vector.to_bool()
    assert flags.shape == (n,)
    assert TidVector.from_bool(flags) == vector


@given(vector_pairs())
@settings(max_examples=40)
def test_pack_id_lists_matches_per_row_packing(pair):
    n, a, b = pair
    arena = pack_id_lists([sorted(a), sorted(b), []], n)
    assert arena.shape == (3, words_for(n))
    rows = arena_rows(arena, n)
    assert rows[0] == TidVector.from_indices(a, n)
    assert rows[1] == TidVector.from_indices(b, n)
    assert rows[2] == TidVector.empty(n)


@given(vector_pairs())
@settings(max_examples=40)
def test_stack_preserves_rows(pair):
    n, a, b = pair
    va, vb = TidVector.from_indices(a, n), TidVector.from_indices(b, n)
    matrix = stack_tidvectors([va, vb], n)
    assert matrix.shape == (2, words_for(n))
    assert arena_rows(matrix, n)[0] == va
    assert arena_rows(matrix, n)[1] == vb


@given(vector_pairs())
def test_coerce_accepts_tidvectors_only(pair):
    n, a, _ = pair
    bits = bs.bitset_from_indices(a, n)
    vector = TidVector.from_indices(a, n)
    assert as_tidvector(vector, n) is vector
    with pytest.raises(TypeError, match="TidVector"):
        as_tidvector(bits, n)


class TestEdgeCases:
    def test_empty_universe_roundtrip(self):
        vector = TidVector.empty(1)
        assert vector.count() == 0
        assert not vector
        assert list(vector.iter_indices()) == []

    def test_universe_masks_tail(self):
        for n in (1, 63, 64, 65, 130):
            u = TidVector.universe(n)
            assert u.count() == n
            assert u.to_bigint() == bs.universe(n)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            TidVector.from_indices([5], 5)
        with pytest.raises(ValueError):
            TidVector.from_indices([-1], 5)

    def test_int_operands_rejected(self):
        vector = TidVector.from_indices({0, 2}, 130)
        for operation in (lambda: vector & 5, lambda: 5 | vector,
                          lambda: vector.intersection_count(5),
                          lambda: vector.is_subset(5),
                          lambda: int(vector), lambda: vector >> 2):
            with pytest.raises(TypeError):
                operation()
        # Equality with an int is no set comparison: never equal.
        assert vector != 5 and vector != vector.to_bigint()

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TidVector.empty(64) & TidVector.empty(65)
        with pytest.raises(ValueError):
            as_tidvector(TidVector.empty(64), 65)

    def test_hashable_and_usable_as_dict_key(self):
        a = TidVector.from_indices({1, 2}, 70)
        b = TidVector.from_indices({1, 2}, 70)
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    def test_without_indices(self):
        vector = TidVector.from_indices({0, 5, 64, 65}, 66)
        cleared = vector.without_indices([5, 65])
        assert set(cleared.indices()) == {0, 64}
        # The original is untouched (immutability contract).
        assert set(vector.indices()) == {0, 5, 64, 65}

    def test_views_do_not_write_through(self):
        arena = pack_id_lists([[0, 1], [1]], 70)
        before = arena.copy()
        rows = arena_rows(arena, 70)
        _ = rows[0] & rows[1]
        _ = rows[0].andnot(rows[1])
        _ = rows[0].complement()
        _ = rows[0].without_indices([0])
        assert np.array_equal(arena, before)
