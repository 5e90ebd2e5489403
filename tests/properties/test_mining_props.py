"""Property-based tests for the mining substrate.

The load-bearing invariant: the closed miner agrees with brute-force
Apriori on arbitrary random inputs — closed patterns are exactly the
support-maximal frequent patterns, one per distinct tidset.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmat import BitMatrix
from repro.mining import mine_apriori, mine_closed

from .. import bigint_oracle as bs


@st.composite
def tidset_instances(draw):
    n_records = draw(st.integers(min_value=4, max_value=25))
    n_items = draw(st.integers(min_value=1, max_value=6))
    tidsets = [
        draw(st.integers(min_value=0, max_value=(1 << n_records) - 1))
        for _ in range(n_items)
    ]
    min_sup = draw(st.integers(min_value=1, max_value=4))
    return tidsets, n_records, min_sup


@given(tidset_instances())
@settings(max_examples=60, deadline=None)
def test_closed_are_support_maximal_frequent(instance):
    tidsets, n_records, min_sup = instance
    closed = mine_closed(tidsets, n_records, min_sup)
    frequent = mine_apriori(tidsets, n_records, min_sup)
    by_tidset = {}
    for fp in frequent:
        best = by_tidset.get(fp.tidset)
        if best is None or len(fp.items) > len(best):
            by_tidset[fp.tidset] = fp.items
    got = {(p.tidset, p.items) for p in closed if p.items}
    got.discard((bs.universe(n_records), frozenset()))
    expected = {(t, items) for t, items in by_tidset.items()}
    assert got == expected


@given(tidset_instances())
@settings(max_examples=60, deadline=None)
def test_closed_supports_and_min_sup(instance):
    tidsets, n_records, min_sup = instance
    for p in mine_closed(tidsets, n_records, min_sup):
        assert p.support >= min_sup
        expected = bs.universe(n_records)
        for item in p.items:
            expected &= tidsets[item]
        assert p.tidset == expected


@given(tidset_instances())
@settings(max_examples=40, deadline=None)
def test_tree_parents_are_supersets(instance):
    tidsets, n_records, min_sup = instance
    patterns = mine_closed(tidsets, n_records, min_sup)
    for position, p in enumerate(patterns):
        if p.parent_id >= 0:
            parent = patterns[p.parent_id]
            assert bs.is_subset(p.tidset, parent.tidset)
            assert p.parent_id < position


@given(tidset_instances(),
       st.lists(st.booleans(), min_size=25, max_size=25))
@settings(max_examples=40, deadline=None)
def test_packed_forest_matches_bigint_popcount(instance, label_flags):
    import numpy as np
    tidsets, n_records, min_sup = instance
    patterns = mine_closed(tidsets, n_records, min_sup)
    if not patterns:
        return
    labels = np.array(label_flags[:n_records], dtype=bool)
    class_bits = bs.from_numpy_bool(labels)
    expected = [bs.popcount(int(p.tidset) & class_bits) for p in patterns]
    forest = BitMatrix.from_tidsets([p.tidset for p in patterns],
                                    n_records)
    assert forest.class_supports(labels).tolist() == expected


@given(tidset_instances())
@settings(max_examples=30, deadline=None)
def test_apriori_antimonotone(instance):
    tidsets, n_records, min_sup = instance
    supports = {fp.items: fp.support
                for fp in mine_apriori(tidsets, n_records, min_sup)}
    for items, support in supports.items():
        for item in items:
            smaller = items - {item}
            if smaller:
                assert supports[smaller] >= support
