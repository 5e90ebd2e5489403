"""Property-based cross-checks at the registry/PatternSet level.

The registry's contract is that miners are interchangeable behind one
result model, so the invariants are stated *on the model*: the two
all-frequent miners produce the identical PatternSet (not just the
same pattern list — the same prefix-tree), expanding the closed set
recovers exactly the support-maximal frequent patterns, and every
miner's forest satisfies the structural contract the permutation
engine relies on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining import mine_patterns, miner_names

from repro.tidvector import TidVector

from .. import bigint_oracle as bs


class _View:
    """Minimal dataset view: the two attributes miners read."""

    def __init__(self, item_tidsets, n_records):
        self.item_tidsets = item_tidsets
        self.n_records = n_records


@st.composite
def views(draw):
    n_records = draw(st.integers(min_value=2, max_value=24))
    n_items = draw(st.integers(min_value=1, max_value=7))
    tidsets = [
        draw(st.integers(min_value=0, max_value=(1 << n_records) - 1))
        for _ in range(n_items)
    ]
    return _View(bs.to_tidvectors(tidsets, n_records), n_records)


min_sups = st.integers(min_value=1, max_value=6)


def _forest_key(pattern_set):
    return (list(pattern_set), pattern_set.item_ids.tolist(),
            pattern_set.item_offsets.tolist(),
            pattern_set.matrix.words.tobytes())


@given(views(), min_sups)
@settings(max_examples=60, deadline=None)
def test_apriori_and_fpgrowth_patternsets_identical(view, min_sup):
    apriori = mine_patterns(view, min_sup, algorithm="apriori")
    fpgrowth = mine_patterns(view, min_sup, algorithm="fpgrowth")
    assert _forest_key(apriori) == _forest_key(fpgrowth)
    assert apriori.n_hypotheses == fpgrowth.n_hypotheses


@given(views(), min_sups)
@settings(max_examples=60, deadline=None)
def test_closed_expansion_covers_support_maximal_frequent(view,
                                                          min_sup):
    """Every frequent pattern's tidset appears in the closed set, its
    closed cover is a superset with identical support, and the closed
    patterns are exactly the support-maximal ones (longest per
    tidset)."""
    closed = mine_patterns(view, min_sup, algorithm="closed")
    frequent = mine_patterns(view, min_sup, algorithm="apriori")
    closed_by_tidset = {p.tidset: p for p in closed if p.items}
    longest_by_tidset = {}
    for pattern in frequent:
        if not pattern.items:
            continue
        best = longest_by_tidset.get(pattern.tidset)
        if best is None or len(pattern.items) > len(best):
            longest_by_tidset[pattern.tidset] = pattern.items
    empty_closure = TidVector.universe(view.n_records)
    for tidset, items in longest_by_tidset.items():
        # The closure of the empty pattern lives on the closed root.
        cover = (closed[0] if tidset == empty_closure
                 and tidset not in closed_by_tidset
                 else closed_by_tidset[tidset])
        assert items <= cover.items
        assert cover.support == bs.popcount(tidset)
    for tidset, pattern in closed_by_tidset.items():
        assert longest_by_tidset.get(tidset) == pattern.items


@given(views(), min_sups,
       st.sampled_from(sorted(set(miner_names()))))
@settings(max_examples=60, deadline=None)
def test_every_miner_emits_exact_tidsets(view, min_sup, algorithm):
    pattern_set = mine_patterns(view, min_sup, algorithm=algorithm)
    for position, pattern in enumerate(pattern_set):
        assert -1 <= pattern.parent_id < position
        if pattern.parent_id >= 0:
            parent = pattern_set[pattern.parent_id]
            assert pattern.tidset.is_subset(parent.tidset)
        expected = bs.universe(view.n_records)
        for item in pattern.items:
            expected &= view.item_tidsets[item].to_bigint()
        assert pattern.tidset.to_bigint() == expected
        assert pattern.support == bs.popcount(pattern.tidset)
        if pattern.items:
            assert pattern.support >= min_sup


@given(views(), min_sups,
       st.lists(st.booleans(), min_size=24, max_size=24))
@settings(max_examples=40, deadline=None)
def test_frequent_sets_drive_the_packed_forest(view, min_sup,
                                              label_flags):
    """The pattern set's matrix counts exact class supports on
    all-frequent sets, exactly as it does on closed ones."""
    pattern_set = mine_patterns(view, min_sup, algorithm="fpgrowth")
    if not len(pattern_set):
        return
    indicator = np.array(label_flags[:view.n_records], dtype=bool)
    class_bits = bs.from_numpy_bool(indicator)
    expected = [bs.popcount(p.tidset.to_bigint() & class_bits)
                for p in pattern_set]
    assert pattern_set.matrix.class_supports(indicator).tolist() == \
        expected


@given(views(), min_sups, st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_max_length_filters_uniformly_across_all_frequent(view, min_sup,
                                                          max_length):
    capped = mine_patterns(view, min_sup, algorithm="apriori",
                           max_length=max_length)
    full = mine_patterns(view, min_sup, algorithm="apriori")
    expected = sorted((p.items, p.support) for p in full
                      if len(p.items) <= max_length)
    assert sorted((p.items, p.support) for p in capped) == expected
