"""Property-based cross-checks: FP-growth vs Apriori vs the closed
miner on random transaction databases.

Three independently written miners over the same database must agree:
FP-growth and Apriori on the full frequent-pattern set, and every
frequent pattern must have a closed superset with identical support.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining import mine_apriori, mine_closed, mine_fpgrowth

from .. import bigint_oracle as bs


@st.composite
def transaction_databases(draw):
    """A small random vertical database: (item_tidsets, n_records)."""
    n_records = draw(st.integers(min_value=1, max_value=24))
    n_items = draw(st.integers(min_value=1, max_value=8))
    tidsets = [
        draw(st.integers(min_value=0, max_value=(1 << n_records) - 1))
        for _ in range(n_items)
    ]
    return bs.to_tidvectors(tidsets, n_records), n_records


@given(transaction_databases(), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_fpgrowth_equals_apriori(database, min_sup):
    tidsets, n_records = database
    apriori = mine_apriori(tidsets, n_records, min_sup)
    fpgrowth = mine_fpgrowth(tidsets, n_records, min_sup)
    assert [(p.items, p.support, p.tidset) for p in apriori] \
        == [(p.items, p.support, p.tidset) for p in fpgrowth]


@given(transaction_databases(), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_fpgrowth_max_length_is_a_filter(database, min_sup, max_length):
    tidsets, n_records = database
    capped = mine_fpgrowth(tidsets, n_records, min_sup,
                           max_length=max_length)
    full = mine_fpgrowth(tidsets, n_records, min_sup)
    expected = [(p.items, p.support) for p in full
                if p.length <= max_length]
    assert [(p.items, p.support) for p in capped] == expected


@given(transaction_databases(), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_every_frequent_pattern_has_closed_cover(database, min_sup):
    """The closed miner is a lossless summary of FP-growth's output:
    each frequent pattern maps to a closed superset with the same
    tidset."""
    tidsets, n_records = database
    frequent = mine_fpgrowth(tidsets, n_records, min_sup)
    closed = mine_closed(tidsets, n_records, min_sup)
    closed_by_tidset = {pattern.tidset: pattern for pattern in closed}
    for pattern in frequent:
        cover = closed_by_tidset.get(pattern.tidset)
        assert cover is not None
        assert pattern.items <= cover.items
        assert cover.support == pattern.support


@given(transaction_databases(), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_fpgrowth_supports_correct(database, min_sup):
    tidsets, n_records = database
    for pattern in mine_fpgrowth(tidsets, n_records, min_sup):
        tids = bs.universe(n_records)
        for item in pattern.items:
            tids &= tidsets[item].to_bigint()
        assert pattern.support == bs.popcount(tids) >= min_sup
