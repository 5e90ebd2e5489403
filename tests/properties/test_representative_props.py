"""Property-based tests for representative-pattern selection."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining import mine_closed, select_representatives

from .. import bigint_oracle as bs


@st.composite
def closed_forests(draw):
    """A closed-pattern forest mined from a random vertical database."""
    n_records = draw(st.integers(min_value=2, max_value=24))
    n_items = draw(st.integers(min_value=1, max_value=7))
    tidsets = [
        draw(st.integers(min_value=0, max_value=(1 << n_records) - 1))
        for _ in range(n_items)
    ]
    min_sup = draw(st.integers(min_value=1, max_value=4))
    return mine_closed(bs.to_tidvectors(tidsets, n_records), n_records,
                       min_sup)


deltas = st.floats(min_value=0.0, max_value=0.95)


@given(closed_forests(), deltas, deltas)
@settings(max_examples=60, deadline=None)
def test_reduction_monotone_in_delta(patterns, delta_a, delta_b):
    lo, hi = sorted((delta_a, delta_b))
    n_lo = select_representatives(patterns, delta=lo).n_clusters
    n_hi = select_representatives(patterns, delta=hi).n_clusters
    assert n_hi <= n_lo


@given(closed_forests(), deltas)
@settings(max_examples=60, deadline=None)
def test_every_pattern_assigned_to_retained_ancestor(patterns, delta):
    selection = select_representatives(patterns, delta=delta)
    retained = set(selection.rows.tolist())
    for position, pattern in enumerate(patterns):
        rep_id = selection.cluster_of[position]
        assert rep_id in retained
        rep = patterns[rep_id]
        # Ancestor-or-self: the representative's record set contains
        # the member's.
        assert pattern.tidset.is_subset(rep.tidset)
        assert pattern.support <= rep.support


@given(closed_forests(), deltas)
@settings(max_examples=60, deadline=None)
def test_edge_criterion_respected(patterns, delta):
    """Non-representative members merged via an edge whose support
    ratio clears 1 - delta."""
    selection = select_representatives(patterns, delta=delta)
    for position, pattern in enumerate(patterns):
        rep_id = selection.cluster_of[position]
        if rep_id == position:
            continue
        parent = patterns[pattern.parent_id]
        assert pattern.support >= (1.0 - delta) * parent.support


@given(closed_forests(), deltas)
@settings(max_examples=60, deadline=None)
def test_delta_zero_is_identity(patterns, delta):
    """delta=0 keeps every pattern (closed patterns cannot tie along
    an edge)."""
    selection = select_representatives(patterns, delta=0.0)
    assert selection.n_clusters == len(patterns)


@given(closed_forests(), deltas)
@settings(max_examples=60, deadline=None)
def test_members_partition_the_forest(patterns, delta):
    selection = select_representatives(patterns, delta=delta)
    seen = []
    for representative in selection.rows.tolist():
        seen.extend(selection.members(representative))
    assert sorted(seen) == list(range(len(patterns)))
