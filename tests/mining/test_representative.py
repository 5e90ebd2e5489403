"""Unit tests for representative-pattern selection (Section 7)."""

from __future__ import annotations

import pytest

from repro.errors import MiningError
from repro.mining import (
    mine_class_rules,
    mine_closed,
    mine_representative_rules,
    select_representatives,
)
from repro.mining.patterns import Pattern, PatternSet
from repro.tidvector import TidVector


def make_chain(supports):
    """A root plus a single chain of patterns with given supports."""
    n = supports[0]
    patterns = [Pattern(items=frozenset(range(depth)),
                        tidset=TidVector.from_indices(range(support), n),
                        support=support)
                for depth, support in enumerate(supports)]
    return PatternSet.pack(patterns, n, 1,
                           parent=list(range(-1, len(supports) - 1)))


class TestSelectRepresentatives:
    def test_delta_zero_keeps_everything(self):
        chain = make_chain([100, 90, 80, 70])
        selection = select_representatives(chain, delta=0.0)
        assert selection.n_clusters == len(chain)
        assert selection.reduction == 0.0

    def test_close_supports_merge(self):
        # 100 -> 98 -> 96 all within 10% of the chain head 100.
        chain = make_chain([200, 100, 98, 96])
        selection = select_representatives(chain, delta=0.1)
        # Root (empty items) never absorbs; 100 starts a cluster and
        # absorbs 98 and 96.
        assert selection.n_clusters == 2
        assert selection.rows.tolist() == [0, 1]
        assert [p.support for p in selection.representatives] == [200, 100]
        assert selection.cluster_of[2] == 1
        assert selection.cluster_of[3] == 1

    def test_tolerance_is_relative_to_parent(self):
        # 100 -> 95 -> 91: each edge ratio clears 0.9, so the whole
        # chain collapses into one cluster even though 91 < 0.9*100 —
        # the edge-relative test that makes reduction monotone in
        # delta.
        chain = make_chain([300, 100, 95, 91])
        selection = select_representatives(chain, delta=0.1)
        assert selection.cluster_of[3] == 1

        # 100 -> 95 -> 85: the 95 -> 85 edge (ratio ~0.89) fails, so
        # 85 starts its own cluster.
        chain = make_chain([300, 100, 95, 85])
        selection = select_representatives(chain, delta=0.1)
        assert selection.cluster_of[3] == 3

    def test_representative_is_shallowest_member(self):
        # Chain positions are depths.
        chain = make_chain([300, 100, 98])
        selection = select_representatives(chain, delta=0.1)
        assert selection.cluster_of[2] == 1

    def test_root_never_absorbs_real_patterns(self):
        # Child support 100 == root support 100: without the root
        # guard it would merge into the (untestable) root cluster.
        chain = make_chain([100, 100])
        selection = select_representatives(chain, delta=0.1)
        assert selection.cluster_of[1] == 1

    def test_members_listing(self):
        chain = make_chain([300, 100, 98, 96])
        selection = select_representatives(chain, delta=0.1)
        assert selection.members(1) == [1, 2, 3]
        assert selection.members(99) == []

    def test_delta_validation(self):
        chain = make_chain([10, 5])
        with pytest.raises(MiningError):
            select_representatives(chain, delta=-0.1)
        with pytest.raises(MiningError):
            select_representatives(chain, delta=1.0)

    def test_empty_input(self):
        empty = PatternSet.pack([], 10, 1, parent=[])
        selection = select_representatives(empty, delta=0.1)
        assert selection.n_clusters == 0
        assert selection.reduction == 0.0

    def test_needs_a_parent_column(self, small_random_dataset):
        from repro.mining import mine_patterns

        flat = mine_patterns(small_random_dataset, 10, algorithm="apriori")
        with pytest.raises(MiningError, match="parent column"):
            select_representatives(flat, delta=0.1)
        with pytest.raises(MiningError, match="parent column"):
            select_representatives(list(flat), delta=0.1)

    def test_reduction_monotone_in_delta(self, small_random_dataset):
        ds = small_random_dataset
        patterns = mine_closed(ds.item_tidsets, ds.n_records, 10)
        reductions = [
            select_representatives(patterns, delta=d).reduction
            for d in (0.0, 0.2, 0.4, 0.6)
        ]
        assert reductions == sorted(reductions)

    def test_every_pattern_has_a_retained_representative(
            self, small_random_dataset):
        ds = small_random_dataset
        patterns = mine_closed(ds.item_tidsets, ds.n_records, 10)
        selection = select_representatives(patterns, delta=0.3)
        retained = set(selection.rows.tolist())
        for position, pattern in enumerate(patterns):
            rep_id = selection.cluster_of[position]
            assert rep_id in retained
            rep = patterns[rep_id]
            # The representative is an ancestor-or-self, so its tidset
            # contains the member's and its support bounds it.
            assert pattern.tidset.is_subset(rep.tidset)
            assert pattern.support <= rep.support
            # Non-representatives merged via their tree edge: the
            # per-edge support ratio clears 1 - delta.
            if position != rep_id:
                parent = patterns[pattern.parent_id]
                assert pattern.support \
                    >= (1.0 - selection.delta) * parent.support


class TestMineRepresentativeRules:
    def test_reduces_hypothesis_count(self, small_random_dataset):
        ds = small_random_dataset
        full = mine_class_rules(ds, 10)
        reduced = mine_representative_rules(ds, 10, delta=0.5)
        assert reduced.n_tests <= full.n_tests

    def test_delta_zero_matches_full_pipeline(self, small_random_dataset):
        ds = small_random_dataset
        full = mine_class_rules(ds, 10)
        same = mine_representative_rules(ds, 10, delta=0.0)
        assert same.n_tests == full.n_tests
        assert sorted(r.p_value for r in same.rules) \
            == pytest.approx(sorted(r.p_value for r in full.rules))

    def test_reduced_parents_are_valid(self, small_random_dataset):
        ds = small_random_dataset
        reduced = mine_representative_rules(ds, 10, delta=0.4)
        for index, pattern in enumerate(reduced.patterns):
            assert -1 <= pattern.parent_id < index
            if pattern.parent_id >= 0:
                parent = reduced.patterns[pattern.parent_id]
                assert pattern.tidset.is_subset(parent.tidset)

    def test_permutation_engine_accepts_reduced_forest(
            self, small_random_dataset):
        from repro.corrections import PermutationEngine
        ds = small_random_dataset
        reduced = mine_representative_rules(ds, 10, delta=0.4)
        engine = PermutationEngine(reduced, n_permutations=20, seed=0)
        result = engine.fwer(0.05)
        assert result.n_tests == reduced.n_tests

    def test_min_sup_validation(self, small_random_dataset):
        with pytest.raises(MiningError):
            mine_representative_rules(small_random_dataset, 0, delta=0.1)

    def test_bonferroni_budget_grows(self, small_random_dataset):
        """Fewer tests means a (weakly) larger per-test budget — the
        power mechanism Section 7 predicts."""
        from repro.corrections import bonferroni
        ds = small_random_dataset
        full = bonferroni(mine_class_rules(ds, 10), 0.05)
        reduced = bonferroni(
            mine_representative_rules(ds, 10, delta=0.5), 0.05)
        assert reduced.threshold >= full.threshold
