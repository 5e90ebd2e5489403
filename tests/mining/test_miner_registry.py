"""The miner registry: resolution semantics, the PatternSet columns,
and registration round-trips mirroring the correction registry."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.corrections import PermutationEngine
from repro.data import make_german
from repro.errors import MiningError
from repro.mining import (
    Miner,
    Pattern,
    PatternSet,
    available_miners,
    generate_rules,
    get_miner,
    mine_apriori,
    mine_closed,
    mine_patterns,
    miner_names,
    patternset_from_frequent,
    register_miner,
    resolve_miner,
    unregister_miner,
)
from repro.tidvector import TidVector

from .. import bigint_oracle as bs
from ..fpgrowth_oracle import registered_fpgrowth

BUILTINS = ("closed", "apriori", "representative", "general-rules")


@pytest.fixture(scope="module")
def german():
    return make_german(seed=7, n_records=300)


@pytest.fixture
def plugin_algorithm(algorithm):
    """``algorithm``, with the FP-growth oracle registered as the
    plugin miner ``"fpgrowth"`` while an ``"fpgrowth"`` case runs."""
    if algorithm != "fpgrowth":
        yield algorithm
        return
    with registered_fpgrowth():
        yield algorithm


class TestResolution:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_canonical_names(self, name):
        assert resolve_miner(name).name == name

    @pytest.mark.parametrize("spelling,expected", [
        ("lcm", "closed"),
        ("all", "apriori"),
        ("levelwise", "apriori"),
        ("reduced", "representative"),
        ("general", "general-rules"),
        ("market-basket", "general-rules"),
    ])
    def test_aliases(self, spelling, expected):
        assert resolve_miner(spelling).name == expected

    @pytest.mark.parametrize("spelling", ["CLOSED", "APriori", "LCM"])
    def test_case_insensitive(self, spelling):
        assert resolve_miner(spelling) is resolve_miner(spelling.lower())

    def test_unknown_name_lists_valid_and_suggests(self):
        with pytest.raises(MiningError) as excinfo:
            resolve_miner("apirori")
        message = str(excinfo.value)
        assert "valid algorithms" in message
        assert "did you mean 'apriori'" in message

    @pytest.mark.parametrize("spelling", ["fpgrowth", "fp-growth", "fp"])
    def test_fpgrowth_is_not_registered(self, spelling):
        with pytest.raises(MiningError) as excinfo:
            resolve_miner(spelling)
        message = str(excinfo.value)
        assert "valid algorithms" in message
        for name in BUILTINS:
            assert repr(name) in message

    def test_non_string_rejected(self):
        with pytest.raises(MiningError, match="must be a string"):
            resolve_miner(42)

    def test_get_miner_is_resolve(self):
        assert get_miner("closed") is resolve_miner("closed")

    def test_miner_names_sorted_canonical(self):
        names = miner_names()
        assert names == sorted(names)
        assert set(BUILTINS) <= set(names)

    def test_capabilities(self):
        assert resolve_miner("closed").has_capability("closed")
        assert resolve_miner("apriori").has_capability("all-frequent")
        assert resolve_miner("general-rules").has_capability(
            "emits-rules")
        assert not resolve_miner("closed").has_capability("all-frequent")


class TestRegistration:
    def _spec(self, name="test-miner", aliases=("tm",)):
        def mine_fn(item_tidsets, n_records, min_sup, max_length,
                    **opts):
            return patternset_from_frequent(
                mine_apriori(item_tidsets, n_records, min_sup,
                             max_length=max_length),
                n_records, min_sup)
        return Miner(name=name, mine_fn=mine_fn, aliases=aliases,
                     capabilities=("all-frequent",))

    def test_concurrent_overwrites_stay_consistent(self):
        """An overwrite re-enters ``unregister_miner`` under the
        registry lock; racing overwrites of one name must neither raise
        nor leave a spelling pointing at a removed spec."""
        specs = [self._spec(name="stress-miner", aliases=("stress-tm",))
                 for _ in range(8)]
        errors = []

        def hammer(spec):
            try:
                for _ in range(200):
                    register_miner(spec, overwrite=True)
            except MiningError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(spec,))
                   for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            winner = resolve_miner("stress-miner")
            assert any(winner is spec for spec in specs)
            assert resolve_miner("stress-tm") is winner
        finally:
            unregister_miner("stress-miner")

    def test_register_resolve_unregister_roundtrip(self):
        spec = register_miner(self._spec())
        try:
            assert resolve_miner("test-miner") is spec
            assert resolve_miner("TM") is spec
        finally:
            unregister_miner("tm")  # any spelling removes it
        with pytest.raises(MiningError):
            resolve_miner("test-miner")

    def test_collision_rejected(self):
        with pytest.raises(MiningError, match="already registered"):
            register_miner(self._spec(name="closed"))
        with pytest.raises(MiningError, match="already registered"):
            register_miner(self._spec(name="mine2", aliases=("lcm",)))
        assert resolve_miner("closed").name == "closed"

    def test_alias_collision_is_not_a_replacement_target(self):
        # overwrite=True replaces only a canonical-name match; a hit
        # through another spec's alias must still be rejected.
        with pytest.raises(MiningError, match="already registered"):
            register_miner(self._spec(name="lcm", aliases=()),
                           overwrite=True)
        assert resolve_miner("closed").name == "closed"

    def test_overwrite_replaces_wholesale(self):
        first = register_miner(self._spec(aliases=("tm", "tm-old")))
        try:
            second = register_miner(
                self._spec(aliases=("tm",)), overwrite=True)
            assert resolve_miner("test-miner") is second
            with pytest.raises(MiningError):
                resolve_miner("tm-old")  # old alias gone with its spec
        finally:
            unregister_miner("test-miner")
        assert first is not second

    def test_invalid_specs_rejected(self):
        with pytest.raises(MiningError, match="non-empty"):
            register_miner(Miner(name="", mine_fn=lambda *a: None))
        with pytest.raises(MiningError, match="callable"):
            register_miner(Miner(name="nope", mine_fn=None))


class TestMinerMine:
    def test_mine_stamps_provenance(self, german):
        pattern_set = resolve_miner("closed").mine(german, 40,
                                                   max_length=3)
        assert isinstance(pattern_set, PatternSet)
        assert pattern_set.algorithm == "closed"
        assert pattern_set.provenance["capabilities"] == ("closed",)
        assert pattern_set.provenance["max_length"] == 3
        assert pattern_set.min_sup == 40
        assert pattern_set.n_records == german.n_records

    def test_mine_patterns_convenience(self, german):
        direct = resolve_miner("apriori").mine(german, 60)
        convenience = mine_patterns(german, 60, algorithm="levelwise")
        assert [(p.items, p.support) for p in direct] == \
            [(p.items, p.support) for p in convenience]

    def test_closed_miner_matches_mine_closed(self, german):
        pattern_set = mine_patterns(german, 40, algorithm="closed")
        raw = mine_closed(german.item_tidsets, german.n_records, 40)
        assert list(pattern_set) == list(raw)

    def test_options_forwarded(self, german):
        loose = mine_patterns(german, 40, algorithm="representative",
                              delta=0.0)
        tight = mine_patterns(german, 40, algorithm="representative",
                              delta=0.5)
        assert tight.n_patterns <= loose.n_patterns
        assert tight.provenance["options"] == {"delta": 0.5}
        # delta=0 keeps every closed pattern.
        assert loose.n_patterns == \
            mine_patterns(german, 40).n_patterns

    def test_general_rules_in_provenance(self, german):
        pattern_set = mine_patterns(german, 80,
                                    algorithm="general-rules")
        rules = pattern_set.provenance["general_rules"]
        assert rules.n_tests == len(rules.rules) > 0

    def test_view_without_tidsets_rejected(self):
        with pytest.raises(MiningError, match="dataset view"):
            resolve_miner("closed").mine(object(), 5)

    def test_malformed_plugin_output_rejected(self, german):
        # A plugin building columns by hand gets the constructor's
        # shape checks: a parent that does not precede its child.
        def bad_mine(item_tidsets, n_records, min_sup, max_length,
                     **opts):
            nodes = [Pattern(items=frozenset({0}),
                             tidset=bs.to_tidvector(0b01, n_records),
                             support=1),
                     Pattern(items=frozenset({1}),
                             tidset=bs.to_tidvector(0b10, n_records),
                             support=1)]
            return PatternSet.pack(nodes, n_records, min_sup,
                                   parent=[1, -1])

        spec = register_miner(Miner(name="broken-miner",
                                    mine_fn=bad_mine))
        try:
            with pytest.raises(MiningError, match="precede"):
                spec.mine(german, 5)
        finally:
            unregister_miner("broken-miner")

    def test_bigint_plugin_tidsets_rejected(self, german):
        # Tidsets are TidVectors only: a plugin still emitting bigint
        # bitsets fails loudly where its patterns are packed.
        def bigint_mine(item_tidsets, n_records, min_sup, max_length,
                        **opts):
            nodes = [Pattern(items=frozenset({0}), tidset=0b01,
                             support=1)]
            return PatternSet.pack(nodes, n_records, min_sup)

        spec = register_miner(Miner(name="bigint-miner",
                                    mine_fn=bigint_mine))
        try:
            with pytest.raises(MiningError, match="not a TidVector"):
                spec.mine(german, 5)
        finally:
            unregister_miner("bigint-miner")


class TestPatternSetColumns:
    def test_sequence_protocol(self, german):
        pattern_set = mine_patterns(german, 60)
        assert len(pattern_set) == pattern_set.n_patterns
        assert pattern_set[0].parent_id == -1
        assert list(iter(pattern_set)) == list(pattern_set.patterns)
        assert pattern_set[-1] == pattern_set[len(pattern_set) - 1]
        assert pattern_set[1:3] == [pattern_set[1], pattern_set[2]]
        assert pattern_set.supports.tolist() == \
            [p.support for p in pattern_set]
        with pytest.raises(IndexError):
            pattern_set[len(pattern_set)]

    def test_views_read_the_columns(self, german):
        pattern_set = mine_patterns(german, 60)
        assert all(isinstance(p, Pattern) for p in pattern_set)
        for i, pattern in enumerate(pattern_set):
            start, stop = pattern_set.item_offsets[i:i + 2]
            assert pattern.items == \
                frozenset(pattern_set.item_ids[start:stop].tolist())
            assert pattern.tidset == pattern_set.matrix.tidvector(i)
            assert pattern.parent_id == pattern_set.parent[i]

    @pytest.mark.parametrize("algorithm", BUILTINS)
    def test_every_builtin_counts_its_hypotheses(self, german, algorithm):
        pattern_set = mine_patterns(german, 60, algorithm=algorithm)
        assert pattern_set.n_hypotheses == \
            sum(1 for p in pattern_set if p.items)
        assert pattern_set.supports.tolist() == \
            pattern_set.matrix.row_popcounts().tolist()

    @pytest.mark.parametrize("algorithm", ("closed", "representative"))
    def test_tree_producers_fill_parent(self, german, algorithm):
        pattern_set = mine_patterns(german, 60, algorithm=algorithm)
        for i, pattern in enumerate(pattern_set):
            assert -1 <= pattern.parent_id < i
            if pattern.parent_id >= 0:
                parent = pattern_set[pattern.parent_id]
                assert pattern.tidset.is_subset(parent.tidset)

    @pytest.mark.parametrize("algorithm",
                             ("apriori", "fpgrowth", "general-rules"))
    def test_flat_producers_leave_parent_empty(self, german,
                                               plugin_algorithm):
        pattern_set = mine_patterns(german, 60,
                                    algorithm=plugin_algorithm)
        assert pattern_set.parent is None
        assert all(p.parent_id == -1 for p in pattern_set)

    def test_constructor_rejects_malformed_columns(self):
        tids = bs.to_tidvector(0b01, 2)
        good = PatternSet.pack(
            [Pattern(items=frozenset({0}), tidset=tids, support=1),
             Pattern(items=frozenset({0, 1}), tidset=tids, support=1)],
            2, 1, parent=[-1, 0])
        columns = dict(matrix=good.matrix, supports=good.supports,
                       item_ids=good.item_ids,
                       item_offsets=good.item_offsets, n_records=2,
                       min_sup=1)
        with pytest.raises(MiningError, match="differ in length"):
            PatternSet(**dict(columns, supports=[1]))
        with pytest.raises(MiningError, match="differ in length"):
            PatternSet(**dict(columns, parent=[-1]))
        with pytest.raises(MiningError, match="item_offsets"):
            PatternSet(**dict(columns, item_offsets=[0, 1, 2]))
        with pytest.raises(MiningError, match="records"):
            PatternSet(**dict(columns, n_records=3))
        with pytest.raises(MiningError, match="precede"):
            PatternSet(**dict(columns, parent=[-1, 1]))
        with pytest.raises(MiningError, match="precede"):
            PatternSet(**dict(columns, parent=[-2, 0]))
        words = good.matrix.words.copy()
        words[1, 0] = 0b100  # record 2 of a 2-record set
        with pytest.raises(MiningError, match="references records"):
            PatternSet(**dict(columns, matrix=type(good.matrix)(words, 2)))
        with pytest.raises(MiningError, match="not a TidVector"):
            PatternSet.pack([Pattern(items=frozenset(), tidset=0b10,
                                     support=1)], 2, 1)

    def test_from_frequent_orders_by_length_then_items(self, german):
        frequent = mine_apriori(german.item_tidsets, german.n_records,
                                60)
        pattern_set = patternset_from_frequent(
            frequent[::-1], german.n_records, 60)
        assert pattern_set[0].items == frozenset()
        assert pattern_set[0].support == german.n_records
        keys = [(len(p.items), tuple(sorted(p.items)))
                for p in pattern_set[1:]]
        assert keys == sorted(keys)
        assert len(keys) == len(frequent)

    @pytest.mark.parametrize("algorithm",
                             ("apriori", "fpgrowth", "general-rules"))
    def test_all_frequent_miners_pack_in_length_item_order(
            self, german, plugin_algorithm):
        pattern_set = mine_patterns(german, 60,
                                    algorithm=plugin_algorithm)
        assert pattern_set[0].items == frozenset()
        keys = [(len(p.items), tuple(sorted(p.items)))
                for p in pattern_set[1:]]
        assert keys == sorted(keys)
        # Each row's items are stored ascending.
        for i in range(len(pattern_set)):
            start, stop = pattern_set.item_offsets[i:i + 2]
            row = pattern_set.item_ids[start:stop].tolist()
            assert row == sorted(row)

    def test_take_slices_every_column(self, german):
        pattern_set = mine_patterns(german, 60)
        rows = [0, 2, 3, 7, len(pattern_set) - 1]
        taken = pattern_set.take(rows)
        assert len(taken) == len(rows)
        for k, row in enumerate(rows):
            original = pattern_set[row]
            assert taken[k].items == original.items
            assert taken[k].support == original.support
            assert taken[k].tidset == original.tidset
        assert taken.algorithm == pattern_set.algorithm
        assert taken.provenance == pattern_set.provenance

    def test_take_remaps_parent_to_the_nearest_kept_ancestor(self):
        # A chain 0 -> 1 -> 2 -> 3 plus a second root 4 -> 5.
        nodes = [Pattern(items=frozenset(range(k)),
                         tidset=TidVector.universe(1), support=1)
                 for k in range(6)]
        pattern_set = PatternSet.pack(nodes, 1, 1,
                                      parent=[-1, 0, 1, 2, -1, 4])
        assert pattern_set.take([0, 3, 5]).parent.tolist() == [-1, 0, -1]
        assert pattern_set.take([1, 2, 4, 5]).parent.tolist() == \
            [-1, 0, -1, 2]
        assert pattern_set.take([]).parent.tolist() == []
        assert PatternSet.pack(nodes, 1, 1).take([1, 3]).parent is None

    def test_generate_rules_accepts_patternsets(self, german):
        closed_rules = generate_rules(
            german, mine_patterns(german, 60), 60)
        frequent_rules = generate_rules(
            german, mine_patterns(german, 60, algorithm="apriori"), 60)
        # One hypothesis per rule-bearing pattern; all-frequent sets
        # carry at least the closed hypothesis count.
        assert closed_rules.n_tests <= frequent_rules.n_tests

    def test_pattern_forest_consumes_patternsets(self, german):
        pattern_set = mine_patterns(german, 60, algorithm="apriori")
        indicator = np.array(
            [label == 0 for label in german.class_labels], dtype=bool)
        class_bits = bs.from_numpy_bool(indicator)
        reference = [bs.popcount(p.tidset.to_bigint() & class_bits)
                     for p in pattern_set]
        # The permutation engine packs the set's tidsets into its
        # forest matrix, one row per node.
        engine = PermutationEngine(generate_rules(german, pattern_set, 60),
                                   n_permutations=1, seed=0)
        assert np.array_equal(engine._matrix.class_supports(indicator),
                              reference)

    def test_pack_preserves_provenance(self, german):
        raw = mine_closed(german.item_tidsets, german.n_records, 60)
        pattern_set = PatternSet.pack(
            raw, german.n_records, 60, parent=raw.parent,
            algorithm="custom", provenance={"note": "hand-built"})
        assert pattern_set.algorithm == "custom"
        assert pattern_set.provenance == {"note": "hand-built"}
        assert list(pattern_set) == list(raw)


class TestRegistryListing:
    def test_available_in_registration_order(self):
        names = [m.name for m in available_miners()]
        assert names[:5] == list(BUILTINS)

    def test_descriptions_present(self):
        for miner in available_miners():
            assert miner.description
