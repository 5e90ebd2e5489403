"""One pattern matrix per rule set, indexed by ``pattern_id``.

Score packs every pattern's tidset into :attr:`RuleSet.matrix`, one
row per pattern in list order; the permutation engine reuses that
matrix, and a rule's ``pattern_id`` is its pattern's row — also when
the pattern list is a filtered subset whose ``node_id`` values are not
dense positions.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro import Pipeline, _native
from repro.core.pipeline import MineStage, ScoreStage
from repro.corrections import PermutationEngine
from repro.data import make_german
from repro.errors import MiningError
from repro.mining import mine_closed
from repro.mining.patterns import Pattern
from repro.mining.rules import ClassRule, RuleSet, generate_rules
from repro.stats.sequential import sequential_rule_p_value

MIN_SUP = 40
N_PERMUTATIONS = 40


@pytest.fixture(scope="module")
def german():
    return make_german(seed=4, n_records=400)


@pytest.fixture(scope="module")
def long_patterns(german):
    """Closed patterns of at least three items: the root and every
    shorter pattern are gone, so node ids are sparse."""
    patterns = [p for p in mine_closed(german.item_tidsets,
                                       german.n_records, MIN_SUP)
                if len(p.items) >= 3]
    assert any(p.node_id != i for i, p in enumerate(patterns))
    return patterns


class KeepLong:
    """A custom stage that filters the mined patterns."""

    name = "keep-long"

    def run(self, ctx, state):
        state.patterns = [p for p in state.patterns if len(p.items) >= 3]
        return state


def _decisions(result):
    return sorted((tuple(sorted(r.items)), r.class_index, r.p_value)
                  for r in result.significant)


def test_engine_reuses_the_score_matrix(german):
    ruleset = generate_rules(
        german, mine_closed(german.item_tidsets, german.n_records,
                            MIN_SUP), MIN_SUP)
    engine = PermutationEngine(ruleset, n_permutations=5, seed=0)
    assert engine._matrix is ruleset.matrix
    assert np.array_equal(engine._node_coverage, ruleset.coverages)
    assert ruleset.matrix.n_rows == len(ruleset.patterns)


def test_pickled_ruleset_rebuilds_its_matrix(german):
    ruleset = generate_rules(
        german, mine_closed(german.item_tidsets, german.n_records,
                            MIN_SUP), MIN_SUP)
    again = pickle.loads(pickle.dumps(ruleset))
    # The matrix is derived from the patterns, so it is not shipped.
    assert again._matrix is None
    assert np.array_equal(again.matrix.words, ruleset.matrix.words)
    assert again.rules == ruleset.rules


def test_matrix_is_a_view_of_the_native_arena(german):
    if _native.load_suite() is None:
        pytest.skip("native suite unavailable")
    patterns = mine_closed(german.item_tidsets, german.n_records, MIN_SUP)
    ruleset = generate_rules(german, patterns, MIN_SUP)
    assert np.shares_memory(ruleset.matrix.words, patterns[0].tidset.words)


def test_pattern_id_is_the_list_position(german, long_patterns):
    ruleset = generate_rules(german, long_patterns, MIN_SUP)
    assert ruleset.rules
    for rule in ruleset.rules:
        pattern = ruleset.patterns[rule.pattern_id]
        assert rule.items == pattern.items
        assert rule.coverage == pattern.support


@pytest.mark.parametrize("native", [True, False])
def test_filtering_stage_matches_dense_renumbering(german, long_patterns,
                                                   native, monkeypatch):
    if not native:
        monkeypatch.setattr(_native, "load_suite", lambda: None)
    pipe = Pipeline(min_sup=MIN_SUP, corrections=("Perm_FWER",),
                    n_permutations=N_PERMUTATIONS, seed=3,
                    stages=(MineStage(), KeepLong(), ScoreStage()))
    filtered = pipe.run(german)["Perm_FWER"]
    dense = [dataclasses.replace(p, node_id=i)
             for i, p in enumerate(long_patterns)]
    engine = PermutationEngine(generate_rules(german, dense, MIN_SUP),
                               n_permutations=N_PERMUTATIONS, seed=3)
    reference = engine.fwer()
    assert reference.significant
    assert filtered.threshold == reference.threshold
    assert _decisions(filtered) == _decisions(reference)


def test_sequential_p_value_reads_the_rule_row(german, long_patterns):
    ruleset = generate_rules(german, long_patterns, MIN_SUP)
    dense = generate_rules(
        german, [dataclasses.replace(p, node_id=i)
                 for i, p in enumerate(long_patterns)], MIN_SUP)
    for index in (0, len(ruleset.rules) - 1):
        got = sequential_rule_p_value(ruleset, index, n_max=50, seed=1)
        want = sequential_rule_p_value(dense, index, n_max=50, seed=1)
        assert got == want


def _bad_pattern(n_records):
    # A tidset referencing a record past the dataset's end.
    return Pattern(node_id=0, parent_id=-1, items=frozenset({0}),
                   tidset=1 << n_records, support=1, depth=1)


def test_score_rejects_a_bad_tidset(german):
    with pytest.raises(MiningError, match="references records"):
        generate_rules(german, [_bad_pattern(german.n_records)], MIN_SUP)


def test_engine_rejects_a_bad_tidset_in_a_hand_built_ruleset(german):
    rule = ClassRule(pattern_id=0, items=frozenset({0}), class_index=0,
                     coverage=1, support=1, confidence=1.0, p_value=0.5)
    ruleset = RuleSet(dataset=german,
                      patterns=[_bad_pattern(german.n_records)],
                      rules=[rule], min_sup=1)
    with pytest.raises(MiningError, match="references records"):
        PermutationEngine(ruleset, n_permutations=5, seed=0)
