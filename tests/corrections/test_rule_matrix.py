"""One pattern matrix per rule set, indexed by ``pattern_id``.

:attr:`RuleSet.matrix` is the pattern set's matrix, one row per
pattern; the permutation engine reuses it, and a rule's ``pattern_id``
is its pattern's row — also when a custom stage filters the patterns
into a list whose views still name parents in the unfiltered set.
"""

from __future__ import annotations

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
    shorter pattern are gone, so parent ids point past the list."""
    patterns = [p for p in mine_closed(german.item_tidsets,
                                       german.n_records, MIN_SUP)
                if len(p.items) >= 3]
    assert any(p.parent_id >= i for i, p in enumerate(patterns))
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


def test_pickled_ruleset_holds_the_arena_once():
    # Many records and few patterns, so the arena dominates what a
    # pickle carries besides the rules; chi2 rule sets build no p-value
    # tables at Score.
    from repro.data import GeneratorConfig, generate

    dataset = generate(GeneratorConfig(n_records=20_000, n_attributes=8,
                                       n_rules=0), seed=3).dataset
    ruleset = generate_rules(
        dataset, mine_closed(dataset.item_tidsets, dataset.n_records,
                             200), 200, scorer="chi2")
    assert ruleset._tables is None
    payload = len(pickle.dumps(ruleset)) - len(pickle.dumps(ruleset.rules))
    assert payload < 1.2 * ruleset.matrix.nbytes
    again = pickle.loads(pickle.dumps(ruleset))
    assert np.array_equal(again.matrix.words, ruleset.matrix.words)
    assert again.rules == ruleset.rules


def test_matrix_is_a_view_of_the_native_arena(german):
    if _native.load_suite() is None:
        pytest.skip("native suite unavailable")
    patterns = mine_closed(german.item_tidsets, german.n_records, MIN_SUP)
    ruleset = generate_rules(german, patterns, MIN_SUP)
    assert ruleset.patterns is patterns
    assert np.shares_memory(ruleset.matrix.words, patterns[0].tidset.words)
    assert not ruleset.matrix.words.flags.writeable


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
    engine = PermutationEngine(generate_rules(german, long_patterns,
                                              MIN_SUP),
                               n_permutations=N_PERMUTATIONS, seed=3)
    reference = engine.fwer()
    assert reference.significant
    assert filtered.threshold == reference.threshold
    assert _decisions(filtered) == _decisions(reference)


def test_sequential_p_value_reads_the_rule_row(german, long_patterns):
    ruleset = generate_rules(german, long_patterns, MIN_SUP)
    for index in (0, len(ruleset.rules) - 1):
        rule = ruleset.rules[index]
        assert ruleset.matrix.tidvector(rule.pattern_id) == \
            long_patterns[rule.pattern_id].tidset
        got = sequential_rule_p_value(ruleset, index, n_max=50, seed=1)
        again = sequential_rule_p_value(ruleset, index, n_max=50, seed=1)
        assert got == again


def _bad_pattern(n_records):
    # A tidset referencing a record past the dataset's end.
    return Pattern(items=frozenset({0}), tidset=1 << n_records, support=1)


def test_score_rejects_a_bad_tidset(german):
    with pytest.raises(MiningError, match="references records"):
        generate_rules(german, [_bad_pattern(german.n_records)], MIN_SUP)


def test_hand_built_ruleset_rejects_a_bad_tidset(german):
    rule = ClassRule(pattern_id=0, items=frozenset({0}), class_index=0,
                     coverage=1, support=1, confidence=1.0, p_value=0.5)
    with pytest.raises(MiningError, match="references records"):
        RuleSet(dataset=german, patterns=[_bad_pattern(german.n_records)],
                rules=[rule], min_sup=1)


def test_ruleset_rejects_patterns_of_another_dataset(german):
    half = german.subset(list(range(german.n_records // 2)))
    patterns = mine_closed(half.item_tidsets, half.n_records, MIN_SUP // 2)
    with pytest.raises(MiningError, match="cannot be scored"):
        generate_rules(german, patterns, MIN_SUP)
