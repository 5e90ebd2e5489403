"""Property-based tests for the associative-classification subsystem."""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify import CBAClassifier, record_item_sets, stratified_folds
from repro.classify.cmar import max_chi2
from repro.classify.ranking import rank_rules
from repro.data.dataset import Dataset
from repro.mining.rules import ClassRule, mine_class_rules
from repro.stats.chi2 import chi2_statistic

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

labels_strategy = st.lists(st.integers(min_value=0, max_value=2),
                           min_size=4, max_size=60).filter(
                               lambda ls: len(set(ls)) >= 2)


@st.composite
def small_datasets(draw):
    """Random categorical datasets with 2 classes, 6-30 records."""
    n_records = draw(st.integers(min_value=6, max_value=30))
    n_attributes = draw(st.integers(min_value=2, max_value=4))
    cardinality = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    records = [
        [f"v{rng.randrange(cardinality)}" for _ in range(n_attributes)]
        for _ in range(n_records)
    ]
    labels = [rng.randrange(2) for _ in range(n_records)]
    # ensure both classes occur
    labels[0] = 0
    labels[1] = 1
    return Dataset.from_records(records, labels, name=f"h{seed}")


@st.composite
def rule_lists(draw):
    """Arbitrary ClassRule lists for ranking properties."""
    n = draw(st.integers(min_value=0, max_value=12))
    rules = []
    for i in range(n):
        coverage = draw(st.integers(min_value=1, max_value=50))
        support = draw(st.integers(min_value=0, max_value=coverage))
        rules.append(ClassRule(
            pattern_id=draw(st.integers(min_value=0, max_value=5)),
            items=frozenset(draw(st.sets(
                st.integers(min_value=0, max_value=6), max_size=4))),
            class_index=draw(st.integers(min_value=0, max_value=1)),
            coverage=coverage,
            support=support,
            confidence=support / coverage,
            p_value=draw(st.floats(min_value=0.0, max_value=1.0,
                                   allow_nan=False)),
        ))
    return rules


# ----------------------------------------------------------------------
# stratified folds
# ----------------------------------------------------------------------

@given(labels_strategy, st.integers(min_value=2, max_value=4))
def test_folds_partition_exactly(labels, k):
    if k > len(labels):
        return
    folds = stratified_folds(labels, k, np.random.default_rng(0))
    seen = sorted(r for fold in folds for r in fold)
    assert seen == list(range(len(labels)))


@given(labels_strategy, st.integers(min_value=2, max_value=4))
def test_fold_sizes_within_one(labels, k):
    if k > len(labels):
        return
    folds = stratified_folds(labels, k, np.random.default_rng(0))
    sizes = [len(fold) for fold in folds]
    assert max(sizes) - min(sizes) <= 1


@given(labels_strategy, st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=2**16))
def test_folds_deterministic(labels, k, seed):
    if k > len(labels):
        return
    first = stratified_folds(labels, k, np.random.default_rng(seed))
    second = stratified_folds(labels, k, np.random.default_rng(seed))
    assert first == second


# ----------------------------------------------------------------------
# ranking
# ----------------------------------------------------------------------

@given(rule_lists())
def test_ranking_is_permutation(rules):
    ranked = rank_rules(rules)
    assert sorted(map(id, ranked)) == sorted(map(id, rules))


@given(rule_lists())
def test_cba_rank_confidence_monotone(rules):
    ranked = rank_rules(rules)
    for earlier, later in zip(ranked, ranked[1:]):
        assert earlier.confidence >= later.confidence


@given(rule_lists())
def test_significance_rank_p_monotone(rules):
    ranked = rank_rules(rules, order="significance")
    for earlier, later in zip(ranked, ranked[1:]):
        assert earlier.p_value <= later.p_value


# ----------------------------------------------------------------------
# max chi-square bound
# ----------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=2, max_value=120))
def test_max_chi2_dominates_all_feasible_tables(coverage, n_c, n):
    if coverage >= n or n_c >= n:
        return
    bound = max_chi2(coverage, n_c, n)
    lower = max(0, coverage + n_c - n)
    upper = min(coverage, n_c)
    for support in range(lower, upper + 1):
        a = support
        b = coverage - support
        c = n_c - support
        d = n - n_c - b
        assert chi2_statistic(a, b, c, d) <= bound + 1e-9


# ----------------------------------------------------------------------
# CBA classifier invariants
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(small_datasets())
def test_cba_training_errors_never_worse_than_default(dataset):
    ruleset = mine_class_rules(dataset, min_sup=1)
    fitted = CBAClassifier().fit(ruleset)
    majority = max(dataset.class_support(c)
                   for c in range(dataset.n_classes))
    assert fitted.training_errors <= dataset.n_records - majority


@settings(max_examples=25, deadline=None)
@given(small_datasets())
def test_cba_training_errors_match_predictions(dataset):
    """The staged error count equals the errors the final classifier
    actually makes on the training data."""
    ruleset = mine_class_rules(dataset, min_sup=1)
    fitted = CBAClassifier().fit(ruleset)
    sets = record_item_sets(dataset)
    predicted = fitted.predict(sets)
    errors = sum(1 for p, a in zip(predicted, dataset.class_labels)
                 if p != a)
    # During fitting a record is charged to the first kept rule that
    # matches it; prediction fires the first kept rule that matches.
    # Same order, same list, so the counts agree exactly.
    assert errors == fitted.training_errors


@settings(max_examples=25, deadline=None)
@given(small_datasets())
def test_cba_kept_rules_follow_precedence(dataset):
    ruleset = mine_class_rules(dataset, min_sup=1)
    fitted = CBAClassifier().fit(ruleset)
    ranked = rank_rules(ruleset.rules)
    positions = {(rule.items, rule.class_index): i
                 for i, rule in enumerate(ranked)}
    kept_positions = [positions[(rule.items, rule.class_index)]
                      for rule in fitted.rules]
    assert kept_positions == sorted(kept_positions)
