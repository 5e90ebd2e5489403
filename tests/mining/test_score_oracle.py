"""Score's columnar rule generation against the per-pattern loop.

:func:`~repro.mining.rules.generate_rules` must emit exactly the rules
of :func:`tests.mining.score_oracle.reference_rules` — same order
(pattern order, then ascending class), classes, supports, confidences
and p-values — with the native suite loaded or not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import _native
from repro.data import Dataset, GeneratorConfig, generate
from repro.mining import mine_closed
from repro.mining.rules import class_supports, generate_rules

from .score_oracle import reference_rules

#: Eight records over three binary attributes. ``B=x`` (and every
#: pattern over ``B`` or ``C`` alone) splits the classes evenly, so
#: both lifts are 1 and the lower class must win the tie.
_TIE_RECORDS = [[a, b, c] for a in "ab" for b in "xy" for c in "mn"]


def _generated(n_classes, seed):
    config = GeneratorConfig(
        n_records=360, n_attributes=10, n_classes=n_classes,
        min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=70, max_coverage=70,
        min_confidence=0.9, max_confidence=0.9)
    return generate(config, seed=seed).dataset, 25


def _tied():
    labels = ["pos"] * 4 + ["neg"] * 4
    return Dataset.from_records(_TIE_RECORDS, labels, ["A", "B", "C"],
                                class_names=["pos", "neg"]), 2


def _empty_class(n_classes):
    # A declared class with no record has prior 0, hence lift inf.
    names = ["c0", "c1", "c2"][:n_classes]
    labels = ["c0", "c1"] * 4 if n_classes > 2 else ["c0"] * 8
    return Dataset.from_records(_TIE_RECORDS, labels, ["A", "B", "C"],
                                class_names=names), 2


DATASETS = {
    "binary": lambda: _generated(2, 33),
    "three-class": lambda: _generated(3, 33),
    "tied-lifts": _tied,
    "binary-empty-class": lambda: _empty_class(2),
    "three-class-empty-class": lambda: _empty_class(3),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def mined(request):
    dataset, min_sup = DATASETS[request.param]()
    patterns = mine_closed(dataset.item_tidsets, dataset.n_records,
                           min_sup)
    return dataset, patterns, min_sup


@pytest.fixture(params=["native", "numpy"])
def native_mode(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setattr(_native, "load_suite", lambda: None)
    return request.param


def _rule_tuples(ruleset):
    return [(r.pattern_id, r.class_index, r.coverage, r.support,
             r.confidence, r.p_value) for r in ruleset.rules]


@pytest.mark.parametrize("scorer", ["fisher", "fisher-midp", "chi2"])
@pytest.mark.parametrize("rhs_class", [None, 0, 1])
@pytest.mark.parametrize("min_conf", [0.0, 0.6])
def test_generate_rules_matches_scalar_reference(mined, native_mode,
                                                 scorer, rhs_class,
                                                 min_conf):
    dataset, patterns, min_sup = mined
    ruleset = generate_rules(dataset, patterns, min_sup,
                             min_conf=min_conf, rhs_class=rhs_class,
                             scorer=scorer)
    expected = reference_rules(dataset, patterns, min_conf=min_conf,
                               rhs_class=rhs_class, scorer=scorer)
    assert expected or min_conf > 0
    assert _rule_tuples(ruleset) == expected
    assert all(rule.items == patterns[rule.pattern_id].items
               for rule in ruleset.rules)


def test_tied_lifts_pick_the_lower_class():
    dataset, min_sup = _tied()
    patterns = mine_closed(dataset.item_tidsets, dataset.n_records,
                           min_sup)
    ruleset = generate_rules(dataset, patterns, min_sup)
    tied = [r for r in ruleset.rules if r.support * 2 == r.coverage]
    assert tied
    assert all(r.class_index == 0 for r in tied)


def test_empty_class_has_infinite_lift():
    dataset, min_sup = _empty_class(2)
    assert dataset.class_support(1) == 0
    patterns = mine_closed(dataset.item_tidsets, dataset.n_records,
                           min_sup)
    ruleset = generate_rules(dataset, patterns, min_sup)
    assert ruleset.rules
    assert all(r.class_index == 1 and r.support == 0
               for r in ruleset.rules)


@pytest.mark.parametrize("n_classes", [2, 3])
def test_class_supports_counts_every_requested_class(n_classes,
                                                     native_mode):
    dataset, min_sup = _generated(n_classes, 7)
    patterns = mine_closed(dataset.item_tidsets, dataset.n_records,
                           min_sup)
    ruleset = generate_rules(dataset, patterns, min_sup)
    labels = np.random.default_rng(0).permuted(
        np.tile(np.asarray(dataset.class_labels), (3, 1)), axis=1)
    classes = list(range(n_classes))[::-1]
    supports = class_supports(ruleset.matrix, ruleset.coverages, labels,
                              classes, n_classes)
    assert supports.shape == (n_classes, 3, len(patterns))
    for slot, c in enumerate(classes):
        for b in range(3):
            flags = labels[b] == c
            expected = [int(flags[p.tidset.indices()].sum())
                        for p in patterns]
            assert supports[slot, b].tolist() == expected
