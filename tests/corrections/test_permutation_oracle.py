"""The permutation engine ≡ the scalar reference in permutation_oracle.

The engine's min-p distribution, pooled counts and step-down counts
must equal the reference's exactly — on binary and multiclass rule
sets, with the native kernel suite loaded and hidden, and for
permutation counts below, at and above one native block. The
reference's ``fisher_two_tailed`` p-values (the paper's unbuffered
arm) must agree with its ``BufferCache`` ones within rel 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import _native
from repro.corrections import PermutationEngine
from repro.corrections.permutation import NATIVE_BATCH_ROWS
from repro.data import GeneratorConfig, generate
from repro.mining import mine_class_rules
from repro.mining.diffsets import PatternForest

from .permutation_oracle import (
    permutation_p_values,
    reference,
    rule_supports,
    statistics,
)

PERMUTATION_COUNTS = (1, NATIVE_BATCH_ROWS, NATIVE_BATCH_ROWS + 3)


@pytest.fixture(scope="module", params=(2, 3), ids=("binary", "3-class"))
def ruleset(request):
    config = GeneratorConfig(
        n_records=240, n_attributes=8, n_rules=1,
        n_classes=request.param, min_coverage=40, max_coverage=60,
        min_confidence=0.8, max_confidence=0.9)
    return mine_class_rules(generate(config, seed=77).dataset,
                            min_sup=15)


def _engine_statistics(ruleset, native, **options):
    with pytest.MonkeyPatch.context() as patch:
        if not native:
            patch.setattr(_native, "load_suite", lambda: None)
        engine = PermutationEngine(ruleset, **options)
        engine.run()
    if native and not engine._native:
        pytest.skip(f"native kernel suite unavailable "
                    f"({_native.native_status()})")
    assert engine._native is native
    return (engine._min_p, engine._pooled_counts,
            engine._stepdown_counts)


@pytest.mark.parametrize("native", (True, False),
                         ids=("native", "numpy"))
@pytest.mark.parametrize("n_permutations", PERMUTATION_COUNTS)
def test_engine_matches_reference(ruleset, native, n_permutations):
    expected = reference(ruleset, n_permutations, seed=4)
    actual = _engine_statistics(ruleset, native,
                                n_permutations=n_permutations, seed=4)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_direct_pvalues_agree_with_cache(ruleset):
    cached = permutation_p_values(ruleset, 6, seed=2, pvalue="cache")
    direct = permutation_p_values(ruleset, 6, seed=2, pvalue="direct")
    for cached_row, direct_row in zip(cached, direct):
        assert direct_row == pytest.approx(cached_row, rel=1e-9)


def test_identity_labelling_reproduces_rule_supports(ruleset):
    forest = PatternForest(ruleset.patterns,
                           ruleset.dataset.n_records)
    labels = np.array(ruleset.dataset.class_labels, dtype=np.int64)
    assert rule_supports(forest, ruleset, labels) == \
        [rule.support for rule in ruleset.rules]


def test_statistics_by_hand():
    # Observed [0.2, 0.05, 0.5] ranks rules 1, 0, 2.
    observed = [0.2, 0.05, 0.5]
    perm_p = [[0.3, 0.04, 0.9], [0.6, 0.7, 0.1]]
    min_p, pooled, stepdown = statistics(observed, perm_p)
    assert min_p.tolist() == [0.04, 0.1]
    # p <= 0.05: {0.04}; p <= 0.2: {0.04, 0.1}; p <= 0.5: + {0.3}.
    assert pooled.tolist() == [1, 2, 3]
    # Suffix minima in rank order — labelling 0: [0.04, 0.3, 0.9];
    # labelling 1: [0.1, 0.1, 0.1].
    assert stepdown.tolist() == [1, 1, 1]


def test_statistics_without_rules():
    min_p, pooled, stepdown = statistics([], [[], []])
    assert min_p.tolist() == [1.0, 1.0]
    assert len(pooled) == len(stepdown) == 0
