"""The permutation engine ≡ the scalar reference in permutation_oracle.

The engine's min-p distribution, pooled counts and step-down counts
must equal the reference's exactly — on binary and multiclass rule
sets over the forest of every registered miner (the closed LCM tree,
the Apriori prefix tree, the representative reduction, and the
FP-growth oracle registered as a plugin miner), with the native
kernel suite loaded and hidden, and for permutation counts below, at
and above one native block. The
reference's ``fisher_two_tailed`` p-values (the paper's unbuffered
arm) must agree with its table lookups within rel 1e-9. Under the
chi2 scorer the engine must equal the reference driven by
``chi2_rule_p_value`` exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import _native
from repro.corrections import PermutationEngine
from repro.corrections.permutation import NATIVE_BATCH_ROWS
from repro.data import GeneratorConfig, generate
from repro.mining import generate_rules, mine_class_rules, mine_patterns

from .permutation_oracle import (
    permutation_p_values,
    reference,
    rule_supports,
    statistics,
)
from ..fpgrowth_oracle import registered_fpgrowth

PERMUTATION_COUNTS = (1, NATIVE_BATCH_ROWS, NATIVE_BATCH_ROWS + 3)


MINERS = ("closed", "apriori", "fpgrowth", "representative")
CLASS_COUNTS = {"binary": 2, "3-class": 3}


@pytest.fixture(scope="module", autouse=True)
def fpgrowth_plugin():
    """The FP-growth oracle, registered as the plugin miner
    ``"fpgrowth"`` while this module runs."""
    with registered_fpgrowth():
        yield


@pytest.fixture(scope="module",
                params=[(shape, miner) for miner in MINERS
                        for shape in CLASS_COUNTS],
                ids=lambda param: param[0] if param[1] == "closed"
                else f"{param[0]}-{param[1]}")
def ruleset(request):
    return _ruleset(*request.param)


@pytest.fixture(scope="module", params=tuple(CLASS_COUNTS))
def closed_ruleset(request):
    """The closed miner's rule sets only: for checks of the reference
    itself, which do not depend on the forest's shape."""
    return _ruleset(request.param, "closed")


def _ruleset(shape, miner):
    config = GeneratorConfig(
        n_records=240, n_attributes=8, n_rules=1,
        n_classes=CLASS_COUNTS[shape], min_coverage=40, max_coverage=60,
        min_confidence=0.8, max_confidence=0.9)
    dataset = generate(config, seed=77).dataset
    patterns = mine_patterns(dataset, 15, algorithm=miner)
    return generate_rules(dataset, patterns, 15)


@pytest.fixture(scope="module")
def reference_rows(ruleset):
    """The reference's p-value rows for the largest permutation count.

    Labelling ``t`` is drawn from the ``t``-th spawned child of the
    seed whatever the count, so the first ``n`` rows are exactly the
    rows of an ``n``-permutation reference run; one scalar pass serves
    every count and both dispatch paths.
    """
    return permutation_p_values(ruleset, max(PERMUTATION_COUNTS), seed=4)


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
def test_engine_matches_reference(ruleset, reference_rows, native,
                                  n_permutations):
    expected = statistics([rule.p_value for rule in ruleset.rules],
                          reference_rows[:n_permutations])
    actual = _engine_statistics(ruleset, native,
                                n_permutations=n_permutations, seed=4)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_direct_pvalues_agree_with_cache(closed_ruleset):
    cached = permutation_p_values(closed_ruleset, 6, seed=2,
                                  pvalue="cache")
    direct = permutation_p_values(closed_ruleset, 6, seed=2,
                                  pvalue="direct")
    for cached_row, direct_row in zip(cached, direct):
        assert direct_row == pytest.approx(cached_row, rel=1e-9)


@pytest.mark.parametrize("native", (True, False),
                         ids=("native", "numpy"))
def test_chi2_engine_matches_scalar_chi2_reference(native):
    """Under ``chi2`` the null p-values are chi-square too: the
    engine's statistics equal the reference's, whose every p-value is
    a fresh ``chi2_rule_p_value`` call."""
    config = GeneratorConfig(
        n_records=240, n_attributes=8, n_rules=1, min_coverage=40,
        max_coverage=60, min_confidence=0.8, max_confidence=0.9)
    ruleset = mine_class_rules(generate(config, seed=77).dataset,
                               min_sup=15, scorer="chi2")
    expected = reference(ruleset, NATIVE_BATCH_ROWS + 3, seed=4,
                         pvalue="direct")
    actual = _engine_statistics(ruleset, native,
                                n_permutations=NATIVE_BATCH_ROWS + 3,
                                seed=4)
    for got, want in zip(actual, expected):
        assert np.array_equal(got, want)


def test_identity_labelling_reproduces_rule_supports(ruleset):
    labels = np.array(ruleset.dataset.class_labels, dtype=np.int64)
    assert rule_supports(ruleset, labels) == \
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
