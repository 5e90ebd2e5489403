"""Property-based tests for correction procedures.

These check the decision-theoretic invariants: Bonferroni is never more
liberal than BH; every selected rule clears its threshold; BH's
step-up cut-off is one of the observed p-values or zero.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corrections import bh_step_up
from repro.corrections.by import benjamini_yekutieli, harmonic_number
from repro.corrections.stepwise import hochberg, holm
from repro.corrections.storey import q_values

p_lists = st.lists(
    st.floats(min_value=1e-12, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=80)
alphas = st.floats(min_value=0.001, max_value=0.5)


@given(p_lists, alphas)
def test_bh_threshold_is_observed_or_zero(p_values, alpha):
    threshold = bh_step_up(p_values, alpha)
    assert threshold == 0.0 or threshold in p_values


@given(p_lists, alphas)
def test_bh_no_more_conservative_than_bonferroni(p_values, alpha):
    if not p_values:
        return
    n = len(p_values)
    bonferroni_cut = alpha / n
    bh_cut = bh_step_up(p_values, alpha)
    accepted_bc = sum(1 for p in p_values if p <= bonferroni_cut)
    accepted_bh = sum(1 for p in p_values if p <= bh_cut)
    assert accepted_bh >= accepted_bc


@given(p_lists, alphas)
def test_bh_selected_satisfy_bound(p_values, alpha):
    """Every accepted p-value satisfies p_(i) <= i*alpha/n for its rank."""
    threshold = bh_step_up(p_values, alpha)
    if threshold == 0.0:
        return
    ordered = sorted(p_values)
    n = len(p_values)
    k = sum(1 for p in ordered if p <= threshold)
    # Cross-multiplied form, matching the implementation's exact
    # boundary decision: the divided form ``p <= k * alpha / n`` can
    # lose an ulp to the division and reject an exact tie (e.g.
    # ``p == alpha`` with ``k == n``, where ``n * alpha / n != alpha``
    # in floats).
    assert ordered[k - 1] * n <= k * alpha


def _bh_step_up_loop(p_values, alpha, n_tests=None):
    """The one-p-value-at-a-time step-up that ``bh_step_up``
    vectorises: the oracle of its cut-off."""
    n = n_tests if n_tests is not None else len(p_values)
    threshold = 0.0
    for i, p in enumerate(sorted(p_values), start=1):
        if p * n <= i * alpha:
            threshold = p
    return threshold


@st.composite
def _tied_p_lists(draw):
    """P-values among which some sit exactly on a critical value
    ``k * alpha / n`` (and its neighbouring doubles), plus n_tests."""
    alpha = draw(alphas)
    p_values = draw(p_lists)
    n = len(p_values) + draw(st.integers(0, 5))
    for _ in range(draw(st.integers(0, 6))):
        k = draw(st.integers(1, max(1, n)))
        tie = k * alpha / max(1, n)
        p_values.append(draw(st.sampled_from(
            (tie, math.nextafter(tie, 0.0), math.nextafter(tie, 1.0)))))
        n = max(n, len(p_values))
    return p_values, alpha, n


@given(_tied_p_lists())
def test_bh_equals_loop_oracle(case):
    p_values, alpha, n = case
    assert bh_step_up(p_values, alpha, n) == \
        _bh_step_up_loop(p_values, alpha, n)
    assert bh_step_up(p_values, alpha) == \
        _bh_step_up_loop(p_values, alpha)


@given(p_lists, alphas, alphas)
def test_bh_monotone_in_alpha(p_values, a1, a2):
    lo, hi = sorted((a1, a2))
    assert bh_step_up(p_values, lo) <= bh_step_up(p_values, hi)


@given(p_lists, alphas)
def test_bh_invariant_under_permutation(p_values, alpha):
    forward = bh_step_up(p_values, alpha)
    backward = bh_step_up(list(reversed(p_values)), alpha)
    assert forward == backward


@given(st.integers(min_value=0, max_value=30),
       st.integers(min_value=1, max_value=60), alphas)
def test_bonferroni_threshold_scales(n_extra, n_tests, alpha):
    """Adding hypotheses can only lower the Bonferroni threshold."""
    assert alpha / (n_tests + n_extra) <= alpha / n_tests


class _PValueSet:
    """A duck-typed rule set of bare p-values."""

    def __init__(self, p_values):
        self._p_values = list(p_values)
        self.rules = [SimpleNamespace(p_value=p) for p in self._p_values]
        self.n_tests = len(self._p_values)

    def p_values(self):
        return self._p_values


def _holm_loop(p_values, alpha):
    n, threshold = len(p_values), 0.0
    for i, p in enumerate(sorted(p_values), start=1):
        if p * (n - i + 1) > alpha:
            break
        threshold = p
    return threshold


def _hochberg_loop(p_values, alpha):
    n, ordered = len(p_values), sorted(p_values)
    for i in range(n, 0, -1):
        if ordered[i - 1] * (n - i + 1) <= alpha:
            return ordered[i - 1]
    return 0.0


def _by_loop(p_values, alpha):
    n, threshold = len(p_values), 0.0
    c_m = harmonic_number(n)
    for i, p in enumerate(sorted(p_values), start=1):
        if p <= i * alpha / (n * c_m):
            threshold = p
    return threshold


def _q_values_loop(p_values, pi0):
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    out, running = [0.0] * m, 1.0
    for rank in range(m, 0, -1):
        index = order[rank - 1]
        running = min(running, pi0 * m * p_values[index] / rank)
        out[index] = running
    return out


@given(_tied_p_lists())
def test_stepwise_thresholds_equal_loop_oracles(case):
    """Holm, Hochberg and BY decide on the p-value column exactly as
    the one-p-value-at-a-time loops they replaced."""
    p_values, alpha, _ = case
    if not p_values:
        return
    ruleset = _PValueSet(p_values)
    for procedure, oracle in ((holm, _holm_loop),
                              (hochberg, _hochberg_loop),
                              (benjamini_yekutieli, _by_loop)):
        result = procedure(ruleset, alpha)
        assert result.threshold == oracle(p_values, alpha)
        assert [r.p_value for r in result.significant] == \
            [p for p in p_values if p <= result.threshold]


@given(p_lists, st.floats(min_value=0.01, max_value=1.0))
def test_q_values_equal_loop_oracle(p_values, pi0):
    assert q_values(p_values, pi0=pi0) == _q_values_loop(p_values, pi0)
