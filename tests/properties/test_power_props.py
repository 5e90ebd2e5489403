"""Property-based tests for the detectability calculator."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    detection_power,
    fisher_two_tailed,
    min_attainable_p_value,
    min_detectable_support,
    sequential_p_value,
)


@st.composite
def shapes(draw):
    """Random (n, n_c, supp_x) dataset shapes."""
    n = draw(st.integers(min_value=4, max_value=400))
    n_c = draw(st.integers(min_value=1, max_value=n - 1))
    supp_x = draw(st.integers(min_value=1, max_value=n))
    return n, n_c, supp_x


thresholds = st.floats(min_value=1e-8, max_value=1.0)


@given(shapes(), thresholds)
@settings(max_examples=80, deadline=None)
def test_min_detectable_support_is_tight(shape, threshold):
    """k_min clears the threshold and k_min - 1 (if reachable on the
    positive flank) does not."""
    n, n_c, supp_x = shape
    k_min = min_detectable_support(n, n_c, supp_x, threshold)
    if k_min is None:
        # Untestable: even the top of the range fails.
        top = min(n_c, supp_x)
        assert fisher_two_tailed(top, n, n_c, supp_x) > threshold
        return
    assert fisher_two_tailed(k_min, n, n_c, supp_x) <= threshold
    low = max(0, n_c + supp_x - n)
    if k_min - 1 >= low:
        assert fisher_two_tailed(k_min - 1, n, n_c, supp_x) > threshold


@given(shapes(), thresholds)
@settings(max_examples=60, deadline=None)
def test_untestable_iff_min_attainable_above_threshold(shape, threshold):
    n, n_c, supp_x = shape
    k_min = min_detectable_support(n, n_c, supp_x, threshold)
    floor = min_attainable_p_value(n, n_c, supp_x)
    if floor <= threshold:
        # The best-case p-value sits at one of the flanks; when it is
        # the positive flank the rule is detectable there.
        top = min(n_c, supp_x)
        if fisher_two_tailed(top, n, n_c, supp_x) <= threshold:
            assert k_min is not None
    else:
        assert k_min is None


@given(shapes(),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       thresholds)
@settings(max_examples=60, deadline=None)
def test_power_monotone_in_confidence(shape, conf_a, conf_b, threshold):
    n, n_c, supp_x = shape
    lo, hi = sorted((conf_a, conf_b))
    assert detection_power(n, n_c, supp_x, lo, threshold) \
        <= detection_power(n, n_c, supp_x, hi, threshold) + 1e-12


@given(shapes(), st.floats(min_value=0.0, max_value=1.0),
       thresholds, thresholds)
@settings(max_examples=60, deadline=None)
def test_power_monotone_in_threshold(shape, confidence, t_a, t_b):
    n, n_c, supp_x = shape
    lo, hi = sorted((t_a, t_b))
    assert detection_power(n, n_c, supp_x, confidence, lo) \
        <= detection_power(n, n_c, supp_x, confidence, hi) + 1e-12


@given(shapes(), st.floats(min_value=0.0, max_value=1.0), thresholds)
@settings(max_examples=60, deadline=None)
def test_power_is_probability(shape, confidence, threshold):
    n, n_c, supp_x = shape
    power = detection_power(n, n_c, supp_x, confidence, threshold)
    assert 0.0 <= power <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=10, max_value=200),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sequential_estimate_monotone_in_observed(obs_a, obs_b, h,
                                                  n_max, seed):
    """With the same draw stream, a less extreme observation never
    gets a smaller p-value estimate."""
    lo, hi = sorted((obs_a, obs_b))

    def run(observed):
        return sequential_p_value(
            observed, lambda rng: rng.random(), h=h, n_max=n_max,
            rng=np.random.default_rng(seed))

    assert run(hi).p_value >= run(lo).p_value - 1e-12


@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sequential_estimate_in_unit_interval(observed, h, n_max, seed):
    result = sequential_p_value(observed, lambda rng: rng.random(),
                                h=h, n_max=n_max, seed=seed)
    assert 0.0 < result.p_value <= 1.0
    assert 1 <= result.draws <= n_max
    assert result.exceedances <= result.draws
