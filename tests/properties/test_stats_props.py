"""Property-based tests for the statistics substrate.

Invariants checked here are the ones the correction machinery silently
relies on: the p-value buffer equals the definitional Fisher test for
every reachable support, p-values are valid probabilities, and the
two-tailed test dominates each one-tailed test.
"""

from __future__ import annotations

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.stats import (
    PValueBuffer,
    chi2_sf,
    fisher_two_tailed,
    pmf_table,
    support_bounds,
)


@st.composite
def rule_parameters(draw):
    n = draw(st.integers(min_value=2, max_value=200))
    n_c = draw(st.integers(min_value=0, max_value=n))
    supp_x = draw(st.integers(min_value=0, max_value=n))
    low, high = max(0, n_c + supp_x - n), min(n_c, supp_x)
    k = draw(st.integers(min_value=low, max_value=high))
    return n, n_c, supp_x, k


@given(rule_parameters())
def test_pvalue_is_probability(params):
    n, n_c, supp_x, k = params
    p = fisher_two_tailed(k, n, n_c, supp_x)
    assert 0.0 < p <= 1.0


@given(rule_parameters())
def test_two_tailed_at_least_each_tail_mass_beyond(params):
    """p_two >= P(more extreme on the observed side)."""
    n, n_c, supp_x, k = params
    low, _ = support_bounds(n, n_c, supp_x)
    table = pmf_table(n, n_c, supp_x)
    p_two = fisher_two_tailed(k, n, n_c, supp_x)
    right = sum(table[k - low:])
    left = sum(table[:k - low + 1])
    assert p_two >= min(left, right) - 1e-12


@given(rule_parameters())
def test_observed_outcome_always_counted(params):
    """p includes at least pmf(k) itself."""
    n, n_c, supp_x, k = params
    low, _ = support_bounds(n, n_c, supp_x)
    table = pmf_table(n, n_c, supp_x)
    assert fisher_two_tailed(k, n, n_c, supp_x) >= \
        table[k - low] * (1 - 1e-9)


@given(rule_parameters())
@settings(max_examples=60)
def test_buffer_equals_definition(params):
    """Buffer lookups must equal the sum over E = {j: H(j) <= H(k)}."""
    n, n_c, supp_x, k = params
    low, high = support_bounds(n, n_c, supp_x)
    table = pmf_table(n, n_c, supp_x)
    buffer = PValueBuffer(n, n_c, supp_x)
    h_k = table[k - low]
    expected = sum(h for h in table if h <= h_k * (1.0 + 1e-7))
    assert buffer.p_value(k) == min(expected, 1.0) or \
        abs(buffer.p_value(k) - min(expected, 1.0)) < 1e-9


@given(rule_parameters())
def test_pmf_sums_to_one(params):
    n, n_c, supp_x, _ = params
    assert math.isclose(sum(pmf_table(n, n_c, supp_x)), 1.0,
                        rel_tol=1e-9)


@given(st.integers(min_value=2, max_value=400),
       st.integers(min_value=1, max_value=399))
def test_monotone_in_confidence_upper_tail(n, supp_x):
    """For fixed coverage, higher support (above the mean) means a
    smaller or equal p-value — the Figure 1 shape."""
    assume(supp_x < n)
    n_c = n // 2
    low, high = support_bounds(n, n_c, supp_x)
    buffer = PValueBuffer(n, n_c, supp_x)
    mean = supp_x * n_c / n
    previous = None
    for k in range(int(math.ceil(mean)), high + 1):
        p = buffer.p_value(k)
        if previous is not None:
            assert p <= previous * (1 + 1e-9)
        previous = p


@given(st.floats(min_value=0.0, max_value=100.0),
       st.integers(min_value=1, max_value=20))
def test_chi2_sf_is_probability(x, dof):
    p = chi2_sf(x, dof)
    assert 0.0 <= p <= 1.0


@given(st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.01, max_value=50.0),
       st.integers(min_value=1, max_value=10))
def test_chi2_sf_monotone_decreasing(x1, x2, dof):
    lo, hi = sorted((x1, x2))
    assert chi2_sf(hi, dof) <= chi2_sf(lo, dof) + 1e-12
