"""The rule scorers against an independent implementation.

The bit-identity tests prove the numpy tables equal the scalar code
they replaced; a bug both share would pass them. This checks each
scorer against scipy, which computes tails with its own code, for n up
to 10^5:

* ``fisher_two_tailed`` against ``scipy.stats.fisher_exact``;
* ``fisher_two_tailed_midp`` against ``fisher_exact`` minus half of
  ``scipy.stats.hypergeom.pmf`` at the observed support;
* ``chi2_rule_p_value`` against ``scipy.stats.chi2_contingency`` without
  continuity correction, on tables with no zero marginal (scipy rejects
  those; this library scores them 1).

Draws are weighted toward the two regimes where the table path is most
fragile:

* large n with ``L = 0`` and a coverage big enough that the recurrence
  seed ``H(0)`` underflows, so the table is built in log space;
* ``n_c = n/2``, where the two flanks tie pairwise and the walk's tie
  grouping decides the answer.

scipy groups ties within a relative 1e-14 where this library uses 1e-7,
so the comparison is relative (1e-6), with an absolute floor for
p-values below 1e-300 that neither side represents accurately.
"""

from __future__ import annotations

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, fisher_exact, hypergeom

from repro.stats import (
    chi2_rule_p_value,
    fisher_two_tailed,
    fisher_two_tailed_midp,
    support_bounds,
)


@st.composite
def fisher_cases(draw):
    regime = draw(st.sampled_from(
        ["underflow", "underflow", "symmetric", "symmetric", "any"]))
    if regime == "underflow":
        n = draw(st.integers(min_value=4000, max_value=100_000))
        n_c = draw(st.integers(min_value=n // 10, max_value=9 * n // 10))
        # supp_x <= n - n_c puts L at 0; (1 - n_c/n)^supp_x < 1e-330
        # makes H(0) underflow.
        smallest = math.ceil(760 / -math.log1p(-n_c / n))
        assume(smallest <= n - n_c)
        supp_x = draw(st.integers(min_value=smallest, max_value=n - n_c))
    elif regime == "symmetric":
        n = 2 * draw(st.integers(min_value=1, max_value=50_000))
        n_c = n // 2
        supp_x = draw(st.integers(min_value=0, max_value=n))
    else:
        n = draw(st.integers(min_value=1, max_value=100_000))
        n_c = draw(st.integers(min_value=0, max_value=n))
        supp_x = draw(st.integers(min_value=0, max_value=n))
    low, high = support_bounds(n, n_c, supp_x)
    # Half the draws sit within a few outcomes of either end, where
    # the p-values are smallest.
    span = min(high - low, 5)
    supp_r = draw(st.one_of(
        st.integers(min_value=low, max_value=high),
        st.integers(min_value=low, max_value=low + span),
        st.integers(min_value=high - span, max_value=high)))
    return n, n_c, supp_x, supp_r


def _table(case):
    n, n_c, supp_x, supp_r = case
    return [[supp_r, supp_x - supp_r],
            [n_c - supp_r, n - n_c - supp_x + supp_r]]


def _assert_close(case, ours, theirs):
    assert math.isclose(ours, theirs, rel_tol=1e-6, abs_tol=1e-300), (
        case, ours, theirs)


@given(fisher_cases())
@settings(max_examples=300, deadline=None)
def test_two_tailed_matches_scipy(case):
    n, n_c, supp_x, supp_r = case
    ours = fisher_two_tailed(supp_r, n, n_c, supp_x)
    theirs = float(fisher_exact(_table(case),
                                alternative="two-sided").pvalue)
    _assert_close(case, ours, theirs)


@given(fisher_cases())
@settings(max_examples=300, deadline=None)
def test_midp_matches_scipy(case):
    n, n_c, supp_x, supp_r = case
    ours = fisher_two_tailed_midp(supp_r, n, n_c, supp_x)
    two_tailed = float(fisher_exact(_table(case),
                                    alternative="two-sided").pvalue)
    mass = float(hypergeom.pmf(supp_r, n, n_c, supp_x))
    _assert_close(case, ours, max(0.0, two_tailed - 0.5 * mass))


@given(fisher_cases())
@settings(max_examples=300, deadline=None)
def test_chi2_matches_scipy(case):
    n, n_c, supp_x, supp_r = case
    assume(0 < n_c < n and 0 < supp_x < n)
    ours = chi2_rule_p_value(supp_r, n, n_c, supp_x)
    theirs = float(chi2_contingency(_table(case),
                                    correction=False).pvalue)
    _assert_close(case, ours, theirs)
