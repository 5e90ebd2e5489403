"""Unit tests for Fisher's exact test (paper Section 2.2)."""

from __future__ import annotations

import random

import pytest

scipy_stats = pytest.importorskip("scipy.stats")

from repro.errors import StatsError
from repro.stats import fisher_two_tailed, min_attainable_p_value


class TestTwoTailed:
    def test_matches_scipy_randomized(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(4, 250)
            n_c = rng.randint(0, n)
            sx = rng.randint(0, n)
            low = max(0, n_c + sx - n)
            high = min(n_c, sx)
            k = rng.randint(low, high)
            table = [[k, sx - k], [n_c - k, n - n_c - sx + k]]
            ours = fisher_two_tailed(k, n, n_c, sx)
            theirs = scipy_stats.fisher_exact(table)[1]
            assert ours == pytest.approx(theirs, rel=1e-7, abs=1e-12)

    def test_independence_gives_high_p(self):
        # Perfectly proportional table: observed = expected.
        assert fisher_two_tailed(50, 200, 100, 100) == pytest.approx(
            1.0, abs=0.2)

    def test_perfect_association_is_extreme(self):
        p = fisher_two_tailed(50, 100, 50, 50)
        assert p < 1e-25

    def test_paper_low_coverage_example(self):
        # Section 2.3: n=1000, supp(c)=500, supp(X)=5, conf=1 -> p=0.062.
        p = fisher_two_tailed(5, 1000, 500, 5)
        assert p == pytest.approx(0.062, abs=0.002)

    def test_paper_low_confidence_example(self):
        # Section 2.3: conf=0.55 with supp(X)=200 -> p = 0.133.
        p = fisher_two_tailed(110, 1000, 500, 200)
        assert p == pytest.approx(0.133, abs=0.005)

    def test_impossible_support_rejected(self):
        with pytest.raises(StatsError):
            fisher_two_tailed(7, 20, 11, 6)
        with pytest.raises(StatsError):
            fisher_two_tailed(0, 10, 8, 7)  # lower bound is 5


class TestContingency:
    def test_equivalent_parametrizations(self):
        # The 2x2 table [[8, 2], [3, 7]] is the rule n=20, n_c=11,
        # supp(X)=10, supp(R)=8.
        assert fisher_two_tailed(8, 20, 11, 10) == pytest.approx(
            scipy_stats.fisher_exact([[8, 2], [3, 7]])[1])


class TestBounds:
    def test_min_attainable_decreases_with_coverage(self):
        values = [min_attainable_p_value(1000, 500, sx)
                  for sx in (5, 10, 20, 40, 70, 100)]
        assert values == sorted(values, reverse=True)

    def test_min_attainable_is_lower_bound(self):
        n, n_c, sx = 200, 80, 30
        floor = min_attainable_p_value(n, n_c, sx)
        low = max(0, n_c + sx - n)
        high = min(n_c, sx)
        for k in range(low, high + 1):
            assert fisher_two_tailed(k, n, n_c, sx) >= floor * (1 - 1e-12)
