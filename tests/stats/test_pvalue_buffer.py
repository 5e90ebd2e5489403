"""Unit tests for the p-value buffer (paper Section 4.2.3, Figure 2)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import StatsError
from repro.stats import PValueBuffer, fisher_two_tailed, support_bounds


class TestFigure2Example:
    """The worked example from the paper: n=20, supp(c)=11, supp(X)=6."""

    def test_buffer_values(self):
        buf = PValueBuffer(20, 11, 6)
        expected = [0.0021672, 0.049845, 0.33591, 1.0000,
                    0.64241, 0.15712, 0.014087]
        assert buf.p_values() == pytest.approx(expected, rel=1e-4)

    def test_range(self):
        buf = PValueBuffer(20, 11, 6)
        assert (buf.low, buf.high) == (0, 6)
        assert len(buf) == 7

    def test_lookup_each_k(self):
        buf = PValueBuffer(20, 11, 6)
        assert buf.p_value(0) == pytest.approx(0.0021672, rel=1e-4)
        assert buf.p_value(3) == pytest.approx(1.0)
        assert buf.p_value(6) == pytest.approx(0.014087, rel=1e-4)


class TestAgainstDirectFisher:
    def test_every_entry_matches_fisher(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(4, 150)
            n_c = rng.randint(0, n)
            sx = rng.randint(0, n)
            buf = PValueBuffer(n, n_c, sx)
            low, high = support_bounds(n, n_c, sx)
            for k in range(low, high + 1):
                assert buf.p_value(k) == pytest.approx(
                    fisher_two_tailed(k, n, n_c, sx), rel=1e-9)

    def test_symmetric_null_ties(self):
        # n_c = n/2 makes H(k) symmetric: flank pairs are exact ties and
        # must include each other in the two-tailed sum.
        buf = PValueBuffer(100, 50, 20)
        values = buf.p_values()
        for offset in range(len(values) // 2):
            assert values[offset] == pytest.approx(values[-1 - offset],
                                                   rel=1e-9)
        # A tied pair's p-value includes both tails: strictly more than
        # one pmf value.
        from repro.stats import pmf
        assert values[0] == pytest.approx(
            pmf(buf.low, 100, 50, 20) + pmf(buf.high, 100, 50, 20),
            rel=1e-9)


class TestShapeProperties:
    def test_max_is_one(self):
        buf = PValueBuffer(50, 20, 15)
        assert max(buf.p_values()) == pytest.approx(1.0)

    def test_all_in_unit_interval(self):
        buf = PValueBuffer(123, 61, 40)
        for p in buf.p_values():
            assert 0.0 < p <= 1.0

    def test_unimodal_from_both_ends(self):
        # Walking inward from either end, p-values must not decrease
        # until the maximum is reached.
        values = PValueBuffer(80, 35, 25).p_values()
        peak = values.index(max(values))
        assert values[:peak + 1] == sorted(values[:peak + 1])
        assert values[peak:] == sorted(values[peak:], reverse=True)

    def test_out_of_range_lookup_rejected(self):
        buf = PValueBuffer(20, 11, 6)
        with pytest.raises(StatsError):
            buf.p_value(7)
        with pytest.raises(StatsError):
            buf.p_value(-1)

    def test_degenerate_single_outcome(self):
        # supp(X) = 0: only k=0 is reachable and p must be 1.
        buf = PValueBuffer(10, 4, 0)
        assert buf.p_values() == [1.0]

    def test_full_coverage_single_outcome(self):
        buf = PValueBuffer(10, 4, 10)
        assert buf.p_values() == [1.0]

    def test_nbytes_accounting(self):
        buf = PValueBuffer(20, 11, 6)
        assert buf.nbytes == 8 * 7 == buf.array.nbytes

    def test_table_is_a_read_only_float64_array(self):
        buf = PValueBuffer(20, 11, 6)
        assert buf.array.dtype == np.float64
        with pytest.raises(ValueError):
            buf.array[0] = 0.5
        assert type(buf.p_value(3)) is float
        assert all(type(p) is float for p in buf.p_values())

    def test_defensive_copy(self):
        buf = PValueBuffer(20, 11, 6)
        values = buf.p_values()
        values[0] = 42.0
        assert buf.p_value(0) != 42.0
