"""Unit tests for the log-factorial buffer (paper Section 4.2.3, Bf)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import StatsError
from repro.stats import LogFactorialBuffer, default_buffer, log_binomial


class TestLogFactorial:
    def test_base_cases(self):
        buf = LogFactorialBuffer(0)
        assert buf.log_factorial(0) == 0.0
        assert buf.log_factorial(1) == pytest.approx(0.0)

    def test_small_values_exact(self):
        buf = LogFactorialBuffer()
        for k, expected in [(2, 2), (3, 6), (4, 24), (5, 120), (10, 3628800)]:
            assert buf.log_factorial(k) == pytest.approx(math.log(expected))

    def test_matches_lgamma(self):
        buf = LogFactorialBuffer()
        for k in (17, 100, 1000, 5000):
            assert buf.log_factorial(k) == pytest.approx(
                math.lgamma(k + 1), rel=1e-12)

    def test_grows_on_demand(self):
        buf = LogFactorialBuffer(2)
        assert buf.capacity == 2
        buf.log_factorial(50)
        assert buf.capacity >= 50

    def test_negative_rejected(self):
        with pytest.raises(StatsError):
            LogFactorialBuffer().log_factorial(-1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(StatsError):
            LogFactorialBuffer(-3)

    def test_large_value_does_not_overflow(self):
        # 40000! overflows double; its log must not.
        value = LogFactorialBuffer().log_factorial(40000)
        assert math.isfinite(value)
        assert value == pytest.approx(math.lgamma(40001), rel=1e-12)


class TestLogBinomial:
    def test_known_coefficients(self):
        buf = LogFactorialBuffer()
        assert math.exp(buf.log_binomial(5, 2)) == pytest.approx(10)
        assert math.exp(buf.log_binomial(10, 5)) == pytest.approx(252)
        assert math.exp(buf.log_binomial(52, 5)) == pytest.approx(2598960)

    def test_edges(self):
        buf = LogFactorialBuffer()
        assert buf.log_binomial(7, 0) == pytest.approx(0.0)
        assert buf.log_binomial(7, 7) == pytest.approx(0.0)

    def test_out_of_range_is_zero_probability(self):
        buf = LogFactorialBuffer()
        assert buf.log_binomial(5, 6) == float("-inf")
        assert buf.log_binomial(5, -1) == float("-inf")

    def test_symmetry(self):
        buf = LogFactorialBuffer()
        for a, b in [(30, 4), (100, 17), (9, 3)]:
            assert buf.log_binomial(a, b) == pytest.approx(
                buf.log_binomial(a, a - b))

    def test_module_level_helper(self):
        assert math.exp(log_binomial(6, 3)) == pytest.approx(20)


class TestDefaultBuffer:
    def test_shared_instance(self):
        assert default_buffer() is default_buffer()

    def test_len_tracks_capacity(self):
        buf = LogFactorialBuffer(10)
        assert len(buf) == buf.capacity + 1


class TestThreadSafety:
    def test_concurrent_growth_stays_consistent(self):
        """Concurrent ensure() calls must serialize: an unlocked
        read-of-table[-1]-then-append loop interleaves into a table
        with wrong length and wrong entries."""
        import math
        import threading

        buf = LogFactorialBuffer(0)
        targets = [20_000 + 1_000 * i for i in range(8)]
        barrier = threading.Barrier(len(targets))

        def grow(n):
            barrier.wait()
            buf.ensure(n)

        threads = [threading.Thread(target=grow, args=(n,))
                   for n in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert buf.capacity == max(targets)
        assert len(buf) == max(targets) + 1
        for k in (1, 170, 20_000, max(targets)):
            assert buf.log_factorial(k) == pytest.approx(
                math.lgamma(k + 1), rel=1e-12)

    def test_concurrent_growth_and_array_reads_match_recurrence(self):
        """Eight threads grow the buffer and read its float64 mirror at
        once; every entry either view returns equals the sequential
        ``table[k-1] + log(k)`` recurrence, bit for bit."""
        import sys
        import threading

        top = 40_000
        expected = [0.0]
        for k in range(1, top + 1):
            expected.append(expected[-1] + math.log(k))
        expected_array = np.array(expected)

        buf = LogFactorialBuffer(0)
        barrier = threading.Barrier(8)
        failures = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            for n in sorted(rng.integers(1, top, size=40).tolist()):
                array = buf.as_array(n)
                if len(array) <= n or not np.array_equal(
                        array, expected_array[:len(array)]):
                    failures.append(("array", n))
                k = int(rng.integers(0, n + 1))
                if buf.log_factorial(k) != expected[k]:
                    failures.append(("scalar", k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        final = buf.as_array(top)
        assert np.array_equal(final, expected_array[:len(final)])
        with pytest.raises(ValueError):
            final[0] = 1.0  # read-only: growth replaces, never writes

    def test_buffer_pickles_without_its_lock(self):
        import pickle

        buf = LogFactorialBuffer(100)
        clone = pickle.loads(pickle.dumps(buf))
        assert clone.capacity == buf.capacity
        clone.ensure(200)  # the restored lock works
        assert clone.log_factorial(200) == pytest.approx(
            default_buffer().log_factorial(200))
