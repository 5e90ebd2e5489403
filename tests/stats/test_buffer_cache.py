"""Unit tests for the static+dynamic buffer cache (Section 4.2.3)."""

from __future__ import annotations

import pytest

from repro.errors import StatsError
from repro.stats import BufferCache, fisher_two_tailed


class TestCorrectness:
    def test_pvalues_match_fisher(self):
        cache = BufferCache(100, 40, min_sup=5)
        for supp_x in (5, 17, 40, 80):
            low = max(0, 40 + supp_x - 100)
            high = min(40, supp_x)
            for k in range(low, high + 1):
                assert cache.p_value(k, supp_x) == pytest.approx(
                    fisher_two_tailed(k, 100, 40, supp_x), rel=1e-9)

    def test_invalid_construction(self):
        with pytest.raises(StatsError):
            BufferCache(10, 11)
        with pytest.raises(StatsError):
            BufferCache(10, 5, min_sup=0)

    def test_out_of_range_coverage(self):
        cache = BufferCache(50, 20)
        with pytest.raises(StatsError):
            cache.buffer_for(51)


class TestTiers:
    def test_static_tier_hit_counting(self):
        cache = BufferCache(200, 100, min_sup=10)
        assert cache.max_sup >= 10
        cache.p_value(5, 10)
        cache.p_value(6, 10)
        cache.p_value(7, 10)
        assert cache.stats.static_misses == 1
        assert cache.stats.static_hits == 2

    def test_dynamic_tier_single_slot(self):
        # Tiny budget forces everything through the dynamic buffer.
        cache = BufferCache(200, 100, static_budget_bytes=0, min_sup=10)
        assert cache.max_sup < 10
        cache.p_value(5, 50)
        cache.p_value(6, 50)   # hit: same coverage
        cache.p_value(5, 60)   # miss: evicts 50
        cache.p_value(5, 50)   # miss again: single slot
        assert cache.stats.dynamic_hits == 1
        assert cache.stats.dynamic_misses == 3

    def test_static_budget_bounds_footprint(self):
        budget = 4096
        cache = BufferCache(1000, 500, static_budget_bytes=budget,
                            min_sup=10)
        for supp_x in range(10, cache.max_sup + 1):
            cache.buffer_for(supp_x)
        assert cache.static_nbytes <= budget

    def test_static_tier_footprint_is_what_it_reports(self):
        """``static_nbytes`` is what the tier really holds: filling the
        tier to its budget on a Mushroom-shaped null allocates at most
        1.1x the reported bytes (each table is one float64 array)."""
        import tracemalloc

        from repro.stats import LogFactorialBuffer

        logfact = LogFactorialBuffer(8124)
        logfact.as_array(8124)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = BufferCache(8124, 3916, static_budget_bytes=4 << 20,
                                min_sup=2000, logfact=logfact)
            for supp_x in range(cache.min_sup, cache.max_sup + 1):
                cache.buffer_for(supp_x)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cache.max_sup > cache.min_sup + 100
        assert cache.static_nbytes <= 4 << 20
        assert allocated <= 1.1 * cache.static_nbytes

    def test_no_optimization_mode_recomputes(self):
        cache = BufferCache(100, 40, use_static=False, use_dynamic=False)
        first = cache.buffer_for(20)
        second = cache.buffer_for(20)
        assert first is not second
        assert cache.stats.hit_rate == 0.0

    def test_disabled_static_routes_to_dynamic(self):
        cache = BufferCache(100, 40, use_static=False, use_dynamic=True)
        cache.p_value(3, 15)
        cache.p_value(4, 15)
        assert cache.stats.static_hits == 0
        assert cache.stats.dynamic_hits == 1

    def test_clear_preserves_counters(self):
        cache = BufferCache(100, 40, min_sup=5)
        cache.p_value(3, 10)
        cache.clear()
        assert cache.stats.total_lookups == 1
        assert cache.static_nbytes == 0

    def test_hit_rate_empty(self):
        cache = BufferCache(100, 40)
        assert cache.stats.hit_rate == 0.0


class TestMaxSupDerivation:
    def test_large_budget_covers_everything(self):
        cache = BufferCache(500, 250, static_budget_bytes=16 * 1024 * 1024,
                            min_sup=1)
        assert cache.max_sup == 500

    def test_budget_monotone(self):
        small = BufferCache(2000, 1000, static_budget_bytes=10_000,
                            min_sup=1)
        large = BufferCache(2000, 1000, static_budget_bytes=1_000_000,
                            min_sup=1)
        assert small.max_sup <= large.max_sup
