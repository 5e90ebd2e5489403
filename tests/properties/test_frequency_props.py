"""Property-based tests for the frequency-significance subsystem and
its distribution substrates."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frequency import NullModel, calibrate_cutoff
from repro.frequency.nullmodel import pattern_null_probability
from repro.stats.binomial import (
    binomial_cdf,
    binomial_pmf,
    binomial_sf,
    binomial_test_upper,
)
from repro.stats.poisson import poisson_cdf, poisson_sf, poisson_test_upper

from .. import bigint_oracle as bs

probabilities = st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False)
small_n = st.integers(min_value=0, max_value=80)
means = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)


# ----------------------------------------------------------------------
# binomial
# ----------------------------------------------------------------------

@given(small_n, probabilities)
def test_binomial_pmf_sums_to_one(n, p):
    total = sum(binomial_pmf(k, n, p) for k in range(n + 1))
    assert abs(total - 1.0) < 1e-9


@given(small_n, probabilities)
def test_binomial_cdf_sf_complementary(n, p):
    for k in range(0, n + 1, max(1, n // 6)):
        assert abs(binomial_cdf(k, n, p)
                   + binomial_sf(k, n, p) - 1.0) < 1e-9


@given(small_n, probabilities)
def test_binomial_cdf_monotone(n, p):
    values = [binomial_cdf(k, n, p) for k in range(n + 1)]
    for a, b in zip(values, values[1:]):
        assert a <= b + 1e-12


@given(small_n, probabilities)
def test_binomial_upper_test_antitone(n, p):
    values = [binomial_test_upper(k, n, p) for k in range(n + 1)]
    for a, b in zip(values, values[1:]):
        assert a >= b - 1e-12


@given(small_n, probabilities)
def test_binomial_upper_test_equals_tail_sum(n, p):
    if n == 0:
        return
    k = n // 2
    tail = sum(binomial_pmf(i, n, p) for i in range(k, n + 1))
    assert abs(binomial_test_upper(k, n, p) - min(1.0, tail)) < 1e-9


# ----------------------------------------------------------------------
# poisson
# ----------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=60), means)
def test_poisson_cdf_sf_complementary(k, mean):
    assert abs(poisson_cdf(k, mean) + poisson_sf(k, mean) - 1.0) < 1e-9


@given(means)
def test_poisson_upper_test_antitone(mean):
    values = [poisson_test_upper(k, mean) for k in range(40)]
    for a, b in zip(values, values[1:]):
        assert a >= b - 1e-12


@given(st.integers(min_value=0, max_value=40), means)
def test_poisson_tails_in_unit_interval(k, mean):
    assert 0.0 <= poisson_cdf(k, mean) <= 1.0
    assert 0.0 <= poisson_sf(k, mean) <= 1.0


# ----------------------------------------------------------------------
# null model
# ----------------------------------------------------------------------

@given(st.lists(probabilities, min_size=1, max_size=8))
def test_pattern_probability_in_unit_interval(frequencies):
    items = list(range(len(frequencies)))
    value = pattern_null_probability(frequencies, items)
    assert 0.0 <= value <= 1.0


@given(st.lists(probabilities, min_size=2, max_size=8))
def test_adding_an_item_never_raises_probability(frequencies):
    items = list(range(len(frequencies)))
    shorter = pattern_null_probability(frequencies, items[:-1])
    longer = pattern_null_probability(frequencies, items)
    assert longer <= shorter + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=4, max_value=30),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**16))
def test_null_sample_stays_in_universe(n_records, n_items, seed):
    rng = random.Random(seed)
    tidsets = []
    for __ in range(n_items):
        bits = 0
        for r in range(n_records):
            if rng.random() < 0.5:
                bits |= 1 << r
        tidsets.append(bits)
    model = NullModel(bs.to_tidvectors(tidsets, n_records), n_records)
    sampled = model.sample_tidsets(random.Random(seed + 1))
    limit = bs.universe(n_records)
    assert len(sampled) == n_items
    for bits in sampled:
        assert bits.to_bigint() & ~limit == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=1, max_value=4))
def test_calibration_always_meets_budget(seed, n_resamples):
    rng = random.Random(seed)
    n_records = 40
    tidsets = []
    for __ in range(5):
        bits = 0
        for r in range(n_records):
            if rng.random() < 0.5:
                bits |= 1 << r
        tidsets.append(bits)
    calibration = calibrate_cutoff(
        bs.to_tidvectors(tidsets, n_records), n_records, min_sup=4,
        n_resamples=n_resamples,
        seed=seed)
    assert calibration.expected_false_positives(
        calibration.threshold) <= calibration.false_positive_budget
