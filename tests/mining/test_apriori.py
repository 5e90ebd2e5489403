"""Unit tests for the Apriori baseline miner."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.errors import MiningError
from repro.mining import mine_apriori

from .. import bigint_oracle as bs


def _brute_force(tidsets, n_records, min_sup, max_length=None):
    """All frequent itemsets by exhaustive enumeration."""
    n_items = len(tidsets)
    out = {}
    limit = max_length or n_items
    for k in range(1, limit + 1):
        for combo in combinations(range(n_items), k):
            tids = bs.universe(n_records)
            for item in combo:
                tids &= tidsets[item]
            if bs.popcount(tids) >= min_sup:
                out[frozenset(combo)] = tids
    return out


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_exhaustive_small(self, seed):
        rng = random.Random(seed)
        n_records = rng.randint(8, 20)
        n_items = rng.randint(2, 6)
        tidsets = []
        for _ in range(n_items):
            bits = 0
            for r in range(n_records):
                if rng.random() < 0.5:
                    bits |= 1 << r
            tidsets.append(bits)
        min_sup = rng.randint(1, 3)
        expected = _brute_force(tidsets, n_records, min_sup)
        got = {fp.items: fp.tidset.to_bigint()
               for fp in mine_apriori(bs.to_tidvectors(tidsets, n_records),
                                      n_records, min_sup)}
        assert got == expected


class TestBehaviour:
    def test_supports_correct(self):
        tidsets = [0b1110, 0b0111, 0b1010]
        for fp in mine_apriori(bs.to_tidvectors(tidsets, 4), 4, 1):
            expected = bs.universe(4)
            for item in fp.items:
                expected &= tidsets[item]
            assert fp.support == bs.popcount(expected)

    def test_max_length(self):
        tidsets = [0b111, 0b111, 0b111]
        patterns = mine_apriori(bs.to_tidvectors(tidsets, 3), 3, 1,
                                max_length=2)
        assert max(fp.length for fp in patterns) == 2

    def test_max_length_zero(self):
        assert mine_apriori(bs.to_tidvectors([0b1], 1), 1, 1,
                            max_length=0) == []

    def test_antimonotone(self):
        rng = random.Random(77)
        tidsets = []
        for _ in range(6):
            bits = 0
            for r in range(30):
                if rng.random() < 0.5:
                    bits |= 1 << r
            tidsets.append(bits)
        patterns = {fp.items: fp.support
                    for fp in mine_apriori(bs.to_tidvectors(tidsets, 30),
                                           30, 3)}
        for items, support in patterns.items():
            for item in items:
                subset = items - {item}
                if subset:
                    assert patterns[subset] >= support

    def test_invalid_min_sup(self):
        with pytest.raises(MiningError):
            mine_apriori(bs.to_tidvectors([0b1], 1), 1, 0)

    def test_no_frequent_items(self):
        assert mine_apriori(bs.to_tidvectors([0b1], 4), 4, 3) == []

    def test_level_order_output(self):
        tidsets = [0b1111, 0b1111, 0b1111]
        lengths = [fp.length for fp in
                   mine_apriori(bs.to_tidvectors(tidsets, 4), 4, 1)]
        assert lengths == sorted(lengths)
