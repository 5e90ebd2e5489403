"""Unit tests for deterministic shard seeding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.parallel import (
    root_sequence,
    shard_slices,
    slice_sequences,
    spawn_sequences,
)


def _generators(root, n):
    return [np.random.default_rng(child)
            for child in spawn_sequences(root, n)]


class TestShardSlices:
    def test_partitions_exactly(self):
        for n_items in (0, 1, 7, 16, 100):
            for n_shards in (1, 3, 4, 16):
                slices = shard_slices(n_items, n_shards)
                covered = [i for start, stop in slices
                           for i in range(start, stop)]
                assert covered == list(range(n_items))

    def test_balanced_within_one(self):
        sizes = [stop - start for start, stop in shard_slices(10, 4)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 10

    def test_never_more_shards_than_items(self):
        assert len(shard_slices(3, 16)) == 3
        assert shard_slices(0, 4) == []

    def test_invalid_shard_count(self):
        with pytest.raises(ReproError):
            shard_slices(10, 0)


class TestSpawning:
    def test_same_seed_same_streams(self):
        a = _generators(root_sequence(42), 5)
        b = _generators(root_sequence(42), 5)
        for ga, gb in zip(a, b):
            assert (ga.permutation(20) == gb.permutation(20)).all()

    def test_children_differ_from_each_other(self):
        gens = _generators(root_sequence(0), 3)
        draws = [tuple(g.permutation(50)) for g in gens]
        assert len(set(draws)) == 3

    def test_unit_seed_independent_of_shard_layout(self):
        """Unit t's child is the same whether sliced into 1 or 4
        shards — the invariant behind worker-count determinism."""
        children = spawn_sequences(root_sequence(7), 12)
        one = slice_sequences(children, shard_slices(12, 1))
        four = slice_sequences(children, shard_slices(12, 4))
        flat_four = [seq for shard in four for seq in shard]
        for a, b in zip(one[0], flat_four):
            assert a.entropy == b.entropy
            assert a.spawn_key == b.spawn_key

    def test_negative_spawn_rejected(self):
        with pytest.raises(ReproError):
            spawn_sequences(root_sequence(0), -1)

