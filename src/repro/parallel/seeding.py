"""Deterministic seed derivation for sharded work.

The invariant every parallel caller in this library relies on: **the
random stream of work unit ``t`` depends only on the root seed and on
``t``** — never on which shard or worker executes it, and never on how
many shards exist. That is what makes results bit-identical for 1, 4
or 16 workers.

The mechanism is numpy's :class:`~numpy.random.SeedSequence`:
``SeedSequence(seed).spawn(n)`` derives ``n`` statistically
independent child sequences by spawn index. :func:`spawn_sequences`
spawns one child per *work unit* (e.g. per permutation), and
:func:`shard_slices` partitions the unit index range into contiguous
per-shard slices; a shard receives the child sequences of exactly the
units it executes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError

__all__ = ["root_sequence", "shard_slices", "slice_sequences",
           "spawn_sequences"]


def root_sequence(seed: Optional[int] = None) -> np.random.SeedSequence:
    """The root :class:`~numpy.random.SeedSequence` for ``seed``.

    ``None`` draws fresh OS entropy (a deliberately non-deterministic
    run).
    """
    return np.random.SeedSequence(seed)


def spawn_sequences(root: np.random.SeedSequence,
                    n: int) -> List[np.random.SeedSequence]:
    """``n`` independent child sequences, one per work unit."""
    if n < 0:
        raise ReproError(f"cannot spawn {n} seed sequences")
    return root.spawn(n)


def shard_slices(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` slices covering ``range(n_items)``.

    At most ``n_shards`` slices, sizes differing by at most one, empty
    slices dropped. The partition only affects *scheduling*; because
    seeds attach to unit indices, any partition yields identical
    results.
    """
    if n_shards < 1:
        raise ReproError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_items)
    if n_items == 0:
        return []
    base, extra = divmod(n_items, n_shards)
    slices = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def slice_sequences(children: Sequence[np.random.SeedSequence],
                    slices: Sequence[Tuple[int, int]],
                    ) -> List[List[np.random.SeedSequence]]:
    """The per-shard child sequences for :func:`shard_slices` output."""
    return [list(children[start:stop]) for start, stop in slices]
