"""Vertical data view: per-item tidsets filtered and ordered for mining.

Frequent pattern mining in this library is *vertical* (Zaki's Eclat
family): every item carries the packed record set of the records
containing it, and a pattern's tidset is the intersection of its
items' tidsets. This module prepares the vertical view a miner
consumes — infrequent items removed, remaining items ordered
(ascending support by default, which keeps the set-enumeration tree
small) — while remembering original item ids.

The view's tidsets are rows of one contiguous ``(m, n_words)`` uint64
``matrix``, so per-item operations are word-wise numpy ops and
whole-view scans (closure checks, support counting) are single
vectorized passes over the matrix (:func:`~repro.bitmat.superset_mask`
for the closure check, the batched popcount kernel of
:mod:`repro.bitmat` for candidate support joins). The native closed
walk (:mod:`repro.mining.closed`) reads ``matrix`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..bitmat import intersection_counts, superset_mask
from ..errors import MiningError
from ..tidvector import TidVector, arena_rows, as_tidvector, words_for

__all__ = ["VerticalView", "build_vertical_view"]


@dataclass
class VerticalView:
    """Frequent items with their tidsets, in mining order.

    ``item_ids[p]`` is the original catalog id of the item at mining
    position ``p``; ``tidsets[p]`` its packed record set (a view over
    row ``p`` of ``matrix``); ``supports[p]`` its support.
    ``order_of`` maps original id back to position.
    """

    n_records: int
    min_sup: int
    item_ids: List[int]
    tidsets: List[TidVector]
    supports: List[int]
    order_of: Dict[int, int]
    #: Packed ``(n_items, n_words)`` uint64 stack of the tidsets.
    matrix: np.ndarray

    @property
    def n_items(self) -> int:
        """Number of frequent items in the view."""
        return len(self.item_ids)

    def pattern_tidset(self, positions: Sequence[int]) -> TidVector:
        """Intersect the tidsets at the given mining positions."""
        positions = list(positions)
        if not positions:
            return TidVector.universe(self.n_records)
        words = self.matrix[positions[0]].copy()
        for p in positions[1:]:
            np.bitwise_and(words, self.matrix[p], out=words)
            if not words.any():
                break
        return TidVector(words, self.n_records)

    def superset_positions(self, tids: TidVector) -> np.ndarray:
        """Positions of every item whose tidset contains ``tids``.

        The closure primitive: one word-wise pass over the whole
        matrix (``tids & ~row == 0`` per row,
        :func:`~repro.bitmat.superset_mask`), ascending order.
        """
        if self.matrix.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(superset_mask(self.matrix, tids.words))

    def candidate_supports(self, tids: TidVector,
                           start: int = 0) -> np.ndarray:
        """``|tids ∩ tidsets[p]|`` for every position ``p >= start``.

        The enumeration join: one batched hardware-popcount pass over
        the candidate block of the matrix (the same fused kernel the
        permutation pass counts with) instead of a per-candidate
        Python ``intersection_count`` loop. Entry ``i`` of the result
        is the support of extending by position ``start + i``.
        """
        return intersection_counts(self.matrix[start:], tids.words)


def build_vertical_view(
    item_tidsets: Sequence,
    n_records: int,
    min_sup: int,
    order: str = "support-ascending",
) -> VerticalView:
    """Filter items by ``min_sup`` and order them for mining.

    ``item_tidsets`` entries are :class:`~repro.tidvector.TidVector`
    values, checked here: the single entry point shared by all
    miners.

    Parameters
    ----------
    order:
        ``"support-ascending"`` (default; least frequent items first,
        the classic heuristic that minimizes tree width near the root),
        ``"support-descending"``, or ``"original"``.
    """
    if min_sup < 1:
        raise MiningError(f"min_sup must be >= 1, got {min_sup}")
    if n_records < 1:
        raise MiningError("n_records must be positive")
    try:
        vectors = [as_tidvector(t, n_records) for t in item_tidsets]
    except (TypeError, ValueError) as exc:
        raise MiningError(str(exc)) from exc
    all_supports = [v.count() for v in vectors]
    frequent = [(item_id, all_supports[item_id])
                for item_id in range(len(vectors))
                if all_supports[item_id] >= min_sup]
    if order == "support-ascending":
        frequent.sort(key=lambda t: (t[1], t[0]))
    elif order == "support-descending":
        frequent.sort(key=lambda t: (-t[1], t[0]))
    elif order != "original":
        raise MiningError(f"unknown item order {order!r}")
    item_ids = [f[0] for f in frequent]
    supports = [f[1] for f in frequent]
    matrix = (np.stack([vectors[i].words for i in item_ids])
              if item_ids else
              np.zeros((0, words_for(n_records)), dtype=np.uint64))
    tidsets = arena_rows(matrix, n_records)
    order_of = {item_id: p for p, item_id in enumerate(item_ids)}
    return VerticalView(
        n_records=n_records,
        min_sup=min_sup,
        item_ids=item_ids,
        tidsets=tidsets,
        supports=supports,
        order_of=order_of,
        matrix=matrix,
    )
