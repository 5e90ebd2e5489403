"""Record-id storage for pattern forests (Section 4.2.2 + packed kernel).

The permutation approach re-scores every rule on every permutation,
which needs ``supp_c(X)`` — the number of class-``c`` records containing
``X`` — for every mined pattern and every shuffled labelling. Storing
each pattern's full record-id list makes that a per-pattern scan;
Diffsets (Zaki & Gouda, SIGKDD 2003) exploit the enumeration tree: when
a child's support is more than half its parent's, storing only the
*difference* (records in the parent but not the child) is smaller, and
``supp_c(child) = supp_c(parent) - |diff ∩ class c|``.

:class:`PatternForest` implements two storage policies:

* ``"packed"`` (default) — this library's fastest representation: all
  tidsets packed into one ``(n_nodes, ceil(n_records/64))`` uint64
  :class:`~repro.bitmat.BitMatrix`, class supports via hardware
  popcounts over the whole forest at once (and over whole *batches* of
  labellings at once — see :meth:`class_supports_batch`);
* ``"diffsets"`` — the paper's rule: full record-id list when
  ``supp(X) <= supp(parent)/2``, otherwise the diffset; class supports
  via one id gather and ``np.add.reduceat`` per labelling.

Both count exact integers, so their results are bit-identical; they
differ only in storage footprint and wall-clock speed
(``docs/performance.md`` has measurements and guidance). Callers who
do not want to choose may request ``"auto"``, which resolves to
``"packed"`` or ``"diffsets"`` from the forest's shape at construction
(:func:`resolve_auto_policy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..bitmat import BitMatrix, andnot_counts
from ..errors import MiningError
from ..tidvector import TidVector, as_tidvector
from .patterns import Pattern

__all__ = ["PatternForest", "ForestStats", "POLICIES", "POLICY_CHOICES",
           "DEFAULT_POLICY", "resolve_auto_policy"]

POLICIES = ("diffsets", "packed")

#: What callers may request: every storage policy plus ``"auto"``,
#: which resolves to one of :data:`POLICIES` at forest construction
#: (see :func:`resolve_auto_policy`).
POLICY_CHOICES = POLICIES + ("auto",)

#: The policy used when callers do not pick one.
DEFAULT_POLICY = "packed"

#: Below this record count a packed row is a handful of uint64 words,
#: so the popcount kernels win at any density (BENCH_kernels.json:
#: per-shape timings show no gather-path crossover under ~4k records).
AUTO_MIN_RECORDS = 4096

#: Mean tidset density below which the gather path (``"diffsets"``)
#: overtakes the packed popcount sweep. The packed kernels touch every
#: word of every row (``n_nodes * n_records / 64`` word ops per
#: labelling) regardless of density; the gather path touches only the
#: stored ids, each roughly an order of magnitude costlier than a
#: word op. The measured crossover sits near one set bit per eight
#: words (BENCH_kernels.json sparse shapes).
AUTO_DENSITY_CROSSOVER = 1.0 / 512


def resolve_auto_policy(n_nodes: int, n_records: int,
                        total_ids: int) -> str:
    """Pick a storage policy from the forest's shape.

    ``total_ids`` is the summed support of all nodes (the ids full
    record-id lists would store); ``total_ids / (n_nodes *
    n_records)`` is the mean tidset density. Dense or small shapes go
    ``"packed"`` (hardware popcounts over contiguous words); very
    sparse forests over wide record sets go ``"diffsets"``, whose
    per-id gather work shrinks with density while the packed sweep
    does not. Crossover constants come from the committed
    ``BENCH_kernels.json`` per-shape timings, and both policies are
    bit-identical, so the choice only ever affects speed.
    """
    if n_nodes <= 0 or n_records < AUTO_MIN_RECORDS:
        return "packed"
    density = total_ids / (n_nodes * n_records)
    if density < AUTO_DENSITY_CROSSOVER:
        return "diffsets"
    return "packed"


@dataclass(frozen=True)
class ForestStats:
    """Storage accounting for one forest (drives the Fig 4 ablation)."""

    policy: str
    n_nodes: int
    full_nodes: int
    diff_nodes: int
    stored_ids: int
    full_policy_ids: int

    @property
    def compression_ratio(self) -> float:
        """ids full record-id lists would store divided by ids
        actually stored."""
        if self.stored_ids == 0:
            return 1.0
        return self.full_policy_ids / self.stored_ids


class PatternForest:
    """Record-id storage for an enumeration tree of patterns.

    Parameters
    ----------
    patterns:
        DFS-ordered pattern forest (parents precede children, child
        tidsets subsets of their parent's): a raw
        :func:`repro.mining.closed.mine_closed` list or a
        :class:`~repro.mining.patterns.PatternSet` from any registered
        miner — all-frequent sets arrive as prefix trees that satisfy
        the same contract.
    n_records:
        Number of records in the mined dataset.
    policy:
        One of :data:`POLICY_CHOICES` (default
        :data:`DEFAULT_POLICY`). ``"auto"`` resolves through
        :func:`resolve_auto_policy` at construction; the requested
        string stays visible as ``requested_policy`` and the resolved
        one as ``policy``.
    """

    def __init__(self, patterns: Sequence[Pattern], n_records: int,
                 policy: str = DEFAULT_POLICY) -> None:
        if policy not in POLICY_CHOICES:
            raise MiningError(
                f"unknown storage policy {policy!r}; pick from "
                f"{POLICY_CHOICES}")
        for v, pattern in enumerate(patterns):
            if pattern.parent_id >= v:
                raise MiningError(
                    "patterns must be in DFS order (parent before child)")
        self.requested_policy = policy
        self.n_records = n_records
        self.n_nodes = len(patterns)
        self._supports = np.array([p.support for p in patterns],
                                  dtype=np.int64)
        self._parents = np.array([p.parent_id for p in patterns],
                                 dtype=np.int64)
        if policy == "auto":
            policy = resolve_auto_policy(
                self.n_nodes, n_records, int(self._supports.sum()))
        self.policy = policy
        self._matrix: Optional[BitMatrix] = None
        self._id_lists: Optional[List[np.ndarray]] = None
        self._is_diff: Optional[np.ndarray] = None
        full_ids = int(self._supports.sum())
        if policy == "packed":
            # Zero-copy adoption of the miners' packed tidsets: one
            # contiguous stack of already-packed uint64 rows (bigint
            # rows from plugins are converted, interop only).
            try:
                self._matrix = BitMatrix.from_tidsets(
                    [p.tidset for p in patterns], n_records)
            except ValueError as exc:
                raise MiningError(str(exc)) from exc
            stored = full_ids
            full_nodes, diff_nodes = self.n_nodes, 0
        else:
            self._id_lists, self._is_diff = self._build_id_lists(patterns)
            self._build_segments()
            stored = sum(len(ids) for ids in self._id_lists)
            diff_nodes = int(self._is_diff.sum())
            full_nodes = self.n_nodes - diff_nodes
        self.stats = ForestStats(
            policy=policy, n_nodes=self.n_nodes, full_nodes=full_nodes,
            diff_nodes=diff_nodes, stored_ids=stored,
            full_policy_ids=full_ids,
        )

    #: Unpacked-bit budget per decode block (bytes); keeps the blocked
    #: id-list decode cache-resident regardless of forest size.
    _DECODE_BLOCK_BYTES = 2 ** 25

    def _build_id_lists(self, patterns: Sequence[Pattern]):
        """Materialize the stored id list of every node, vectorized.

        The stored rows (full tidsets, or parent-minus-child diffs
        where the paper's rule applies) are assembled word-wise over
        the whole forest at once — the diff rows through one
        ``a & ~b`` arena pass sized by the
        :func:`~repro.bitmat.andnot_counts` kernel — then decoded to
        ascending int32 ids block by block, replacing the historical
        per-node Python loop.
        """
        is_diff = np.zeros(len(patterns), dtype=bool)
        n = self.n_records
        if not patterns:
            return [], is_diff
        arena = np.stack([as_tidvector(p.tidset, n).words
                          for p in patterns])
        supports = self._supports
        parents = self._parents
        has_parent = parents >= 0
        # The paper's rule: a child keeping more than half of its
        # parent's records stores only the difference.
        is_diff[has_parent] = (
            2 * supports[has_parent] > supports[parents[has_parent]])
        stored = arena
        counts = supports.astype(np.int64, copy=True)
        diff_rows = np.flatnonzero(is_diff)
        if diff_rows.size:
            stored = arena.copy()
            stored[diff_rows] = (arena[parents[diff_rows]]
                                 & ~arena[diff_rows])
            counts[diff_rows] = andnot_counts(
                arena[parents[diff_rows]], arena[diff_rows])
        id_lists: List[np.ndarray] = []
        row_bytes = max(1, stored.shape[1] * 64)
        block = max(1, self._DECODE_BLOCK_BYTES // row_bytes)
        for start in range(0, len(patterns), block):
            chunk = stored[start:start + block]
            flags = np.unpackbits(chunk.view(np.uint8), axis=1,
                                  bitorder="little")[:, :n]
            # nonzero is row-major, so ids come out grouped by node in
            # ascending record order; the per-row bit counts are the
            # split boundaries.
            ids = np.nonzero(flags)[1].astype(np.int32)
            bounds = np.cumsum(counts[start:start + chunk.shape[0]])
            id_lists.extend(np.split(ids, bounds[:-1]))
        return id_lists, is_diff

    def _build_segments(self) -> None:
        """Concatenate the id lists for one-reduceat class counting.

        ``indicator[concat][starts[v]:starts[v]+lengths[v]].sum()`` is
        node ``v``'s stored-id count; ``np.add.reduceat`` computes all
        of them in one C pass instead of a per-node Python loop.
        """
        assert self._id_lists is not None and self._is_diff is not None
        lengths = np.fromiter((len(ids) for ids in self._id_lists),
                              dtype=np.int64, count=self.n_nodes)
        starts = (np.concatenate(([0], np.cumsum(lengths)[:-1]))
                  if self.n_nodes else np.empty(0, dtype=np.int64))
        # Only non-empty segments reach reduceat: their starts are
        # strictly increasing and in range, which sidesteps both
        # reduceat quirks (an empty segment yields the element at its
        # start instead of zero, and a trailing empty segment's start
        # falls off the array — clipping it would silently truncate
        # the previous segment's sum). Empty segments scatter to 0.
        self._nonempty = lengths > 0
        self._nonempty_starts = starts[self._nonempty].astype(np.intp)
        self._concat_ids = (np.concatenate(self._id_lists)
                            if self.n_nodes and int(lengths.sum())
                            else np.empty(0, dtype=np.int32))
        self._diff_order = np.flatnonzero(self._is_diff)

    def _stored_counts(self, indicator: np.ndarray) -> np.ndarray:
        """Per-node count of stored ids hitting ``indicator`` (int64).

        One fancy index plus one ``np.add.reduceat`` over the
        concatenated id lists of the non-empty segments, scattered
        back to node positions (empty segments count zero).
        """
        counts = np.zeros(self.n_nodes, dtype=np.int64)
        if self._concat_ids.size == 0:
            return counts
        values = indicator.astype(np.int64)[self._concat_ids]
        counts[self._nonempty] = np.add.reduceat(
            values, self._nonempty_starts)
        return counts

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def supports(self) -> np.ndarray:
        """Coverage of every node (int64 array, DFS order)."""
        return self._supports

    @property
    def matrix(self) -> Optional[BitMatrix]:
        """The packed kernel (``None`` unless ``policy == "packed"``)."""
        return self._matrix

    def class_supports(self, class_indicator: np.ndarray) -> np.ndarray:
        """``supp_c(X)`` for every node under one labelling.

        ``class_indicator`` is a boolean array of length ``n_records``
        marking the records of class ``c``. The labelling may be the
        original one or any permutation — item tidsets never change
        (Section 4.2.1), so only this argument varies across
        permutations.
        """
        indicator = np.asarray(class_indicator, dtype=bool)
        if indicator.shape != (self.n_records,):
            raise MiningError(
                f"class indicator must have shape ({self.n_records},)")
        if self.policy == "packed":
            assert self._matrix is not None
            return self._matrix.class_supports(indicator)
        assert self._is_diff is not None
        out = self._stored_counts(indicator)
        # Diffset nodes store the complement relative to their parent:
        # supp_c(v) = supp_c(parent) - |diff ∩ c|. Parents precede
        # children, so resolving in index order sees final parents;
        # only the diff nodes need the (short) Python walk.
        parents = self._parents
        for v in self._diff_order:
            out[v] = out[parents[v]] - out[v]
        return out

    def class_supports_batch(self, class_indicators: np.ndarray,
                             ) -> np.ndarray:
        """``(B, n_nodes)`` class supports for ``B`` labellings at once.

        Row ``b`` equals ``class_supports(class_indicators[b])``. Under
        the ``"packed"`` policy the whole batch is one kernel dispatch
        (the batched permutation pass's hot kernel, see
        :meth:`repro.bitmat.BitMatrix.class_supports_batch`); the
        ``"diffsets"`` policy answers row by row.
        """
        indicators = np.asarray(class_indicators, dtype=bool)
        if indicators.ndim != 2 \
                or indicators.shape[1] != self.n_records:
            raise MiningError(
                f"class indicators must have shape "
                f"(B, {self.n_records})")
        if self.policy == "packed":
            assert self._matrix is not None
            return self._matrix.class_supports_batch(indicators)
        if indicators.shape[0] == 0:
            return np.zeros((0, self.n_nodes), dtype=np.int64)
        return np.stack([self.class_supports(row)
                         for row in indicators])

    def class_supports_multi(self, class_indicators: np.ndarray,
                             ) -> np.ndarray:
        """``(C, B, n_nodes)`` supports: all classes, all labellings.

        ``class_indicators[c, b]`` marks the records labelled class
        ``c`` under labelling ``b``; the result's ``[c, b]`` row equals
        ``class_supports(class_indicators[c, b])``. Under the
        ``"packed"`` policy the whole class-by-batch block is one
        kernel dispatch (:meth:`repro.bitmat.BitMatrix.
        class_supports_multi`) instead of one call per class — the
        multiclass permutation pass's entry point; ``"diffsets"``
        flattens through :meth:`class_supports_batch`.
        """
        indicators = np.asarray(class_indicators, dtype=bool)
        if indicators.ndim != 3 \
                or indicators.shape[2] != self.n_records:
            raise MiningError(
                f"class indicators must have shape "
                f"(C, B, {self.n_records})")
        if self.policy == "packed":
            assert self._matrix is not None
            return self._matrix.class_supports_multi(indicators)
        n_classes, n_batch = indicators.shape[:2]
        flat = indicators.reshape(n_classes * n_batch, self.n_records)
        return self.class_supports_batch(flat).reshape(
            n_classes, n_batch, self.n_nodes)

    def tidset(self, node_id: int) -> TidVector:
        """Reconstruct the tidset of one node (either policy)."""
        if self.policy == "packed":
            assert self._matrix is not None
            return self._matrix.tidvector(node_id)
        assert self._id_lists is not None and self._is_diff is not None
        stored = TidVector.from_indices(self._id_lists[node_id],
                                        self.n_records)
        if not self._is_diff[node_id]:
            return stored
        return self.tidset(int(self._parents[node_id])).andnot(stored)
