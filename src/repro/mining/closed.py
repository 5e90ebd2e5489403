"""Closed frequent pattern mining (Section 3 of the paper).

The paper mines *closed* frequent patterns as rule left-hand sides: a
closed pattern is the unique longest pattern among all patterns
occurring in the same set of records, so using closed patterns removes
rules that are exact duplicates (same coverage, same confidence, same
p-value) of another rule.

The miner is a depth-first walk of the set-enumeration tree (Rymon
1992) using LCM-style *prefix-preserving closure extension* (Uno et
al.), which enumerates every closed frequent pattern exactly once with
no global duplicate checking:

* the closure of a tidset ``T`` is the set of all frequent items whose
  tidset contains ``T``;
* a closed pattern ``P`` with core position ``i`` is extended by each
  item position ``j > i`` not already in ``P``; the closure ``Q`` of
  ``P + {j}`` is kept only when its members below position ``j`` match
  ``P``'s — otherwise ``Q`` is reachable from a lexicographically
  earlier branch and is pruned here.

The enumeration runs directly on the packed vertical view. With the
native kernel suite loaded (:mod:`repro._native`) the whole walk is
one ``repro_lcm_mine`` call per pass — a count pass sizes the outputs
exactly, a fill pass writes them — so no Python runs per node; the
tidsets come back as rows of one read-only arena (row 0 is the root)
that the permutation engine's :class:`~repro.bitmat.BitMatrix` adopts
without a copy. Without the suite the Python walk below runs the same
LCM: per node, one vectorized candidate-support join
(:meth:`~repro.mining.tidsets.VerticalView.candidate_supports`) and
one ``tids & ~row`` closure pass per surviving candidate
(:meth:`~repro.mining.tidsets.VerticalView.superset_positions`). It
is also the oracle of the native walk: both emit the same nodes in
the same order. One DEBUG record per mine on the ``repro.mining``
logger names the walk that ran (with the suite's status for the
Python walk).

Every emitted node records its tree parent, which Diffsets storage
(Section 4.2.2) relies on.
"""

from __future__ import annotations

import ctypes
import logging
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import _native
from ..errors import MiningError
from ..tidvector import TidVector, arena_rows
from .patterns import Pattern
from .tidsets import VerticalView, build_vertical_view

__all__ = ["ClosedPattern", "mine_closed", "mine_closed_from_view",
           "iter_pattern_tree"]

_LOG = logging.getLogger("repro.mining")

#: Nodes converted to :class:`ClosedPattern` per ``tolist`` batch.
_BUILD_CHUNK = 4096


class ClosedPattern(Pattern):
    """One node of the closed-pattern enumeration tree.

    A :class:`~repro.mining.patterns.Pattern` whose ``items`` are
    additionally *closed*: the unique longest pattern among all
    patterns with the same tidset. Field semantics are inherited
    unchanged (dense DFS ``node_id``, ``parent_id`` of the tree
    parent, ``items``, ``tidset``, ``support``, ``depth``).
    """


def mine_closed(
    item_tidsets: Sequence,
    n_records: int,
    min_sup: int,
    max_length: Optional[int] = None,
    item_order: str = "support-ascending",
) -> List[ClosedPattern]:
    """Mine all closed frequent patterns from per-item tidsets.

    Parameters
    ----------
    item_tidsets:
        ``item_tidsets[i]`` is the packed record set
        (:class:`~repro.tidvector.TidVector`) of records containing
        item ``i``, as stored by :class:`repro.data.Dataset`; bigint
        bitsets are accepted for interop and coerced once.
    n_records:
        Number of records ``n``.
    min_sup:
        Minimum coverage; patterns below it are pruned (anti-monotone).
    max_length:
        Optional cap on pattern length; a closed pattern longer than
        the cap is not emitted and its branch is not explored.
    item_order:
        Mining order heuristic, see
        :func:`repro.mining.tidsets.build_vertical_view`.

    Returns
    -------
    list of :class:`ClosedPattern` in DFS order. The root node (the
    closure of the empty pattern — non-empty only when some item occurs
    in every record) is always first; rule generation skips patterns
    with no items.
    """
    view = build_vertical_view(item_tidsets, n_records, min_sup, item_order)
    return mine_closed_from_view(view, max_length=max_length)


def mine_closed_from_view(
    view: VerticalView,
    max_length: Optional[int] = None,
) -> List[ClosedPattern]:
    """Mine closed patterns from a prepared :class:`VerticalView`.

    The walk runs in one native call when the kernel suite is loaded
    and in Python otherwise; both emit the same nodes in the same
    order. One DEBUG record on the ``repro.mining`` logger names the
    walk that ran.
    """
    if max_length is not None and max_length < 0:
        raise MiningError("max_length must be non-negative")
    n = view.n_records
    if n < view.min_sup:
        return []

    root_tids = TidVector.universe(n)
    root_positions = tuple(int(p)
                           for p in view.superset_positions(root_tids))
    if max_length is not None and len(root_positions) > max_length:
        return []
    suite = _native.load_suite()
    if suite is not None:
        patterns = _walk_native(suite, view, root_tids, root_positions,
                                max_length)
        _LOG.debug("closed walk: native, %d patterns", len(patterns))
        return patterns
    patterns = _walk_python(view, root_tids, root_positions, max_length)
    _LOG.debug("closed walk: python (native kernels %s), %d patterns",
               _native.native_status(), len(patterns))
    return patterns


def _walk_native(
    suite: _native.KernelSuite,
    view: VerticalView,
    root_tids: TidVector,
    root_positions: Tuple[int, ...],
    max_length: Optional[int],
) -> List[ClosedPattern]:
    """The whole walk in one ``repro_lcm_mine`` call per pass.

    A count pass sizes the outputs exactly and a fill pass writes
    them: one read-only tidset arena (row 0 is the root), int64
    parent/depth/support and CSR int32 closure positions.
    """
    matrix = np.ascontiguousarray(view.matrix, dtype=np.uint64)
    m, n_words = matrix.shape
    if n_words == 0 or m >= 2 ** 31:
        raise MiningError(f"cannot walk a {m} x {n_words}-word view")
    root = np.asarray(root_positions, dtype=np.int32)
    counts = np.zeros(2, dtype=np.int64)
    inputs = (_ptr(matrix, ctypes.c_uint64), m, n_words, view.min_sup,
              -1 if max_length is None else max_length,
              _ptr(root_tids.words, ctypes.c_uint64),
              _ptr(root, ctypes.c_int32), len(root))
    _check_walk(suite.lcm_mine(*inputs, None, None, None, None, None,
                               None, 0, 0, _ptr(counts, ctypes.c_int64)))
    n_nodes, n_positions = int(counts[0]), int(counts[1])
    arena = np.empty((n_nodes, n_words), dtype=np.uint64)
    parent = np.empty(n_nodes, dtype=np.int64)
    depth = np.empty(n_nodes, dtype=np.int64)
    support = np.empty(n_nodes, dtype=np.int64)
    positions = np.empty(n_positions, dtype=np.int32)
    offsets = np.empty(n_nodes + 1, dtype=np.int64)
    _check_walk(suite.lcm_mine(
        *inputs, _ptr(arena, ctypes.c_uint64),
        _ptr(parent, ctypes.c_int64), _ptr(depth, ctypes.c_int64),
        _ptr(support, ctypes.c_int64), _ptr(positions, ctypes.c_int32),
        _ptr(offsets, ctypes.c_int64), n_nodes, n_positions,
        _ptr(counts, ctypes.c_int64)))
    arena.flags.writeable = False

    # Chunked conversion keeps the transient ``tolist`` lists small.
    item_ids = np.asarray(view.item_ids, dtype=np.int64)
    out: List[ClosedPattern] = []
    for start in range(0, n_nodes, _BUILD_CHUNK):
        stop = min(start + _BUILD_CHUNK, n_nodes)
        base = offsets[start]
        items = item_ids[positions[base:offsets[stop]]].tolist()
        bounds = (offsets[start:stop + 1] - base).tolist()
        rows = arena_rows(arena[start:stop], view.n_records)
        for k, (parent_id, node_depth, node_support) in enumerate(zip(
                parent[start:stop].tolist(), depth[start:stop].tolist(),
                support[start:stop].tolist())):
            out.append(ClosedPattern(
                node_id=start + k, parent_id=parent_id,
                items=frozenset(items[bounds[k]:bounds[k + 1]]),
                tidset=rows[k], support=node_support, depth=node_depth,
            ))
    return out


def _ptr(array: np.ndarray, ctype):
    return array.ctypes.data_as(ctypes.POINTER(ctype))


def _check_walk(status: int) -> None:
    if status == -1:
        raise MemoryError("closed walk: native scratch allocation failed")
    if status != 0:
        raise MiningError(f"closed walk: native kernel status {status}")


def _walk_python(
    view: VerticalView,
    root_tids: TidVector,
    root_positions: Tuple[int, ...],
    max_length: Optional[int],
) -> List[ClosedPattern]:
    """The walk in Python: the no-compiler fallback and the oracle."""
    out: List[ClosedPattern] = []
    root_items = frozenset(view.item_ids[p] for p in root_positions)
    out.append(ClosedPattern(
        node_id=0, parent_id=-1, items=root_items, tidset=root_tids,
        support=view.n_records, depth=0,
    ))

    # Iterative DFS. A stack entry describes a *not yet emitted* closed
    # pattern: (positions, tidset, core position, parent node id,
    # depth). Children are pushed in descending extension order so pops
    # explore ascending item positions, matching the recursive LCM.
    stack: List[Tuple[Tuple[int, ...], TidVector, int, int, int]] = []
    _push_children(stack, root_positions, root_tids, -1, 0, 0,
                   view, max_length)
    while stack:
        positions, tids, _core, parent_id, depth = stack.pop()
        node_id = len(out)
        items = frozenset(view.item_ids[p] for p in positions)
        out.append(ClosedPattern(
            node_id=node_id, parent_id=parent_id, items=items,
            tidset=tids, support=tids.count(), depth=depth,
        ))
        _push_children(stack, positions, tids, _core, node_id, depth,
                       view, max_length)
    return out


def _push_children(
    stack: List[Tuple[Tuple[int, ...], TidVector, int, int, int]],
    positions: Tuple[int, ...],
    tids: TidVector,
    core: int,
    node_id: int,
    depth: int,
    view: VerticalView,
    max_length: Optional[int],
) -> None:
    """Push every prefix-preserving closure extension of one node."""
    tidsets = view.tidsets
    m = view.n_items
    min_sup = view.min_sup
    member = set(positions)
    # One fused AND+popcount pass over the candidate block replaces the
    # per-candidate intersection_count loop; pruned branches never
    # allocate a tidset.
    counts = view.candidate_supports(tids, core + 1)
    for j in range(m - 1, core, -1):
        if j in member:
            continue
        if counts[j - core - 1] < min_sup:
            continue
        new_tids = tids & tidsets[j]
        closure = tuple(int(p)
                        for p in view.superset_positions(new_tids))
        if not _prefix_preserved(closure, positions, j):
            continue
        if max_length is not None and len(closure) > max_length:
            continue
        stack.append((closure, new_tids, j, node_id, depth + 1))


def _prefix_preserved(closure: Sequence[int], positions: Sequence[int],
                      j: int) -> bool:
    """LCM duplicate check: closure and parent agree below position j."""
    closure_prefix = [p for p in closure if p < j]
    parent_prefix = [p for p in positions if p < j]
    return closure_prefix == parent_prefix


def iter_pattern_tree(patterns: Sequence[ClosedPattern]
                      ) -> Iterator[Tuple[ClosedPattern, ClosedPattern]]:
    """Yield ``(parent, child)`` pairs of the enumeration tree."""
    for pattern in patterns:
        if pattern.parent_id >= 0:
            yield patterns[pattern.parent_id], pattern
