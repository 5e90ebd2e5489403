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
that becomes the :class:`~repro.mining.patterns.PatternSet`'s
``matrix`` without a copy. Without the suite the Python walk below
runs the same LCM: per node, one vectorized candidate-support join
(:meth:`~repro.mining.tidsets.VerticalView.candidate_supports`) and
one ``tids & ~row`` closure pass per surviving candidate
(:meth:`~repro.mining.tidsets.VerticalView.superset_positions`). It
is also the oracle of the native walk. Both walks produce the same
five arrays — tidset rows, parent, support, CSR closure positions and
offsets — and one function turns them into the pattern set, so the
two emit the same columns in the same order. One DEBUG record per
mine on the ``repro.mining`` logger names the walk that ran (with the
suite's status for the Python walk).

The set's ``parent`` column holds every pattern's tree parent, which
Diffsets storage (Section 4.2.2) and the Section 7 reduction read.
"""

from __future__ import annotations

import ctypes
import logging
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import _native
from ..bitmat import BitMatrix
from ..errors import MiningError
from ..tidvector import TidVector
from .patterns import PatternSet
from .tidsets import VerticalView, build_vertical_view

__all__ = ["mine_closed", "mine_closed_from_view"]

_LOG = logging.getLogger("repro.mining")


def mine_closed(
    item_tidsets: Sequence,
    n_records: int,
    min_sup: int,
    max_length: Optional[int] = None,
    item_order: str = "support-ascending",
) -> PatternSet:
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
    :class:`~repro.mining.patterns.PatternSet` in DFS order, with its
    ``parent`` column. The root (the closure of the empty pattern —
    non-empty only when some item occurs in every record) is always
    first; rule generation skips patterns with no items.
    """
    view = build_vertical_view(item_tidsets, n_records, min_sup, item_order)
    return mine_closed_from_view(view, max_length=max_length)


def mine_closed_from_view(
    view: VerticalView,
    max_length: Optional[int] = None,
) -> PatternSet:
    """Mine closed patterns from a prepared :class:`VerticalView`.

    The walk runs in one native call when the kernel suite is loaded
    and in Python otherwise; both emit the same columns in the same
    order. One DEBUG record on the ``repro.mining`` logger names the
    walk that ran.
    """
    if max_length is not None and max_length < 0:
        raise MiningError("max_length must be non-negative")
    n = view.n_records
    root_tids = TidVector.universe(n)
    root_positions = tuple(int(p)
                           for p in view.superset_positions(root_tids))
    if n < view.min_sup or (max_length is not None
                            and len(root_positions) > max_length):
        return PatternSet.pack([], n, view.min_sup, parent=[])
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


def _pattern_set(view: VerticalView, arena: np.ndarray, parent: np.ndarray,
                 support: np.ndarray, positions: np.ndarray,
                 offsets: np.ndarray) -> PatternSet:
    """The walk's arrays as the pattern set: closure positions become
    item ids in one gather."""
    item_ids = np.asarray(view.item_ids, dtype=np.int64)
    return PatternSet(
        matrix=BitMatrix(arena, view.n_records), supports=support,
        item_ids=item_ids[positions], item_offsets=offsets,
        n_records=view.n_records, min_sup=view.min_sup, parent=parent)


def _walk_native(
    suite: _native.KernelSuite,
    view: VerticalView,
    root_tids: TidVector,
    root_positions: Tuple[int, ...],
    max_length: Optional[int],
) -> PatternSet:
    """The whole walk in one ``repro_lcm_mine`` call per pass.

    A count pass sizes the outputs exactly and a fill pass writes
    them: one read-only tidset arena (row 0 is the root), int64
    parent/support and CSR int32 closure positions.
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
                               0, 0, _ptr(counts, ctypes.c_int64)))
    n_nodes, n_positions = int(counts[0]), int(counts[1])
    arena = np.empty((n_nodes, n_words), dtype=np.uint64)
    parent = np.empty(n_nodes, dtype=np.int64)
    support = np.empty(n_nodes, dtype=np.int64)
    positions = np.empty(n_positions, dtype=np.int32)
    offsets = np.empty(n_nodes + 1, dtype=np.int64)
    _check_walk(suite.lcm_mine(
        *inputs, _ptr(arena, ctypes.c_uint64),
        _ptr(parent, ctypes.c_int64), _ptr(support, ctypes.c_int64),
        _ptr(positions, ctypes.c_int32),
        _ptr(offsets, ctypes.c_int64), n_nodes, n_positions,
        _ptr(counts, ctypes.c_int64)))
    arena.flags.writeable = False
    return _pattern_set(view, arena, parent, support, positions, offsets)


def _ptr(array: np.ndarray, ctype):
    return array.ctypes.data_as(ctypes.POINTER(ctype))


def _check_walk(status: int) -> None:
    if status == -1:
        raise MemoryError("closed walk: native scratch allocation failed")
    if status != 0:
        raise MiningError(f"closed walk: native kernel status {status}")


#: A pending node of the Python walk: (closure positions, tidset, core
#: position, parent position).
_Entry = Tuple[Tuple[int, ...], TidVector, int, int]


def _walk_python(
    view: VerticalView,
    root_tids: TidVector,
    root_positions: Tuple[int, ...],
    max_length: Optional[int],
) -> PatternSet:
    """The walk in Python: the no-compiler fallback and the oracle.

    It fills the native kernel's arrays, node by node.
    """
    rows = [root_tids.words]
    parent = [-1]
    support = [view.n_records]
    positions = list(root_positions)
    offsets = [0, len(positions)]

    # Iterative DFS over not yet emitted closed patterns. Children are
    # pushed in descending extension order so pops explore ascending
    # item positions, matching the recursive LCM.
    stack: List[_Entry] = []
    _push_children(stack, root_positions, root_tids, -1, 0, view,
                   max_length)
    while stack:
        closure, tids, core, parent_id = stack.pop()
        node = len(rows)
        rows.append(tids.words)
        parent.append(parent_id)
        support.append(tids.count())
        positions.extend(closure)
        offsets.append(len(positions))
        _push_children(stack, closure, tids, core, node, view,
                       max_length)
    return _pattern_set(view, np.stack(rows), np.array(parent),
                        np.array(support), np.array(positions, dtype=np.int64),
                        np.array(offsets))


def _push_children(
    stack: List[_Entry],
    positions: Tuple[int, ...],
    tids: TidVector,
    core: int,
    node: int,
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
        stack.append((closure, new_tids, j, node))


def _prefix_preserved(closure: Sequence[int], positions: Sequence[int],
                      j: int) -> bool:
    """LCM duplicate check: closure and parent agree below position j."""
    closure_prefix = [p for p in closure if p < j]
    parent_prefix = [p for p in positions if p < j]
    return closure_prefix == parent_prefix
