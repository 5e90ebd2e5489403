"""Packed record sets: the library's native tidset representation.

A *tidset* — the set of record ids containing an item, a pattern or a
class label — is stored as a :class:`TidVector`: ``ceil(n / 64)``
little-endian ``uint64`` words (record ``i`` is bit ``i % 64`` of word
``i // 64``), usually a row view into a shared ``(n_sets, n_words)``
arena built once at ingest. Every layer of the library — ingest,
mining, rule scoring, the permutation/holdout corrections, the
classifiers — consumes this one representation, so the packed
:class:`~repro.bitmat.BitMatrix` kernels adopt mined tidsets without
any per-row conversion and set algebra runs as word-wise numpy
operations (``bitwise_and`` / ``bitwise_or`` / ``bitwise_count``, the
POPCNT instruction on x86) instead of bigint arithmetic.

The word layout is byte-identical to the little-endian bytes of a
bigint bitset; :meth:`TidVector.to_bigint` gives that bigint (the
property-test oracles compare against it). Operands and inputs are
TidVectors only: an int operand or tidset is a ``TypeError``.

All operations treat a TidVector as immutable and return new vectors;
row views never write through to their arena.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "TidVector",
    "as_tidvector",
    "pack_id_lists",
    "pack_pairs",
    "pack_bool_matrix",
    "unpack_arena",
    "arena_rows",
    "stack_tidvectors",
    "words_for",
]

#: Above this many cells a scatter into a dense bool matrix would
#: out-weigh its packbits savings; the reduceat path takes over.
_BOOL_SCATTER_BUDGET = 256 * 1024 * 1024

_UINT64 = np.dtype("<u8")
_ONE = np.uint64(1)


def words_for(n: int) -> int:
    """Number of uint64 words needed to hold ``n`` record bits."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return (n + 63) // 64


def _tail_mask(n: int, n_words: int) -> Optional[np.ndarray]:
    """Word array masking bits ``>= n`` (None when none exist)."""
    tail = n % 64
    if n_words == 0 or tail == 0:
        return None
    mask = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    mask[-1] = np.uint64((1 << tail) - 1)
    return mask


class TidVector:
    """A fixed-width packed set of record ids in ``[0, n)``.

    Parameters
    ----------
    words:
        1-D uint64 array of length ``words_for(n)``; bits at or above
        ``n`` must be zero (builders guarantee this).
    n:
        The universe size (number of records).
    """

    __slots__ = ("words", "n")

    def __init__(self, words: np.ndarray, n: int) -> None:
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 1 or words.shape[0] != words_for(n):
            raise ValueError(
                f"need {words_for(n)} words for {n} records, got shape "
                f"{words.shape}")
        self.words = words
        self.n = n

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "TidVector":
        """The empty set over ``n`` records."""
        return cls(np.zeros(words_for(n), dtype=np.uint64), n)

    @classmethod
    def universe(cls, n: int) -> "TidVector":
        """The set of every record id in ``[0, n)``."""
        n_words = words_for(n)
        words = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF),
                        dtype=np.uint64)
        mask = _tail_mask(n, n_words)
        if mask is not None:
            words &= mask
        return cls(words, n)

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "TidVector":
        """Build from an iterable of record ids (validated in range)."""
        ids = np.fromiter(indices, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            bad = int(ids.min() if ids.min() < 0 else ids.max())
            raise ValueError(f"record id {bad} out of range [0, {n})")
        words = np.zeros(words_for(n), dtype=np.uint64)
        if ids.size:
            np.bitwise_or.at(words, ids >> 6,
                             _ONE << (ids & 63).astype(np.uint64))
        return cls(words, n)

    @classmethod
    def from_bool(cls, flags) -> "TidVector":
        """Build from a boolean indicator array of length ``n``."""
        flags = np.ascontiguousarray(flags, dtype=bool)
        if flags.ndim != 1:
            raise ValueError("indicator must be one-dimensional")
        n = flags.shape[0]
        n_words = words_for(n)
        packed = np.packbits(flags, bitorder="little")
        padded = np.zeros(n_words * 8, dtype=np.uint8)
        padded[:packed.shape[0]] = packed
        return cls(padded.view(_UINT64).astype(np.uint64, copy=False), n)

    def copy(self) -> "TidVector":
        """An owned copy (detached from any shared arena)."""
        return TidVector(self.words.copy(), self.n)

    # ------------------------------------------------------------------
    # set algebra (word-wise numpy ops; always allocate a new vector)
    # ------------------------------------------------------------------

    def _coerced(self, other) -> "TidVector":
        if not isinstance(other, TidVector):
            raise TypeError(
                f"expected a TidVector, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(
                f"universe mismatch: {self.n} vs {other.n} records")
        return other

    def __and__(self, other) -> "TidVector":
        return TidVector(self.words & self._coerced(other).words, self.n)

    def __or__(self, other) -> "TidVector":
        return TidVector(self.words | self._coerced(other).words, self.n)

    def andnot(self, other) -> "TidVector":
        """Set difference ``self \\ other`` (the bigint ``a & ~b``)."""
        other = self._coerced(other)
        return TidVector(self.words & ~other.words, self.n)

    def complement(self) -> "TidVector":
        """All records not in this set."""
        words = ~self.words
        mask = _tail_mask(self.n, self.words.shape[0])
        if mask is not None:
            words &= mask
        return TidVector(words, self.n)

    #: ``~tids`` is the complement *within the universe* — combined
    #: with ``&`` this matches the bigint ``a & ~b`` subset idiom.
    __invert__ = complement

    def without_indices(self, indices: Iterable[int]) -> "TidVector":
        """Copy with the given record ids cleared."""
        ids = np.fromiter(indices, dtype=np.int64)
        words = self.words.copy()
        if ids.size:
            np.bitwise_and.at(words, ids >> 6,
                              ~(_ONE << (ids & 63).astype(np.uint64)))
        return TidVector(words, self.n)

    # ------------------------------------------------------------------
    # counting and predicates
    # ------------------------------------------------------------------

    def count(self) -> int:
        """Cardinality of the set (hardware popcount)."""
        return int(np.bitwise_count(self.words).sum())

    def intersection_count(self, other) -> int:
        """``|self ∩ other|`` without materializing the intersection."""
        other = self._coerced(other)
        return int(np.bitwise_count(self.words & other.words).sum())

    def andnot_count(self, other) -> int:
        """``|self \\ other|`` without materializing the difference."""
        other = self._coerced(other)
        return int(np.bitwise_count(self.words & ~other.words).sum())

    def is_subset(self, other) -> bool:
        """True when every record of ``self`` is also in ``other``."""
        other = self._coerced(other)
        return not np.any(self.words & ~other.words)

    def intersects(self, other) -> bool:
        """True when the two sets share at least one record."""
        other = self._coerced(other)
        return bool(np.any(self.words & other.words))

    def __bool__(self) -> bool:
        return bool(np.any(self.words))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TidVector):
            return NotImplemented
        return self.n == other.n and bool(
            np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.n, self.words.tobytes()))

    # ------------------------------------------------------------------
    # enumeration and conversion
    # ------------------------------------------------------------------

    def indices(self) -> np.ndarray:
        """Record ids of the set bits, ascending, as int32."""
        flags = np.unpackbits(self.words.view(np.uint8),
                              bitorder="little")[:self.n]
        return np.nonzero(flags)[0].astype(np.int32)

    def iter_indices(self) -> Iterator[int]:
        """Yield the record ids of the set bits in ascending order."""
        for i in self.indices():
            yield int(i)

    def to_bool(self) -> np.ndarray:
        """Boolean indicator array of length ``n``."""
        return np.unpackbits(self.words.view(np.uint8),
                             bitorder="little")[:self.n].astype(bool)

    def to_bigint(self) -> int:
        """The equivalent bigint bitset (oracle checks)."""
        return int.from_bytes(
            np.ascontiguousarray(self.words).astype(_UINT64,
                                                    copy=False).tobytes(),
            "little")

    def __repr__(self) -> str:
        return f"TidVector(n={self.n}, count={self.count()})"


def as_tidvector(value: TidVector, n: int) -> TidVector:
    """Check a tidset argument: a :class:`TidVector` over ``n`` records.

    The single check every mining and scoring entry path runs on its
    tidset inputs; anything else is a ``TypeError``.
    """
    if not isinstance(value, TidVector):
        raise TypeError(
            f"expected a TidVector tidset, got {type(value).__name__}")
    if value.n != n:
        raise ValueError(
            f"TidVector over {value.n} records used where {n} "
            f"records are expected")
    return value


def pack_bool_matrix(flags: np.ndarray) -> np.ndarray:
    """Pack a ``(k, n)`` bool matrix into a ``(k, n_words)`` arena."""
    flags = np.ascontiguousarray(flags, dtype=bool)
    if flags.ndim != 2:
        raise ValueError("flags must be two-dimensional")
    n = flags.shape[1]
    n_words = words_for(n)
    packed = np.packbits(flags, axis=1, bitorder="little")
    padded = np.zeros((flags.shape[0], n_words * 8), dtype=np.uint8)
    padded[:, :packed.shape[1]] = packed
    return padded.view(_UINT64).astype(np.uint64, copy=False)


def unpack_arena(arena: np.ndarray, n: int) -> np.ndarray:
    """Unpack a ``(k, n_words)`` arena into a ``(k, n)`` bool matrix."""
    if arena.shape[0] == 0:
        return np.zeros((0, n), dtype=bool)
    bits = np.unpackbits(arena.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n].astype(bool)


def _pack_cells(rows: np.ndarray, record_ids: np.ndarray,
                n_sets: int, n: int) -> np.ndarray:
    """OR ``(row, record)`` pairs into a ``(n_sets, n_words)`` arena.

    Pairs are turned into ``(word, bit)`` coordinates and merged per
    destination word with one ``bitwise_or.reduceat`` pass (``ufunc.at``
    is an order of magnitude slower on repeated indices); already-sorted
    input — the common case, ids accumulated set by set in ascending
    record order — skips the sort entirely. Small-enough shapes take an
    even simpler route: scatter into a dense bool matrix and
    ``packbits`` it.
    """
    n_words = words_for(n)
    if n_sets * max(n, 1) <= _BOOL_SCATTER_BUDGET:
        flags = np.zeros((n_sets, n), dtype=bool)
        flags[rows, record_ids] = True
        return pack_bool_matrix(flags)
    arena = np.zeros((n_sets, n_words), dtype=np.uint64)
    cell = rows * n_words + (record_ids >> 6)
    values = _ONE << (record_ids & 63).astype(np.uint64)
    if cell.size > 1 and np.any(cell[1:] < cell[:-1]):
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        values = values[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], cell[1:] != cell[:-1])))
    merged = np.bitwise_or.reduceat(values, starts)
    arena.reshape(-1)[cell[starts]] = merged
    return arena


def pack_pairs(set_ids, record_ids, n_sets: int, n: int) -> np.ndarray:
    """Pack parallel ``(set_id, record_id)`` arrays into an arena.

    The vectorized ingest kernel behind ``Dataset.from_records``: all
    cells of a tokenized dataset land in the packed arena through a
    handful of C-level array ops, with no per-cell Python arithmetic
    and no intermediate bigints. Pairs may repeat; out-of-range ids
    raise.
    """
    set_ids = np.asarray(set_ids, dtype=np.int64)
    record_ids = np.asarray(record_ids, dtype=np.int64)
    if set_ids.shape != record_ids.shape or set_ids.ndim != 1:
        raise ValueError("set_ids and record_ids must be parallel "
                         "1-D arrays")
    if set_ids.size == 0:
        return np.zeros((n_sets, words_for(n)), dtype=np.uint64)
    if set_ids.min() < 0 or set_ids.max() >= n_sets:
        raise ValueError("set id out of range")
    if record_ids.min() < 0 or record_ids.max() >= n:
        bad = int(record_ids.min() if record_ids.min() < 0
                  else record_ids.max())
        raise ValueError(f"record id {bad} out of range [0, {n})")
    return _pack_cells(set_ids, record_ids, n_sets, n)


def pack_id_lists(id_lists: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Pack per-set record-id lists into a ``(n_sets, n_words)`` arena.

    Convenience wrapper over :func:`pack_pairs` for ragged inputs
    (transactions, per-item accumulation lists).
    """
    n_sets = len(id_lists)
    lengths = np.fromiter((len(ids) for ids in id_lists),
                          dtype=np.int64, count=n_sets)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros((n_sets, words_for(n)), dtype=np.uint64)
    flat = np.empty(total, dtype=np.int64)
    offset = 0
    for ids in id_lists:
        k = len(ids)
        if k:
            flat[offset:offset + k] = ids
            offset += k
    rows = np.repeat(np.arange(n_sets, dtype=np.int64), lengths)
    return pack_pairs(rows, flat, n_sets, n)


def arena_rows(arena: np.ndarray, n: int) -> List[TidVector]:
    """Wrap each row of a packed arena as a :class:`TidVector` view.

    Rows share the arena's memory; TidVector ops never write through,
    so the views are safe to hand out.
    """
    return [TidVector(arena[i], n) for i in range(arena.shape[0])]


#: Scratch bytes of one :func:`_shared_arena_view` comparison chunk;
#: 1 MiB chunks raised peak RSS ~1 MiB (malloc's mmap threshold).
_CHECK_BYTES = 1 << 16


def _shared_arena_view(vectors: Sequence[TidVector]) -> Optional[np.ndarray]:
    """A zero-copy ``(len, n_words)`` view when the vectors are
    consecutive rows of one contiguous 2-D arena, else ``None``.

    This is the common adoption shape — ``arena_rows`` hands out row
    views in order, and consumers immediately want the arena back —
    so detecting it turns the stack into a slice of the original
    arena instead of a fresh copy.
    """
    first = vectors[0].words
    base = first.base
    if base is None or first.ndim != 1 or first.dtype != np.uint64 \
            or not first.flags.c_contiguous:
        return None
    n_words = first.shape[0]
    if n_words == 0 or any(v.words.base is not base for v in vectors):
        return None
    # ``base`` is the owning buffer, maybe 1-D: place the window by
    # address. Contiguous first and last rows where a consecutive stack
    # puts them keep the window inside that buffer.
    stride = n_words * first.itemsize
    last = vectors[-1].words
    origin = first.__array_interface__["data"][0]
    if not last.flags.c_contiguous or last.__array_interface__["data"][0] \
            != origin + (len(vectors) - 1) * stride:
        return None
    window = np.lib.stride_tricks.as_strided(
        first, shape=(len(vectors), n_words),
        strides=(stride, first.itemsize))
    # Every row must hold exactly the window's words. Comparing them a
    # chunk at a time never holds a copy of the stack, and is several
    # times faster than reading every row's address in Python.
    step = max(1, _CHECK_BYTES // stride)
    for start in range(0, len(vectors), step):
        chunk = np.stack([v.words for v in vectors[start:start + step]])
        if not np.array_equal(window[start:start + len(chunk)], chunk):
            return None
    return window


def stack_tidvectors(vectors: Sequence[TidVector],
                     n: Optional[int] = None) -> np.ndarray:
    """Stack vectors into a ``(len, n_words)`` uint64 matrix.

    The adoption path from mined tidsets to the packed
    :class:`~repro.bitmat.BitMatrix` kernels: one contiguous copy of
    already-packed words, no bigint round-trip. ``n`` is required only
    for an empty sequence.

    When the vectors are already consecutive row views over one shared
    contiguous arena (the :func:`arena_rows` round trip), the original
    arena slice is returned as a zero-copy view instead of a fresh
    allocation — TidVector ops never write through their words, so the
    view is as safe as a copy and keeps whole-arena adoption free even
    for memory-mapped arenas.
    """
    if not vectors:
        if n is None:
            raise ValueError("n is required to stack zero vectors")
        return np.zeros((0, words_for(n)), dtype=np.uint64)
    width = vectors[0].n
    for vector in vectors:
        if vector.n != width:
            raise ValueError(
                f"cannot stack TidVectors over {vector.n} and {width} "
                f"records")
    if n is not None and n != width:
        raise ValueError(
            f"TidVectors cover {width} records, expected {n}")
    shared = _shared_arena_view(vectors)
    if shared is not None:
        return shared
    return np.stack([vector.words for vector in vectors])
