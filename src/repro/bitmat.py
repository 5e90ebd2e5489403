"""Packed uint64 bitmap kernels: class supports and closure joins.

The permutation approach (Section 4.2) needs ``N × n_nodes`` class
supports ``popcount(tidset & class_bits)``, and a Python loop over the
nodes pays interpreter overhead on every node of every permutation.
:class:`BitMatrix` removes that overhead wholesale: the ``n_nodes``
tidsets become one ``(n_nodes, ceil(n_records / 64))`` ``uint64``
array, a class labelling becomes one packed ``uint64`` row, and a full
class-support pass is three C-level array operations —
``bitwise_and`` broadcast, ``bitwise_count`` (the POPCNT instruction on
x86), and a row sum.

Counting kernels on :class:`BitMatrix`:

* :meth:`BitMatrix.class_supports` — supports of every node under one
  boolean record indicator (one permutation);
* :meth:`BitMatrix.class_supports_batch` — a ``(B, n_nodes)`` support
  matrix for ``B`` indicators in one shot, the kernel behind the
  numpy permutation pass. Without the native suite the numpy
  broadcast runs in labelling × node-row tiles of at most
  :data:`TILE_BYTES` scratch, whatever the forest's width (see
  ``docs/performance.md``);
* :meth:`BitMatrix.class_supports_multi` — a ``(C, B, n_nodes)``
  support tensor for ``C`` classes × ``B`` labellings through *one*
  kernel dispatch, so multi-class permutation scoring no longer pays
  one kernel call (and one numpy block loop) per class.

Two enumeration kernels operate on raw packed arenas (the
``(k, n_words)`` uint64 matrices every :class:`~repro.tidvector.
TidVector` arena and :class:`BitMatrix` share):

* :func:`superset_mask` — which arena rows contain a query set
  (``query & ~row == 0`` per row); the closure check of the Python
  closed walk (:meth:`repro.mining.tidsets.VerticalView.
  superset_positions`), numpy only — with the native suite loaded the
  whole walk runs in C (:mod:`repro.mining.closed`);
* :func:`intersection_counts` — ``popcount(row & query)`` per row;
  the Python walk's candidate-support join, native-accelerated
  through :mod:`repro._native` with a silent numpy fallback.

Every kernel counts *exact integers* or compares exact words —
results are bit-identical for any input, with the native suite loaded
or not.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

from . import _native

__all__ = [
    "TILE_BYTES",
    "BitMatrix",
    "intersection_counts",
    "pack_indicator",
    "pack_indicators",
    "superset_mask",
    "words_per_row",
]

#: Scratch bytes of one numpy supports tile: ``labellings × rows ×
#: n_words`` cells at 9 bytes each (the uint64 AND and its uint8
#: popcounts). Fixed, so the fallback's memory is bounded whatever the
#: forest's width; ~1 MiB also keeps the tile cache-resident.
TILE_BYTES = 1 << 20


def words_per_row(n_records: int) -> int:
    """Number of uint64 words needed to hold ``n_records`` bits."""
    if n_records < 0:
        raise ValueError("n_records must be non-negative")
    return (n_records + 63) // 64


def pack_indicator(indicator: np.ndarray) -> np.ndarray:
    """Pack one boolean record indicator into a ``(n_words,)`` uint64 row.

    Bit ``i`` of the packed row is set iff ``indicator[i]`` — the
    little-endian layout of :class:`~repro.tidvector.TidVector`.
    """
    flags = np.ascontiguousarray(indicator, dtype=bool)
    if flags.ndim != 1:
        raise ValueError("indicator must be one-dimensional")
    return pack_indicators(flags[None, :])[0]


def pack_indicators(indicators: np.ndarray) -> np.ndarray:
    """Pack a ``(B, n_records)`` bool matrix into ``(B, n_words)`` uint64.

    Each row is packed independently (little-endian bit order within a
    word, words in ascending record order); rows are padded with zero
    bits up to the word boundary.
    """
    flags = np.ascontiguousarray(indicators, dtype=bool)
    if flags.ndim != 2:
        raise ValueError("indicators must be two-dimensional")
    n_rows, n_records = flags.shape
    n_words = words_per_row(n_records)
    packed_bytes = np.packbits(flags, axis=1, bitorder="little")
    padded = np.zeros((n_rows, n_words * 8), dtype=np.uint8)
    padded[:, :packed_bytes.shape[1]] = packed_bytes
    return (padded.view(np.dtype("<u8"))
            .astype(np.uint64, copy=False))


class BitMatrix:
    """A dense stack of tidsets as a ``(n_rows, n_words)`` uint64 array.

    Rows usually correspond to pattern-forest nodes; columns are 64-bit
    windows of record ids (record ``i`` lives in bit ``i % 64`` of word
    ``i // 64``, little-endian — the same layout as a bigint's
    little-endian bytes, so conversion is byte-exact both ways).
    """

    __slots__ = ("_words", "n_rows", "n_records", "n_words")

    def __init__(self, words: np.ndarray, n_records: int) -> None:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError("words must be a 2-D uint64 array")
        if words.shape[1] != words_per_row(n_records):
            raise ValueError(
                f"{words.shape[1]} words per row cannot hold exactly "
                f"{n_records} records (need {words_per_row(n_records)})")
        self._words = words
        self.n_rows = words.shape[0]
        self.n_records = n_records
        self.n_words = words.shape[1]

    # ------------------------------------------------------------------
    # converters
    # ------------------------------------------------------------------

    @classmethod
    def from_tidsets(cls, tidsets: Sequence, n_records: int) -> "BitMatrix":
        """Pack tidsets (one per row) into a :class:`BitMatrix`.

        Rows may be :class:`~repro.tidvector.TidVector` values (the
        native representation — adopted by stacking their words, no
        conversion) or bigint bitsets (plugin/oracle interop). Every
        tidset must only reference records in ``[0, n_records)``.
        """
        from .tidvector import TidVector, stack_tidvectors

        tidsets = list(tidsets)
        if all(isinstance(t, TidVector) for t in tidsets):
            return cls(stack_tidvectors(tidsets, n_records), n_records)
        n_words = words_per_row(n_records)
        stride = n_words * 8
        buffer = bytearray(len(tidsets) * stride)
        for row, tidset in enumerate(tidsets):
            tidset = int(tidset)
            if tidset < 0:
                raise ValueError(f"tidset of row {row} is negative")
            if tidset >> n_records:
                # Any bit at or above n_records is out of range,
                # including the tail of a partially-filled last word.
                raise ValueError(
                    f"tidset of row {row} references records >= "
                    f"{n_records}")
            buffer[row * stride:(row + 1) * stride] = \
                tidset.to_bytes(stride, "little")
        words = (np.frombuffer(buffer, dtype=np.dtype("<u8"))
                 .reshape(len(tidsets), n_words)
                 .astype(np.uint64, copy=False))
        return cls(words, n_records)

    def tidvector(self, row: int):
        """One row as a packed :class:`~repro.tidvector.TidVector` view."""
        from .tidvector import TidVector

        return TidVector(self._words[row], self.n_records)

    @property
    def words(self) -> np.ndarray:
        """The packed ``(n_rows, n_words)`` uint64 array (read it, don't
        write it — rows are shared with the forest that built them)."""
        return self._words

    @property
    def nbytes(self) -> int:
        """Memory footprint of the packed array."""
        return self._words.nbytes

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------

    def row_popcounts(self) -> np.ndarray:
        """Cardinality of every row (int64) — ``supp(X)`` per node."""
        return np.bitwise_count(self._words).sum(axis=1, dtype=np.int64)

    def class_supports(self, indicator: np.ndarray) -> np.ndarray:
        """``|row ∩ indicator|`` for every row, as an int64 array.

        ``indicator`` is a boolean array of length ``n_records``; the
        result is exactly ``popcount(tidset & class_bits)`` per row.
        """
        flags = np.asarray(indicator, dtype=bool)
        if flags.shape != (self.n_records,):
            raise ValueError(
                f"indicator must have shape ({self.n_records},), got "
                f"{flags.shape}")
        return self.class_supports_batch(flags[None, :])[0]

    def class_supports_batch(self, indicators: np.ndarray) -> np.ndarray:
        """``(B, n_rows)`` support matrix for ``B`` indicators at once.

        Row ``b`` equals ``class_supports(indicators[b])``. The heavy
        lifting goes through the fused C kernel when the host can
        compile it (:mod:`repro._native`; node-outer, so the packed
        forest streams past all ``B`` labellings once, no
        intermediates); otherwise the numpy path broadcasts over
        labelling × node-row tiles whose scratch stays within
        :data:`TILE_BYTES`. Both paths count exact integers and return
        bit-identical matrices.
        """
        flags = np.asarray(indicators, dtype=bool)
        if flags.ndim != 2 or flags.shape[1] != self.n_records:
            raise ValueError(
                f"indicators must have shape (B, {self.n_records}), "
                f"got {flags.shape}")
        return self._supports_packed(pack_indicators(flags))

    def class_supports_multi(self, class_indicators: np.ndarray,
                             ) -> np.ndarray:
        """``(C, B, n_rows)`` supports for ``C`` classes × ``B`` rows.

        ``class_indicators`` is a boolean ``(C, B, n_records)`` tensor
        — one ``(B, n_records)`` indicator matrix per class. The whole
        tensor is packed once and flattened into a single
        ``(C·B, n_words)`` dispatch, so the multi-class permutation
        pass costs one kernel call for *all* classes instead of one
        per class. Entry ``(c, b)`` equals
        ``class_supports(class_indicators[c, b])`` exactly.
        """
        flags = np.asarray(class_indicators, dtype=bool)
        if flags.ndim != 3 or flags.shape[2] != self.n_records:
            raise ValueError(
                f"class indicators must have shape "
                f"(C, B, {self.n_records}), got {flags.shape}")
        n_classes, n_batch = flags.shape[0], flags.shape[1]
        packed = pack_indicators(
            flags.reshape(n_classes * n_batch, self.n_records))
        out = self._supports_packed(packed)
        return out.reshape(n_classes, n_batch, self.n_rows)

    def _supports_packed(self, packed: np.ndarray) -> np.ndarray:
        """Supports of every row against already-packed labellings."""
        n_batch = packed.shape[0]
        suite = _native.load_suite()
        if suite is not None and self.n_rows and n_batch:
            return self._run_native(packed, suite.class_supports_batch)
        out = np.empty((n_batch, self.n_rows), dtype=np.int64)
        if not (self.n_rows and n_batch):
            return out
        # A tile is (labellings, rows, n_words) cells; a narrow forest
        # fits whole in one tile with several labellings, a wide one
        # is cut into row ranges, one labelling at a time.
        cells = max(1, TILE_BYTES // 9)
        rows = max(1, min(self.n_rows, cells // max(1, self.n_words)))
        labellings = max(1, min(n_batch,
                                cells // max(1, rows * self.n_words)))
        meet = np.empty((labellings, rows, self.n_words), dtype=np.uint64)
        counts = np.empty(meet.shape, dtype=np.uint8)
        for b in range(0, n_batch, labellings):
            chunk = packed[b:b + labellings, None, :]
            for r in range(0, self.n_rows, rows):
                tile = self._words[None, r:r + rows]
                n_b, n_r = chunk.shape[0], tile.shape[1]
                np.bitwise_and(tile, chunk, out=meet[:n_b, :n_r])
                np.bitwise_count(meet[:n_b, :n_r], out=counts[:n_b, :n_r])
                out[b:b + n_b, r:r + n_r] = counts[:n_b, :n_r].sum(
                    axis=2, dtype=np.int64)
        return out

    def _run_native(self, packed: np.ndarray, kernel) -> np.ndarray:
        """Dispatch ``(B, n_words)`` packed labellings to the C kernel."""
        packed = np.ascontiguousarray(packed, dtype=np.uint64)
        n_batch = packed.shape[0]
        out = np.empty((n_batch, self.n_rows), dtype=np.int64)
        kernel(self._words.ctypes.data_as(
                   ctypes.POINTER(ctypes.c_uint64)),
               packed.ctypes.data_as(
                   ctypes.POINTER(ctypes.c_uint64)),
               out.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
               self.n_rows, self.n_words, n_batch)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BitMatrix(n_rows={self.n_rows}, "
                f"n_records={self.n_records}, n_words={self.n_words})")


# ----------------------------------------------------------------------
# arena-level enumeration kernels (native-accelerated, numpy fallback)
# ----------------------------------------------------------------------


def superset_mask(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Which rows of a packed arena contain the query set (bool mask).

    ``matrix`` is a ``(k, n_words)`` uint64 arena (item tidsets,
    forest rows); ``query`` a ``(n_words,)`` uint64 row over the same
    universe. Row ``j`` is True iff ``query & ~matrix[j] == 0`` — the
    subset/closure primitive behind
    :meth:`repro.mining.tidsets.VerticalView.superset_positions`, which
    the Python closed walk uses when the native suite is unavailable
    (the native walk, ``repro_lcm_mine``, checks closures inside C).
    One ``k × n_words`` numpy intermediate; exact words throughout.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.uint64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be a 2-D uint64 arena")
    query = np.ascontiguousarray(query, dtype=np.uint64)
    if query.shape != (matrix.shape[1],):
        raise ValueError(
            f"query must have shape ({matrix.shape[1]},), got "
            f"{query.shape}")
    n_rows = matrix.shape[0]
    if n_rows == 0:
        return np.zeros(0, dtype=bool)
    if matrix.shape[1] == 0:
        # Zero-width universe: the empty query is a subset of any row.
        return np.ones(n_rows, dtype=bool)
    return ~np.any(query[None, :] & ~matrix, axis=1)


def intersection_counts(matrix: np.ndarray,
                        query: np.ndarray) -> np.ndarray:
    """``popcount(matrix[j] & query)`` per arena row, as int64.

    ``matrix`` is a ``(k, n_words)`` uint64 arena, ``query`` a
    ``(n_words,)`` uint64 row. The enumeration-join primitive behind
    :meth:`repro.mining.tidsets.VerticalView.candidate_supports`: one
    fused AND+popcount sweep (the batch-supports kernel with ``B=1``)
    instead of a per-row Python ``intersection_count`` loop.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.uint64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be a 2-D uint64 arena")
    query = np.ascontiguousarray(query, dtype=np.uint64)
    if query.shape != (matrix.shape[1],):
        raise ValueError(
            f"query must have shape ({matrix.shape[1]},), got "
            f"{query.shape}")
    n_rows = matrix.shape[0]
    if n_rows == 0 or matrix.shape[1] == 0:
        return np.zeros(n_rows, dtype=np.int64)
    suite = _native.load_suite()
    if suite is not None:
        out = np.empty((1, n_rows), dtype=np.int64)
        suite.class_supports_batch(
            matrix.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
            query.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            n_rows, matrix.shape[1], 1)
        return out[0]
    return (np.bitwise_count(matrix & query[None, :])
            .sum(axis=1, dtype=np.int64))

