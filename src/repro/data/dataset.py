"""Attribute-valued dataset with class labels (Section 2.1 of the paper).

A :class:`Dataset` stores records columnar: for every item (attribute =
value pair) it keeps the *tidset* — the packed record-id set of the
records containing the item — and for every class label the packed set
of records carrying that label. Both live in shared uint64 arenas
(``(n_items, ceil(n/64))`` and ``(n_classes, ceil(n/64))``) built
vectorized at ingest; the per-item/per-class views are
:class:`~repro.tidvector.TidVector` rows over those arenas. All mining
and statistics downstream consume only these packed sets plus a
handful of integer counts, which is what enables the paper's "mine
once, re-score per permutation" optimization (Section 4.2.1):
permuting class labels leaves every item tidset untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DataError
from ..tidvector import (
    TidVector,
    arena_rows,
    pack_bool_matrix,
    pack_id_lists,
    pack_pairs,
    stack_tidvectors,
    unpack_arena,
    words_for,
)
from .items import Item, ItemCatalog

__all__ = ["Dataset", "ClassSummary"]


@dataclass(frozen=True)
class ClassSummary:
    """Per-class bookkeeping: label name, index, support and tidset."""

    index: int
    name: str
    support: int
    tidset: TidVector = field(repr=False)


class Dataset:
    """Records over categorical attributes plus a class label attribute.

    Parameters
    ----------
    n_records:
        Number of records ``n``.
    catalog:
        The item catalog; item ids index into ``item_tidsets``.
    item_tidsets:
        One tidset per item: :class:`~repro.tidvector.TidVector` values
        or a ready ``(n_items, ceil(n/64))`` uint64 arena (shared
        zero-copy).
    class_labels:
        Per-record class index (length ``n_records``).
    class_names:
        Names of the classes; ``class_labels`` values index this list.
    name:
        Optional human-readable dataset name used in reports.
    """

    def __init__(
        self,
        n_records: int,
        catalog: ItemCatalog,
        item_tidsets: Sequence,
        class_labels: Sequence[int],
        class_names: Sequence[str],
        name: str = "dataset",
        *,
        validate_arena: bool = True,
    ) -> None:
        class_labels = [int(label) for label in class_labels]
        if len(class_labels) != n_records:
            raise DataError(
                f"{len(class_labels)} class labels for {n_records} records"
            )
        if n_records == 0:
            raise DataError("dataset must contain at least one record")
        n_classes = len(class_names)
        if n_classes < 2:
            raise DataError("dataset must have at least two classes")
        self.n_records = n_records
        self.catalog = catalog
        self._item_arena = self._adopt_arena(item_tidsets, n_records,
                                             validate=validate_arena)
        if self._item_arena.shape[0] != len(catalog):
            raise DataError(
                f"{self._item_arena.shape[0]} tidsets for "
                f"{len(catalog)} items"
            )
        self.item_tidsets: List[TidVector] = arena_rows(
            self._item_arena, n_records)
        self.class_labels: List[int] = class_labels
        self.class_names: List[str] = [str(c) for c in class_names]
        self.name = name
        self._labels_array = np.asarray(class_labels, dtype=np.int64)
        if self._labels_array.size and (
                self._labels_array.min() < 0
                or self._labels_array.max() >= n_classes):
            bad = int(self._labels_array.min()
                      if self._labels_array.min() < 0
                      else self._labels_array.max())
            raise DataError(f"class label {bad} out of range")
        self._class_arena = pack_bool_matrix(
            self._labels_array[None, :]
            == np.arange(n_classes, dtype=np.int64)[:, None])
        self._class_tidsets = arena_rows(self._class_arena, n_records)

    @staticmethod
    def _adopt_arena(item_tidsets, n_records: int,
                     validate: bool = True) -> np.ndarray:
        """Normalize any accepted tidset input to one packed arena.

        ``validate=False`` skips the tail-bit scan for arenas whose
        builder already guarantees clean tail words — the memory-mapped
        ``open_arena`` path, where touching the last word column would
        page in the entire file for no reason.
        """
        n_words = words_for(n_records)
        if isinstance(item_tidsets, np.ndarray) and item_tidsets.ndim == 2:
            arena = np.ascontiguousarray(item_tidsets, dtype=np.uint64)
            if arena.shape[1] != n_words:
                raise DataError(
                    f"arena has {arena.shape[1]} words per row, need "
                    f"{n_words} for {n_records} records")
            tail = n_records % 64
            if validate and n_words and tail and np.any(
                    arena[:, -1] >> np.uint64(tail)):
                raise DataError(
                    "arena tidsets reference records >= n")
            return arena
        rows = list(item_tidsets)
        for i, tids in enumerate(rows):
            if not isinstance(tids, TidVector):
                raise DataError(
                    f"tidset of item {i} is a {type(tids).__name__}, "
                    f"not a TidVector")
            if tids.n != n_records:
                raise DataError(
                    f"tidset of item {i} covers {tids.n} records, "
                    f"expected {n_records}")
        # stack_tidvectors returns a zero-copy arena slice when the
        # rows already share one contiguous arena in order.
        return stack_tidvectors(rows, n_records)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Sequence[Sequence[object]],
        class_labels: Sequence[object],
        attribute_names: Optional[Sequence[str]] = None,
        name: str = "dataset",
        class_names: Optional[Sequence[str]] = None,
    ) -> "Dataset":
        """Build a dataset from row-major records of categorical values.

        ``records[r][a]`` is the value of attribute ``a`` in record
        ``r``; values are stringified. A value of ``None`` means
        "missing" and produces no item for that cell.

        Ingest is columnar and vectorized: each attribute's column is
        tokenized once against a plain per-column dict (no per-cell
        catalog object), catalog ids are then assigned in exactly the
        historical row-major first-seen order (so item ids — and every
        downstream mining order built on them — are unchanged), and
        all cells land in the packed uint64 arena through one
        :func:`~repro.tidvector.pack_pairs` call. No per-cell bigint
        arithmetic anywhere.
        """
        if not records:
            raise DataError("no records supplied")
        n_attributes = len(records[0])
        if attribute_names is None:
            attribute_names = [f"A{j}" for j in range(n_attributes)]
        if len(attribute_names) != n_attributes:
            raise DataError("attribute_names length mismatch")
        n = len(records)
        for r, record in enumerate(records):
            if len(record) != n_attributes:
                raise DataError(f"record {r} has {len(record)} values, "
                                f"expected {n_attributes}")
        columns = []      # per attribute: (values, codes, rec_ids)
        registration = []  # (first_record, attribute, local code)
        for j in range(n_attributes):
            seen: Dict[str, int] = {}
            values: List[str] = []
            codes: List[int] = []
            rec_ids: List[int] = []
            for r in range(n):
                value = records[r][j]
                if value is None:
                    continue
                value = value if type(value) is str else str(value)
                code = seen.get(value)
                if code is None:
                    code = len(values)
                    seen[value] = code
                    values.append(value)
                    registration.append((r, j, code))
                codes.append(code)
                rec_ids.append(r)
            columns.append((values, codes, rec_ids))
        # Catalog ids in row-major first-seen order: sorting the
        # (first_record, attribute) pairs replays the historical
        # cell-by-cell scan exactly.
        registration.sort()
        catalog = ItemCatalog()
        id_of: Dict[Tuple[int, int], int] = {}
        for first_r, j, code in registration:
            id_of[(j, code)] = catalog.add_pair(
                attribute_names[j], columns[j][0][code])
        total = sum(len(codes) for _, codes, _ in columns)
        set_ids = np.empty(total, dtype=np.int64)
        record_ids = np.empty(total, dtype=np.int64)
        offset = 0
        for j, (values, codes, rec_ids) in enumerate(columns):
            if not codes:
                continue
            mapping = np.fromiter(
                (id_of[(j, code)] for code in range(len(values))),
                dtype=np.int64, count=len(values))
            k = len(codes)
            set_ids[offset:offset + k] = mapping[
                np.asarray(codes, dtype=np.int64)]
            record_ids[offset:offset + k] = rec_ids
            offset += k
        arena = pack_pairs(set_ids, record_ids, len(catalog), n)
        label_indices, names = _encode_labels(class_labels, class_names)
        return cls(n, catalog, arena, label_indices, names, name=name)

    @classmethod
    def from_transactions(
        cls,
        transactions: Sequence[Iterable[object]],
        class_labels: Sequence[object],
        name: str = "dataset",
        class_names: Optional[Sequence[str]] = None,
    ) -> "Dataset":
        """Build a dataset from item-set transactions (FIMI style).

        Every distinct transaction element becomes an item of a
        synthetic single-valued attribute named after the element, so a
        market-basket file can be mined with the class-rule machinery.
        """
        if not transactions:
            raise DataError("no transactions supplied")
        catalog = ItemCatalog()
        item_rows: List[List[int]] = []
        for r, transaction in enumerate(transactions):
            for element in transaction:
                item_id = catalog.add_pair(f"item:{element}", "1")
                if item_id == len(item_rows):
                    item_rows.append([])
                item_rows[item_id].append(r)
        label_indices, names = _encode_labels(class_labels, class_names)
        return cls(len(transactions), catalog,
                   pack_id_lists(item_rows, len(transactions)),
                   label_indices, names, name=name)

    # ------------------------------------------------------------------
    # core accessors
    # ------------------------------------------------------------------

    @property
    def n_classes(self) -> int:
        """Number of distinct class labels."""
        return len(self.class_names)

    @property
    def n_items(self) -> int:
        """Number of distinct items (attribute=value pairs)."""
        return len(self.catalog)

    @property
    def n_attributes(self) -> int:
        """Number of attributes (excluding the class attribute)."""
        return len(self.catalog.attributes)

    @property
    def item_arena(self) -> np.ndarray:
        """The shared ``(n_items, n_words)`` packed arena (read-only
        by convention; item tidset views alias its rows)."""
        return self._item_arena

    def class_tidset(self, class_index: int) -> TidVector:
        """Packed set of records labelled with class ``class_index``."""
        return self._class_tidsets[class_index]

    def class_support(self, class_index: int) -> int:
        """``n_c``: the number of records labelled with the class."""
        return self._class_tidsets[class_index].count()

    def class_summaries(self) -> List[ClassSummary]:
        """Per-class name/support/tidset summaries."""
        return [
            ClassSummary(i, self.class_names[i], t.count(), t)
            for i, t in enumerate(self._class_tidsets)
        ]

    def item_support(self, item_id: int) -> int:
        """Support of a single item."""
        return self.item_tidsets[item_id].count()

    def fingerprint(self) -> str:
        """Stable content hash of this dataset (cached after one call).

        Invariant to ingest ordering — record order, column/item order
        and class-index order — but sensitive to any change in the
        record multiset, attribute names or class-name universe; see
        :mod:`repro.data.fingerprint`. The service's artifact cache
        (:mod:`repro.service`) keys every mining result by this value.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            from .fingerprint import dataset_fingerprint

            cached = dataset_fingerprint(self)
            self._fingerprint = cached
        return cached

    def pattern_tidset(self, item_ids: Iterable[int]) -> TidVector:
        """Tidset of a pattern: intersection of its items' tidsets.

        Chained word-wise intersection with an early exit as soon as
        the running set empties; the empty pattern covers everything.
        """
        ids = [int(i) for i in item_ids]
        if not ids:
            return TidVector.universe(self.n_records)
        words = self._item_arena[ids[0]].copy()
        for item_id in ids[1:]:
            np.bitwise_and(words, self._item_arena[item_id], out=words)
            if not words.any():
                break
        return TidVector(words, self.n_records)

    def pattern_support(self, item_ids: Iterable[int]) -> int:
        """Support (coverage) of a pattern."""
        return self.pattern_tidset(item_ids).count()

    def rule_support(self, item_ids: Iterable[int], class_index: int) -> int:
        """Support of the rule ``pattern => class``."""
        return self.pattern_tidset(item_ids).intersection_count(
            self._class_tidsets[class_index])

    # ------------------------------------------------------------------
    # out-of-core arena files
    # ------------------------------------------------------------------

    def save_arena(self, path, n_segments: int = 1,
                   fingerprint: bool = True):
        """Write this dataset as an on-disk arena file (atomic rename).

        ``n_segments`` partitions the records into word-aligned
        row-range segments for out-of-core sharded access (see
        :mod:`repro.data.arena`); the default single segment keeps the
        file mappable as one zero-copy whole arena. With
        ``fingerprint=True`` the content fingerprint is computed (if
        not already cached) and stored in the header, so readers never
        need a full scan to key caches.
        """
        from .arena import segment_boundaries, write_arena

        bounds = segment_boundaries(self.n_records, n_segments)
        segments = []
        for lo, hi in zip(bounds, bounds[1:]):
            w0 = lo // 64
            w1 = w0 + words_for(hi - lo)
            segments.append((lo, hi - lo, self._arena_chunks(w0, w1)))
        if fingerprint:
            stamp = self.fingerprint()
        else:
            stamp = getattr(self, "_fingerprint", None) or ""
        return write_arena(
            path, n_records=self.n_records,
            items=[(item.attribute, item.value) for item in self.catalog],
            class_names=self.class_names, labels=self._labels_array,
            segments=segments, fingerprint=stamp, name=self.name)

    def _arena_chunks(self, w0: int, w1: int):
        """Yield contiguous item-row chunks of one word-column range,
        bounded to ~64 MB per chunk however wide the arena is."""
        row_bytes = max(1, (w1 - w0) * 8)
        chunk = max(1, (64 << 20) // row_bytes)
        for start in range(0, self.n_items, chunk):
            yield np.ascontiguousarray(
                self._item_arena[start:start + chunk, w0:w1])

    @classmethod
    def open_arena(cls, path) -> "Dataset":
        """Open an arena file as a dataset, zero-copy where possible.

        Single-segment files (the ``save_arena`` default) are adopted
        as a read-only ``np.memmap`` of the word block — no copy, no
        validation scan, pages faulted in only as mining touches them,
        and shared between processes that open the same file.
        Multi-segment files are materialized segment-at-a-time into
        RAM; use :class:`~repro.data.arena.ShardedDataset` to mine
        them without materializing.

        The returned dataset remembers its source path: pickling it
        (e.g. shipping it to executor workers) transmits the *path*,
        not the words, and the receiver re-maps the same pages.
        """
        return _rebuild_arena_dataset(str(path), None, None, None, None)

    def __reduce_ex__(self, protocol):
        source = getattr(self, "_arena_source", None)
        if source is None:
            # No __reduce__ override exists, so the base implementation
            # takes the normal copyreg path (pickling the arena by
            # value) instead of dispatching back here.
            return super().__reduce_ex__(protocol)
        labels = None
        if not getattr(self, "_arena_labels_native", False):
            labels = np.asarray(self._labels_array)
        return (_rebuild_arena_dataset,
                (source, labels, list(self.class_names), self.name,
                 getattr(self, "_fingerprint", None)))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    def with_class_labels(self, new_labels: Sequence[int],
                          name: Optional[str] = None) -> "Dataset":
        """Return a copy sharing the item arena but with new labels.

        The packed item arena is shared zero-copy (tidsets are
        immutable), so this is cheap; it is the primitive beneath
        permutation testing. An arena-file-backed dataset keeps its
        source path, so relabelled copies still pickle as path plus
        labels rather than by value.
        """
        clone = Dataset(
            self.n_records,
            self.catalog,
            self._item_arena,
            new_labels,
            self.class_names,
            name=name or self.name,
            validate_arena=False,
        )
        source = getattr(self, "_arena_source", None)
        if source is not None:
            clone._arena_source = source
            clone._arena_labels_native = False
        return clone

    def permuted(self, rng=None, name: Optional[str] = None) -> "Dataset":
        """Return a copy with class labels randomly shuffled.

        ``rng`` is a :class:`numpy.random.Generator` (``None`` draws a
        fresh ``numpy.random.default_rng()``), matching the permutation
        engine's label-shuffle path.
        """
        generator = rng if rng is not None else np.random.default_rng()
        labels = generator.permutation(self._labels_array)
        return self.with_class_labels(labels, name=name or
                                      f"{self.name}[permuted]")

    def permuted_class_tidsets(self, rng=None) -> List[TidVector]:
        """Shuffle labels and return only the per-class packed sets.

        The permutation engine needs nothing but these sets, so this
        avoids constructing a full Dataset per permutation. ``rng``
        follows :meth:`permuted`.
        """
        generator = rng if rng is not None else np.random.default_rng()
        labels = generator.permutation(self._labels_array)
        arena = pack_bool_matrix(
            labels[None, :]
            == np.arange(self.n_classes, dtype=np.int64)[:, None])
        return arena_rows(arena, self.n_records)

    def subset(self, record_ids: Sequence[int],
               name: Optional[str] = None) -> "Dataset":
        """Return the dataset restricted to ``record_ids`` (re-indexed).

        Used by the holdout approach to materialize the exploratory and
        evaluation halves. Items that vanish from the subset keep their
        catalog entry with an empty tidset, so item ids remain
        comparable across the two halves. Extraction is one vectorized
        unpack → column-select → repack over the whole arena, not a
        per-bit probe per item.
        """
        ordered = list(int(r) for r in record_ids)
        seen = set()
        for r in ordered:
            if r < 0 or r >= self.n_records:
                raise DataError(f"record id {r} out of range")
            if r in seen:
                raise DataError(f"duplicate record id {r} in subset")
            seen.add(r)
        columns = np.asarray(ordered, dtype=np.int64)
        n_items = self._item_arena.shape[0]
        new_arena = np.empty((n_items, words_for(len(ordered))),
                             dtype=np.uint64)
        # Unpack in item-row chunks so the bool intermediate stays
        # bounded (~64 MB) however large n_items x n_records grows.
        chunk = max(1, (64 << 20) // max(1, self.n_records))
        for start in range(0, n_items, chunk):
            flags = unpack_arena(self._item_arena[start:start + chunk],
                                 self.n_records)
            new_arena[start:start + flags.shape[0]] = \
                pack_bool_matrix(flags[:, columns])
        new_labels = self._labels_array[columns]
        return Dataset(len(ordered), self.catalog, new_arena, new_labels,
                       self.class_names,
                       name=name or f"{self.name}[subset]")

    def split_half(self, rng: Optional[random.Random] = None,
                   boundary: Optional[int] = None,
                   ) -> Tuple["Dataset", "Dataset"]:
        """Split into two halves for holdout evaluation.

        With ``boundary`` given, records ``[0, boundary)`` form the
        first half and the rest the second (the paper's structured
        "holdout" on catenated sub-datasets). With ``rng`` given,
        records are shuffled first (the paper's "random holdout").
        """
        if boundary is None:
            boundary = self.n_records // 2
        ids = list(range(self.n_records))
        if rng is not None:
            rng.shuffle(ids)
        first = ids[:boundary]
        second = ids[boundary:]
        if not first or not second:
            raise DataError("split would leave an empty half")
        return (self.subset(first, name=f"{self.name}[exploratory]"),
                self.subset(second, name=f"{self.name}[evaluation]"))

    # ------------------------------------------------------------------
    # conversions and dunder plumbing
    # ------------------------------------------------------------------

    def to_records(self) -> List[List[Optional[str]]]:
        """Materialize row-major records (None for missing cells)."""
        attributes = self.catalog.attributes
        column_of = {a: j for j, a in enumerate(attributes)}
        rows: List[List[Optional[str]]] = [
            [None] * len(attributes) for _ in range(self.n_records)
        ]
        for item_id, tids in enumerate(self.item_tidsets):
            item = self.catalog.item(item_id)
            j = column_of[item.attribute]
            for r in tids.indices():
                rows[r][j] = item.value
        return rows

    def __repr__(self) -> str:
        return (f"Dataset(name={self.name!r}, n_records={self.n_records}, "
                f"n_attributes={self.n_attributes}, n_items={self.n_items}, "
                f"n_classes={self.n_classes})")


def _rebuild_arena_dataset(path, labels, class_names, name, fingerprint):
    """Open (or unpickle) a dataset from an arena file.

    The reconstructor behind :meth:`Dataset.open_arena` and the
    zero-copy pickle path: ``labels``/``class_names``/``name`` override
    the file's values when a relabelled derivative was pickled;
    ``None`` means "use the file's". Workers unpickling a shipped
    dataset re-map the same on-disk pages instead of receiving a
    by-value copy of the words.
    """
    from .arena import ArenaFile

    with ArenaFile(path) as arena:
        if arena.n_segments == 1:
            words = arena.whole_words()
        else:
            words = np.empty((arena.n_items, arena.n_words),
                             dtype=np.uint64)
            column = 0
            for index in range(arena.n_segments):
                block = np.asarray(arena.segment_words(index))
                words[:, column:column + block.shape[1]] = block
                column += block.shape[1]
        native_labels = labels is None
        dataset = Dataset(
            arena.n_records,
            arena.catalog(),
            words,
            arena.labels() if labels is None else labels,
            arena.class_names if class_names is None else class_names,
            name=arena.name if name is None else name,
            validate_arena=False,
        )
        stamp = fingerprint if fingerprint is not None \
            else (arena.fingerprint or None)
        if stamp and native_labels and class_names is None:
            dataset._fingerprint = stamp
        elif stamp and fingerprint is not None:
            dataset._fingerprint = stamp
        dataset._arena_source = str(path)
        dataset._arena_labels_native = native_labels
    return dataset


def _encode_labels(
    class_labels: Sequence[object],
    class_names: Optional[Sequence[str]],
) -> Tuple[List[int], List[str]]:
    """Map raw labels to dense indices, preserving first-seen order."""
    if class_names is not None:
        names = [str(c) for c in class_names]
        index_of: Dict[str, int] = {c: i for i, c in enumerate(names)}
        indices = []
        for label in class_labels:
            key = str(label)
            if key not in index_of:
                raise DataError(f"label {key!r} not in class_names")
            indices.append(index_of[key])
        return indices, names
    index_of = {}
    names = []
    indices = []
    for label in class_labels:
        key = str(label)
        if key not in index_of:
            index_of[key] = len(names)
            names.append(key)
        indices.append(index_of[key])
    return indices, names
