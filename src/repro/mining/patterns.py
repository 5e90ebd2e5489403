"""The pattern set every miner returns, stored as columns.

Every registered miner (:mod:`repro.mining.registry`) returns one
:class:`PatternSet`: the mined patterns as parallel columns plus
provenance (which miner, which options). Row ``i`` of every column is
pattern ``i``, and the position is the pattern's id:

* ``matrix`` — a :class:`~repro.bitmat.BitMatrix` of the tidsets, one
  row per pattern. Over the native closed walk it is the walk's
  read-only arena itself, without a copy;
* ``supports`` — ``supp(X)`` per pattern (int64);
* ``item_ids`` / ``item_offsets`` — the catalog item ids of pattern
  ``i`` are ``item_ids[item_offsets[i]:item_offsets[i + 1]]`` (CSR);
* ``parent`` — the enumeration-tree parent's position (``-1`` for a
  root), or ``None``. Only the closed walk and the Section 7
  reduction fill it; it is what Diffsets storage (Section 4.2.2) and
  the reduction read.

Score (:func:`~repro.mining.rules.generate_rules`), the permutation
engine and STUCCO read the columns directly. ``PatternSet[i]`` and
iteration build a :class:`Pattern` view on access — the edge for
tests, plugins and the CLI. :meth:`PatternSet.pack` is the one way
pattern objects become a set (Apriori and FP-growth output, hand-built
lists, custom pipeline stages); :meth:`PatternSet.take` slices every
column at once. The constructor checks the shape of outside input:
equal-length columns, tidset rows of exactly ``n_records`` bits and
parents that precede their children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..bitmat import BitMatrix
from ..errors import MiningError
from ..jsonio import json_safe
from ..tidvector import TidVector

__all__ = [
    "PATTERNSET_SCHEMA_VERSION",
    "Pattern",
    "PatternSet",
    "patternset_from_frequent",
]

#: Version stamp of the :meth:`PatternSet.to_json` document shape.
#: Bump on any change to the field layout so persisted pattern sets
#: cannot be misread by newer code.
PATTERNSET_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Pattern:
    """One pattern, as a view of a :class:`PatternSet` row.

    Attributes
    ----------
    items:
        Catalog item ids of the pattern.
    tidset:
        Packed record set of the records containing the pattern.
    support:
        ``tidset.count()`` — the coverage of rules built on it.
    parent_id:
        Position of the tree parent in the owning set (``-1`` for a
        root or a set without a ``parent`` column).
        :meth:`PatternSet.pack` does not read it.
    """

    items: frozenset
    tidset: TidVector
    support: int
    parent_id: int = -1

    @property
    def length(self) -> int:
        """Number of items in the pattern."""
        return len(self.items)

    def to_json(self) -> Dict[str, object]:
        """Plain-JSON form (items and tids sorted)."""
        return {
            "items": sorted(int(i) for i in self.items),
            "tids": self.tidset.indices().tolist(),
            "support": self.support,
        }

    @classmethod
    def from_json(cls, payload: Mapping, n_records: int) -> "Pattern":
        """Rebuild a pattern from :meth:`to_json` output."""
        return cls(
            items=frozenset(int(i) for i in payload["items"]),
            tidset=TidVector.from_indices(
                (int(t) for t in payload["tids"]), n_records),
            support=int(payload["support"]),
        )


@dataclass(eq=False)
class PatternSet:
    """What one mining run produced: pattern columns plus provenance.

    A sized, indexable, iterable sequence of :class:`Pattern` views,
    carrying the mining parameters and the producing miner's identity
    so results stay auditable.

    Attributes
    ----------
    matrix:
        The tidsets, one :class:`~repro.bitmat.BitMatrix` row per
        pattern.
    supports:
        ``supp(X)`` per pattern (int64).
    item_ids, item_offsets:
        The patterns' catalog item ids in CSR form (int64).
    n_records:
        Size of the mined dataset.
    min_sup:
        The support floor the run used.
    parent:
        Position of each pattern's tree parent (``-1`` for a root), or
        ``None`` when the producer has no tree.
    algorithm:
        Canonical name of the registered miner that produced the set
        (stamped by :meth:`repro.mining.registry.Miner.mine`; empty
        for hand-built sets).
    provenance:
        Free-form audit trail: miner capabilities, options, and
        anything a miner wants to hand downstream (e.g. the
        ``general-rules`` miner stores its scored
        :class:`~repro.mining.general.GeneralRuleSet` under
        ``"general_rules"``).
    """

    matrix: BitMatrix
    supports: np.ndarray
    item_ids: np.ndarray
    item_offsets: np.ndarray
    n_records: int
    min_sup: int
    parent: Optional[np.ndarray] = None
    algorithm: str = ""
    provenance: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.supports = np.asarray(self.supports, dtype=np.int64)
        self.item_ids = np.asarray(self.item_ids, dtype=np.int64)
        self.item_offsets = np.asarray(self.item_offsets, dtype=np.int64)
        n = self.matrix.n_rows
        if self.parent is not None:
            self.parent = np.asarray(self.parent, dtype=np.int64)
        if self.supports.shape != (n,) \
                or self.item_offsets.shape != (n + 1,) \
                or (self.parent is not None and self.parent.shape != (n,)):
            raise MiningError(
                f"pattern columns differ in length: {n} tidset rows, "
                f"{self.supports.shape} supports, "
                f"{self.item_offsets.shape} item offsets")
        offsets = self.item_offsets
        if offsets[0] != 0 or offsets[-1] != len(self.item_ids) \
                or np.any(offsets[1:] < offsets[:-1]):
            raise MiningError(
                "item_offsets must rise from 0 to len(item_ids)")
        if self.matrix.n_records != self.n_records:
            raise MiningError(
                f"tidset rows hold {self.matrix.n_records} records, "
                f"expected {self.n_records}")
        tail = self.n_records % 64
        if n and tail:
            spill = np.flatnonzero(
                self.matrix.words[:, -1] >> np.uint64(tail))
            if spill.size:
                raise MiningError(
                    f"tidset of row {spill[0]} references records >= "
                    f"{self.n_records}")
        if self.parent is not None:
            bad = np.flatnonzero((self.parent >= np.arange(n))
                                 | (self.parent < -1))
            if bad.size:
                raise MiningError(
                    f"pattern {bad[0]} names parent "
                    f"{self.parent[bad[0]]}; parents must precede "
                    f"children")

    # -- building -----------------------------------------------------

    @classmethod
    def pack(cls, patterns: Sequence, n_records: int, min_sup: int, *,
             parent: Optional[Sequence[int]] = None, algorithm: str = "",
             provenance: Optional[Mapping[str, object]] = None,
             ) -> "PatternSet":
        """Pack pattern objects, in the given order, into columns.

        Accepts anything with ``items`` / ``tidset`` / ``support``
        (:class:`Pattern` views, :class:`~repro.mining.apriori.
        FrequentPattern`) whose tidsets are
        :class:`~repro.tidvector.TidVector` values. ``parent`` fills the
        tree column; the objects' own ``parent_id`` is not read. A
        tidset of another type (a bigint bitset) or outside
        ``n_records`` raises :class:`MiningError`.
        """
        patterns = list(patterns)
        try:
            matrix = BitMatrix.from_tidsets([p.tidset for p in patterns],
                                            n_records)
        except (TypeError, ValueError) as exc:
            raise MiningError(str(exc)) from exc
        items = [sorted(p.items) for p in patterns]
        offsets = np.zeros(len(patterns) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(i) for i in items], dtype=np.int64)
        return cls(
            matrix=matrix,
            supports=np.array([p.support for p in patterns], dtype=np.int64),
            item_ids=np.fromiter((i for row in items for i in row),
                                 dtype=np.int64, count=int(offsets[-1])),
            item_offsets=offsets, n_records=n_records, min_sup=min_sup,
            parent=parent, algorithm=algorithm,
            provenance=dict(provenance or {}))

    def take(self, rows: Sequence[int]) -> "PatternSet":
        """The patterns at ``rows`` (ascending), every column sliced.

        A parent outside ``rows`` is replaced by its nearest kept
        ancestor (``-1`` when none is kept), so the result is still a
        forest.
        """
        rows = np.asarray(rows, dtype=np.int64)
        item_ids, offsets = self.items_of(rows)
        parent = None
        if self.parent is not None:
            n = len(self)
            kept = np.zeros(n + 1, dtype=bool)
            kept[rows] = True
            kept[n] = True  # n stands for "no parent"
            up = np.append(np.where(self.parent < 0, n, self.parent), n)
            ancestor = fixpoint(np.where(kept, np.arange(n + 1), up))
            position = np.full(n + 1, -1, dtype=np.int64)
            position[rows] = np.arange(len(rows))
            parent = position[ancestor[up[rows]]]
        return PatternSet(
            matrix=BitMatrix(self.matrix.words[rows], self.n_records),
            supports=self.supports[rows], item_ids=item_ids,
            item_offsets=offsets, n_records=self.n_records,
            min_sup=self.min_sup, parent=parent, algorithm=self.algorithm,
            provenance=dict(self.provenance))

    def items_of(self, rows: Sequence[int],
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """``(item_ids, item_offsets)``: the CSR item columns of the
        patterns at ``rows`` (any order, repeats allowed)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.item_offsets[rows]
        lengths = self.item_offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        gather = (np.repeat(starts - offsets[:-1], lengths)
                  + np.arange(offsets[-1]))
        return self.item_ids[gather], offsets

    # -- sequence protocol: Pattern views built on access -------------

    def __len__(self) -> int:
        return self.matrix.n_rows

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        start, stop = self.item_offsets[i], self.item_offsets[i + 1]
        return Pattern(
            items=frozenset(self.item_ids[start:stop].tolist()),
            tidset=self.matrix.tidvector(i),
            support=int(self.supports[i]),
            parent_id=-1 if self.parent is None else int(self.parent[i]))

    def __iter__(self) -> Iterator[Pattern]:
        return (self[i] for i in range(len(self)))

    # -- conveniences -------------------------------------------------

    @property
    def patterns(self) -> "PatternSet":
        """The set itself, a sequence of :class:`Pattern` views."""
        return self

    @property
    def n_patterns(self) -> int:
        """Number of patterns (roots included)."""
        return len(self)

    @property
    def lengths(self) -> np.ndarray:
        """Number of items per pattern (int64)."""
        return np.diff(self.item_offsets)

    @property
    def n_hypotheses(self) -> int:
        """Rule-bearing patterns (non-empty ``items``): with two
        classes this is the multiple-testing denominator ``Nt``."""
        return int(np.count_nonzero(self.lengths))

    def to_json(self) -> Dict[str, object]:
        """Plain-JSON document of the whole set, versioned.

        Everything needed to rebuild the set — patterns with their
        tidsets (as sorted record-id lists), the parent column, the
        dataset size, the mining parameters and the producing miner —
        under a ``schema_version`` stamp. Provenance entries that are
        not JSON-serializable (e.g. the ``general-rules`` miner's
        scored rule object) are dropped; the structural payload always
        round-trips.
        """
        return {
            "schema_version": PATTERNSET_SCHEMA_VERSION,
            "n_records": self.n_records,
            "min_sup": self.min_sup,
            "algorithm": self.algorithm,
            "patterns": [pattern.to_json() for pattern in self],
            "parent": (None if self.parent is None
                       else self.parent.tolist()),
            "provenance": json_safe(self.provenance),
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "PatternSet":
        """Rebuild a set from :meth:`to_json` output.

        Raises :class:`MiningError` on a missing or unsupported
        ``schema_version`` — a persisted artifact from a different
        library version must fail loudly, not deserialize garbage.
        """
        version = payload.get("schema_version")
        if version != PATTERNSET_SCHEMA_VERSION:
            raise MiningError(
                f"cannot read PatternSet JSON with schema_version "
                f"{version!r}; this library writes/reads version "
                f"{PATTERNSET_SCHEMA_VERSION}")
        n_records = int(payload["n_records"])
        return cls.pack(
            [Pattern.from_json(p, n_records) for p in payload["patterns"]],
            n_records, int(payload["min_sup"]), parent=payload.get("parent"),
            algorithm=str(payload.get("algorithm", "")),
            provenance=payload.get("provenance"))


def fixpoint(link: np.ndarray) -> np.ndarray:
    """Follow ``link`` (every chain ends at an ``i`` with
    ``link[i] == i``) to the chain end, for every index at once."""
    while True:
        hop = link[link]
        if np.array_equal(hop, link):
            return link
        link = hop


def patternset_from_frequent(
    patterns: Sequence,
    n_records: int,
    min_sup: int,
    algorithm: str = "",
    provenance: Optional[Mapping[str, object]] = None,
) -> PatternSet:
    """Pack a flat frequent-pattern list under an empty root.

    Accepts anything with ``items`` / ``tidset`` / ``support`` (e.g.
    :class:`~repro.mining.apriori.FrequentPattern`). The empty root
    comes first, then the patterns by (length, sorted items) — the
    order both Apriori and FP-growth emit. An explicit empty pattern
    collapses into the root. The set has no ``parent`` column.
    """
    root = Pattern(items=frozenset(), tidset=TidVector.universe(n_records),
                   support=n_records)
    ordered = sorted((p for p in patterns if p.items),
                     key=lambda p: (len(p.items), tuple(sorted(p.items))))
    return PatternSet.pack([root] + ordered, n_records, min_sup,
                           algorithm=algorithm, provenance=provenance)
