"""The common pattern result model every miner adapts to.

Every registered miner (:mod:`repro.mining.registry`) returns one
:class:`PatternSet`: a DFS-ordered forest of :class:`Pattern` nodes
plus provenance (which miner, which options). Downstream consumers —
rule generation, the Section 7 representative reduction and the
permutation engine — all read the same five structural
facts off a node: dense ``node_id``, ``parent_id`` of an ancestor
emitted earlier, ``items``, ``tidset`` and ``support``. The model
therefore encodes the *contract* those consumers rely on:

* nodes are in DFS/topological order — a parent precedes its children
  (``parent_id < node_id``), so one forward pass can propagate
  per-node state;
* a child's tidset is a subset of its parent's, which is what makes
  the paper's Diffsets subtraction
  (``supp_c(child) = supp_c(parent) - |diff ∩ c|``) correct;
* ``node_id`` values are dense array positions, so forests can store
  per-node state in flat numpy arrays.

Closed miners emit this shape natively (the LCM enumeration tree).
All-frequent miners (Apriori, FP-growth) emit flat
:class:`~repro.mining.apriori.FrequentPattern` lists;
:func:`patternset_from_frequent` lifts those into a *prefix tree* —
each pattern's parent is the pattern minus its largest item, which by
anti-monotonicity is itself frequent, emitted earlier, and covers a
superset of the records — so every correction works identically on
all-frequent hypothesis sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from ..errors import MiningError
from ..jsonio import json_safe
from ..tidvector import TidVector, as_tidvector

__all__ = [
    "PATTERNSET_SCHEMA_VERSION",
    "Pattern",
    "PatternSet",
    "patternset_from_frequent",
    "patternset_from_tree",
]

#: Version stamp of the :meth:`PatternSet.to_json` document shape.
#: Bump on any change to the field layout so persisted forests (the
#: service's artifact store) cannot be misread by newer code.
PATTERNSET_SCHEMA_VERSION = 1


@dataclass
class Pattern:
    """One node of a pattern enumeration forest.

    Attributes
    ----------
    node_id:
        Dense index in emission order; parents precede children.
    parent_id:
        ``node_id`` of the tree parent (``-1`` for a root).
    items:
        Original catalog item ids of the pattern (frozen set).
    tidset:
        Packed record set (:class:`~repro.tidvector.TidVector`) of the
        records containing the pattern (a subset of the parent's
        tidset). Plugin miners may still supply bigint bitsets; every
        consumer coerces through
        :func:`~repro.tidvector.as_tidvector`.
    support:
        ``tidset.count()`` — the coverage of rules built on this
        pattern.
    depth:
        Distance from the root in the enumeration tree.
    """

    node_id: int
    parent_id: int
    items: frozenset
    tidset: TidVector
    support: int
    depth: int

    @property
    def length(self) -> int:
        """Number of items in the pattern."""
        return len(self.items)

    def to_json(self) -> Dict[str, object]:
        """Plain-JSON form of this node (items and tids sorted)."""
        if isinstance(self.tidset, TidVector):
            tid_list = [int(t) for t in self.tidset.indices()]
        else:  # bigint interop (plugin miners)
            bits = int(self.tidset)
            tid_list = []
            index = 0
            while bits:
                if bits & 1:
                    tid_list.append(index)
                bits >>= 1
                index += 1
        return {
            "node_id": self.node_id,
            "parent_id": self.parent_id,
            "items": sorted(int(i) for i in self.items),
            "tids": tid_list,
            "support": self.support,
            "depth": self.depth,
        }

    @classmethod
    def from_json(cls, payload: Mapping, n_records: int) -> "Pattern":
        """Rebuild a node from :meth:`to_json` output."""
        return cls(
            node_id=int(payload["node_id"]),
            parent_id=int(payload["parent_id"]),
            items=frozenset(int(i) for i in payload["items"]),
            tidset=TidVector.from_indices(
                (int(t) for t in payload["tids"]), n_records),
            support=int(payload["support"]),
            depth=int(payload["depth"]),
        )

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(id={self.node_id}, "
                f"items={sorted(self.items)}, support={self.support})")


@dataclass
class PatternSet:
    """What one mining run produced: a pattern forest plus provenance.

    A sequence of :class:`Pattern` nodes in DFS order (iterable,
    indexable, sized — drop-in wherever a pattern list was accepted:
    :func:`~repro.mining.rules.generate_rules`,
    :class:`~repro.corrections.permutation.PermutationEngine`,
    :func:`~repro.mining.representative.reduce_patterns`), carrying
    the mining parameters and the producing miner's identity so
    results remain auditable after the fact.

    Attributes
    ----------
    patterns:
        The forest nodes, DFS-ordered, ``node_id`` == position.
    n_records:
        Size of the mined dataset.
    min_sup:
        The support floor the run used.
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

    patterns: List[Pattern]
    n_records: int
    min_sup: int
    algorithm: str = ""
    provenance: Dict[str, object] = field(default_factory=dict)

    # -- sequence protocol: a PatternSet is its pattern list ----------

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.patterns)

    def __getitem__(self, index):
        return self.patterns[index]

    # -- conveniences -------------------------------------------------

    @property
    def n_patterns(self) -> int:
        """Number of nodes in the forest (roots included)."""
        return len(self.patterns)

    @property
    def n_hypotheses(self) -> int:
        """Rule-bearing patterns (non-empty ``items``): with two
        classes this is the multiple-testing denominator ``Nt``."""
        return sum(1 for pattern in self.patterns if pattern.items)

    def supports(self) -> List[int]:
        """Support of every node, in forest order."""
        return [pattern.support for pattern in self.patterns]

    def to_json(self) -> Dict[str, object]:
        """Plain-JSON document of the whole forest, versioned.

        Everything a consumer needs to rebuild the forest — nodes with
        their tidsets (as sorted record-id lists), the dataset size,
        the mining parameters and the producing miner — under a
        ``schema_version`` stamp. Provenance entries that are not
        JSON-serializable (e.g. the ``general-rules`` miner's scored
        rule object) are dropped; the structural payload always
        round-trips. Floats survive exactly (``json`` renders
        shortest-round-trip ``repr``), so re-rendered output is
        byte-identical to the original.
        """
        return {
            "schema_version": PATTERNSET_SCHEMA_VERSION,
            "n_records": self.n_records,
            "min_sup": self.min_sup,
            "algorithm": self.algorithm,
            "patterns": [pattern.to_json() for pattern in self.patterns],
            "provenance": json_safe(self.provenance),
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "PatternSet":
        """Rebuild a forest from :meth:`to_json` output.

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
        return cls(
            patterns=[Pattern.from_json(node, n_records)
                      for node in payload["patterns"]],
            n_records=n_records,
            min_sup=int(payload["min_sup"]),
            algorithm=str(payload.get("algorithm", "")),
            provenance=dict(payload.get("provenance") or {}),
        )

    def validate(self) -> "PatternSet":
        """Check the structural contract; return self when it holds.

        Verifies dense ids, topological parent order, and the
        child-tidset-is-a-subset invariant Diffsets storage needs.
        Raises :class:`MiningError` on the first violation.
        """
        for position, pattern in enumerate(self.patterns):
            if pattern.node_id != position:
                raise MiningError(
                    f"pattern at position {position} has node_id "
                    f"{pattern.node_id}; ids must be dense positions")
            if pattern.parent_id >= position:
                raise MiningError(
                    f"pattern {position} names parent "
                    f"{pattern.parent_id}; parents must precede "
                    f"children")
            if pattern.parent_id >= 0:
                parent = self.patterns[pattern.parent_id]
                try:
                    child_tids = as_tidvector(pattern.tidset,
                                              self.n_records)
                    parent_tids = as_tidvector(parent.tidset,
                                               self.n_records)
                except ValueError as exc:
                    raise MiningError(
                        f"pattern {position}: {exc}") from exc
                if not child_tids.is_subset(parent_tids):
                    raise MiningError(
                        f"pattern {position}'s tidset is not a subset "
                        f"of its parent's")
        return self


def patternset_from_tree(
    patterns: Sequence[Pattern],
    n_records: int,
    min_sup: int,
    algorithm: str = "",
    provenance: Optional[Mapping[str, object]] = None,
) -> PatternSet:
    """Wrap an already tree-shaped pattern list (closed miners).

    The closed miner's DFS output satisfies the forest contract as-is;
    this only attaches the provenance envelope.
    """
    return PatternSet(patterns=list(patterns), n_records=n_records,
                      min_sup=min_sup, algorithm=algorithm,
                      provenance=dict(provenance or {}))


def patternset_from_frequent(
    patterns: Sequence,
    n_records: int,
    min_sup: int,
    algorithm: str = "",
    provenance: Optional[Mapping[str, object]] = None,
) -> PatternSet:
    """Lift a flat frequent-pattern list into the forest contract.

    Accepts anything with ``items`` / ``tidset`` / ``support`` (e.g.
    :class:`~repro.mining.apriori.FrequentPattern`). Nodes are ordered
    by (length, sorted items) — the canonical emission order both
    Apriori and FP-growth produce — under a synthetic empty root, and
    each pattern's parent is the pattern minus its largest item: a
    frequent (anti-monotonicity), previously emitted (shorter)
    sub-pattern covering a superset of the records. The result is a
    genuine enumeration tree, so Diffsets storage and the permutation
    engine apply unchanged to all-frequent hypothesis sets.
    """
    root = Pattern(node_id=0, parent_id=-1, items=frozenset(),
                   tidset=TidVector.universe(n_records),
                   support=n_records, depth=0)
    nodes: List[Pattern] = [root]
    node_of: Dict[frozenset, int] = {root.items: 0}
    ordered = sorted(patterns,
                     key=lambda p: (len(p.items), tuple(sorted(p.items))))
    for pattern in ordered:
        items = frozenset(pattern.items)
        if not items:
            continue  # an explicit empty pattern collapses into the root
        prefix = (items - {max(items)} if len(items) > 1
                  else frozenset())
        # A max_length-capped or otherwise pruned input may lack the
        # prefix; the root is always a valid (superset-tidset) parent.
        parent_id = node_of.get(prefix, 0)
        node = Pattern(node_id=len(nodes), parent_id=parent_id,
                       items=items, tidset=pattern.tidset,
                       support=pattern.support, depth=len(items))
        node_of[items] = node.node_id
        nodes.append(node)
    return PatternSet(patterns=nodes, n_records=n_records,
                      min_sup=min_sup, algorithm=algorithm,
                      provenance=dict(provenance or {}))
