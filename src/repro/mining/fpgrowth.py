"""FP-growth: pattern-growth mining of all frequent patterns.

A second full-pattern miner (Han, Pei & Yin, SIGMOD 2000) alongside the
level-wise Apriori baseline. FP-growth compresses the database into a
prefix tree (the *FP-tree*) whose paths share common prefixes, then
recursively mines *conditional* trees — one per suffix item — without
candidate generation. On dense attribute-valued data the tree is far
smaller than the record list, which is why pattern-growth miners
superseded Apriori in practice.

The miner returns the same :class:`~repro.mining.apriori.FrequentPattern`
records as :func:`~repro.mining.apriori.mine_apriori` (including exact
tidsets, reconstructed from the vertical bitsets at emission time), so
the two serve as independent cross-check oracles for each other and for
the closed miner: three implementations, one answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import MiningError
from ..tidvector import TidVector, as_tidvector
from .apriori import FrequentPattern

__all__ = ["FPTree", "FPNode", "mine_fpgrowth"]


@dataclass
class FPNode:
    """One FP-tree node: an item with the count of paths through it."""

    item: int
    count: int = 0
    parent: Optional["FPNode"] = None
    children: Dict[int, "FPNode"] = field(default_factory=dict)
    #: Next node carrying the same item (the header-table chain).
    link: Optional["FPNode"] = None

    def __repr__(self) -> str:
        return f"FPNode(item={self.item}, count={self.count})"


class FPTree:
    """Prefix tree over transactions with per-item header chains.

    Items inside each transaction are sorted by *descending global
    frequency* (ties broken by item id) before insertion, the ordering
    that maximises prefix sharing. The header table threads all nodes
    of an item together so conditional pattern bases can be read off in
    one chain walk.
    """

    def __init__(self) -> None:
        self.root = FPNode(item=-1)
        self.headers: Dict[int, FPNode] = {}
        self._tails: Dict[int, FPNode] = {}
        self.item_counts: Dict[int, int] = {}

    def insert(self, items: Sequence[int], count: int = 1) -> None:
        """Insert one (ordered) transaction with multiplicity ``count``."""
        if count < 1:
            raise MiningError("transaction count must be >= 1")
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = FPNode(item=item, parent=node)
                node.children[item] = child
                self._append_to_chain(item, child)
            child.count += count
            node = child
        for item in items:
            self.item_counts[item] = self.item_counts.get(item, 0) + count

    def _append_to_chain(self, item: int, node: FPNode) -> None:
        if item not in self.headers:
            self.headers[item] = node
        else:
            self._tails[item].link = node
        self._tails[item] = node

    def nodes_of(self, item: int) -> List[FPNode]:
        """All nodes carrying ``item``, in insertion order."""
        out: List[FPNode] = []
        node = self.headers.get(item)
        while node is not None:
            out.append(node)
            node = node.link
        return out

    def prefix_paths(self, item: int) -> List[Tuple[List[int], int]]:
        """Conditional pattern base of ``item``.

        Each entry is ``(path items from root, count)`` where the path
        excludes ``item`` itself and the count is the item node's.
        """
        paths: List[Tuple[List[int], int]] = []
        for node in self.nodes_of(item):
            path: List[int] = []
            up = node.parent
            while up is not None and up.item != -1:
                path.append(up.item)
                up = up.parent
            path.reverse()
            paths.append((path, node.count))
        return paths

    @property
    def n_nodes(self) -> int:
        """Number of item nodes (root excluded)."""
        total = 0
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children.values())
        return total

    def is_single_path(self) -> bool:
        """True when the tree is one chain (enables the fast exit)."""
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return False
            node = next(iter(node.children.values()))
        return True


def mine_fpgrowth(
    item_tidsets: Sequence,
    n_records: int,
    min_sup: int,
    max_length: Optional[int] = None,
) -> List[FrequentPattern]:
    """Mine all frequent patterns by recursive pattern growth.

    Parameters mirror :func:`~repro.mining.apriori.mine_apriori`
    (packed :class:`~repro.tidvector.TidVector` tidsets); the result is the identical pattern set
    ordered by (length, items). Tidsets are attached by intersecting
    the packed vertical rows at emission, so downstream rule scoring
    sees no difference between the two miners.
    """
    if min_sup < 1:
        raise MiningError(f"min_sup must be >= 1, got {min_sup}")
    if n_records < 0:
        raise MiningError("n_records must be non-negative")
    if max_length is not None and max_length < 1:
        return []
    try:
        vectors = [as_tidvector(t, n_records) for t in item_tidsets]
    except (TypeError, ValueError) as exc:
        raise MiningError(str(exc)) from exc
    supports = {item: tids.count()
                for item, tids in enumerate(vectors)}
    frequent = {item for item, supp in supports.items()
                if supp >= min_sup}
    # Descending frequency, item id as tie-break: the canonical FP order.
    rank = {item: position for position, item in enumerate(
        sorted(frequent, key=lambda i: (-supports[i], i)))}
    # Build transactions item-by-item from each tidset's set bits
    # (O(sum of supports)) instead of probing every item's bitset for
    # every record (O(n_records * n_items), ruinous on sparse data).
    # Visiting items in rank order leaves each transaction already
    # sorted by descending global frequency, and indices() yields
    # ascending record ids, so the insertion order — and therefore the
    # tree — is identical to the per-record construction.
    transactions: List[List[int]] = [[] for _ in range(n_records)]
    for item in sorted(frequent, key=lambda i: rank[i]):
        for record in vectors[item].indices():
            transactions[record].append(item)
    tree = FPTree()
    for transaction in transactions:
        if transaction:
            tree.insert(transaction)
    found: List[Tuple[int, ...]] = []
    _growth(tree, (), min_sup, max_length, found)
    found.sort(key=lambda items: (len(items), items))
    out: List[FrequentPattern] = []
    for items in found:
        tids = _intersect_tidsets(items, vectors, n_records)
        out.append(FrequentPattern(frozenset(items), tids,
                                   tids.count()))
    return out


def _growth(tree: FPTree, suffix: Tuple[int, ...], min_sup: int,
            max_length: Optional[int],
            out: List[Tuple[int, ...]]) -> None:
    """Emit every frequent extension of ``suffix`` found in ``tree``."""
    if max_length is not None and len(suffix) >= max_length:
        return
    # Least-frequent-first is the classical recursion order; any order
    # is correct, this one keeps conditional trees small.
    items = sorted(tree.item_counts,
                   key=lambda i: (tree.item_counts[i], -i))
    for item in items:
        support = tree.item_counts[item]
        if support < min_sup:
            continue
        extended = tuple(sorted(suffix + (item,)))
        out.append(extended)
        conditional = _conditional_tree(tree, item, min_sup)
        if conditional.item_counts:
            _growth(conditional, extended, min_sup, max_length, out)


def _conditional_tree(tree: FPTree, item: int, min_sup: int) -> FPTree:
    """Build the conditional FP-tree of ``item``.

    Prefix paths are filtered to items that remain frequent *within the
    pattern base* (conditional support), then reinserted in an order
    consistent with the parent tree (paths already share it).
    """
    paths = tree.prefix_paths(item)
    conditional_counts: Dict[int, int] = {}
    for path, count in paths:
        for path_item in path:
            conditional_counts[path_item] = (
                conditional_counts.get(path_item, 0) + count)
    keep = {i for i, c in conditional_counts.items() if c >= min_sup}
    conditional = FPTree()
    for path, count in paths:
        filtered = [i for i in path if i in keep]
        if filtered:
            conditional.insert(filtered, count)
    return conditional


def _intersect_tidsets(items: Sequence[int],
                       item_tidsets: Sequence[TidVector],
                       n_records: int) -> TidVector:
    tids = TidVector.universe(n_records)
    for item in items:
        tids &= item_tidsets[item]
    return tids
