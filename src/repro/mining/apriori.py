"""Apriori: level-wise mining of *all* frequent patterns.

The paper's pipeline uses closed patterns; this classic horizontal
baseline (Agrawal et al., SIGMOD 1993) enumerates every frequent
pattern. It serves two purposes here:

* a cross-check oracle for the closed miner — every frequent pattern's
  support must equal the support of some closed superset, and the
  closed miner's output must be exactly the support-maximal patterns;
* a baseline for the "closed vs all patterns" hypothesis-count ablation
  (fewer hypotheses means less correction burden, Section 7).

Candidate generation is the standard join of two (k-1)-patterns that
share a (k-2)-prefix, followed by the subset-pruning step; support
counting runs word-wise on the packed vertical representation
(:class:`~repro.tidvector.TidVector`), so the implementation stays
compact without being a toy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import MiningError
from ..tidvector import TidVector, as_tidvector

__all__ = ["FrequentPattern", "mine_apriori"]


@dataclass(frozen=True)
class FrequentPattern:
    """A frequent (not necessarily closed) pattern."""

    items: frozenset
    tidset: TidVector
    support: int

    @property
    def length(self) -> int:
        """Number of items in the pattern."""
        return len(self.items)


def mine_apriori(
    item_tidsets: Sequence,
    n_records: int,
    min_sup: int,
    max_length: Optional[int] = None,
) -> List[FrequentPattern]:
    """Mine all frequent patterns level-wise.

    ``item_tidsets`` entries are packed
    :class:`~repro.tidvector.TidVector` values (checked once at
    entry). Returns patterns of length >= 1
    ordered by (length, sorted items). Exponential in the worst case —
    intended for modest inputs (tests, ablations), not for the full
    benchmark datasets.
    """
    if min_sup < 1:
        raise MiningError(f"min_sup must be >= 1, got {min_sup}")
    if max_length is not None and max_length < 1:
        return []
    try:
        vectors = [as_tidvector(t, n_records) for t in item_tidsets]
    except (TypeError, ValueError) as exc:
        raise MiningError(str(exc)) from exc
    frequent_items: List[Tuple[int, TidVector, int]] = []
    for item_id, tids in enumerate(vectors):
        support = tids.count()
        if support >= min_sup:
            frequent_items.append((item_id, tids, support))
    frequent_items.sort(key=lambda t: t[0])
    out: List[FrequentPattern] = []
    level: Dict[Tuple[int, ...], TidVector] = {}
    for item_id, tids, support in frequent_items:
        key = (item_id,)
        level[key] = tids
        out.append(FrequentPattern(frozenset(key), tids, support))
    k = 1
    while level and (max_length is None or k < max_length):
        next_level: Dict[Tuple[int, ...], TidVector] = {}
        keys = sorted(level)
        current = set(keys)
        for a_index in range(len(keys)):
            a = keys[a_index]
            for b_index in range(a_index + 1, len(keys)):
                b = keys[b_index]
                if a[:-1] != b[:-1]:
                    # Sorted order guarantees no later key shares the
                    # prefix either.
                    break
                candidate = a + (b[-1],)
                if not _all_subsets_frequent(candidate, current):
                    continue
                tids = level[a] & level[b]
                support = tids.count()
                if support >= min_sup:
                    next_level[candidate] = tids
                    out.append(FrequentPattern(
                        frozenset(candidate), tids, support))
        level = next_level
        k += 1
    return out


def _all_subsets_frequent(candidate: Tuple[int, ...],
                          previous_level: set) -> bool:
    """Apriori pruning: every (k-1)-subset must be frequent."""
    return all(subset in previous_level
               for subset in combinations(candidate, len(candidate) - 1))
