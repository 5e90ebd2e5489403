"""Representative-pattern selection: the paper's Section 7 future work.

    "If the support of two patterns, X and X', is very close and X is a
    sub-pattern of X', then the two rules X => c and X' => c are
    essentially testing the same hypothesis. It is desirable to reduce
    the redundancy and retain a small number of representative patterns
    for testing. This way, the number of tests is reduced and the power
    of the correction approaches can be improved."

Closed patterns already remove *exact* duplicates (identical tidsets);
this module removes *near* duplicates. In the closed-pattern
enumeration tree a child's tidset is a subset of its parent's, so the
Jaccard similarity between a pattern and any ancestor is simply
``supp(descendant) / supp(ancestor)``. The clusters therefore follow
from the ``parent`` and ``supports`` columns of the closed pattern set
alone:

* the root's children start their own clusters;
* a node joins its parent's cluster when its support is within a
  factor ``1 - delta`` of its *parent's* support (``delta = 0`` keeps
  every closed pattern; larger ``delta`` merges more aggressively);
* the *representative* of a cluster is its shallowest member — the
  most general pattern, whose higher coverage gives the best attainable
  p-value for the shared hypothesis.

The merge test is per tree edge, so clusters are chains whose
*consecutive* supports are nearly identical; a member can drift up to
``(1 - delta)^depth`` below its representative over a long chain.
Testing the edge rather than the representative makes the reduction
**monotone in delta** (each edge merges independently, so raising
delta only coarsens the clustering) — the representative-relative
variant is not monotone, because a longer-lived high-support
representative can reject descendants that a fresher, smaller one
would have absorbed.

Testing only representatives shrinks the multiple-testing denominator
``Nt``; Bonferroni's per-test budget ``alpha / Nt`` grows accordingly,
which is exactly the power mechanism Section 7 anticipates. The
``test_ablation_representative`` bench measures both effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..data.dataset import Dataset
from ..errors import MiningError
from .closed import mine_closed
from .patterns import PatternSet, fixpoint
from .rules import RuleSet, generate_rules

__all__ = ["RepresentativeSelection", "select_representatives",
           "reduce_patterns", "mine_representative_rules"]


@dataclass
class RepresentativeSelection:
    """Outcome of clustering a closed pattern set.

    Attributes
    ----------
    representatives:
        The cluster representatives as a pattern set, in the input's
        order (a root is retained, so downstream consumers still see a
        rooted forest), parents remapped to the representatives.
    rows:
        The representatives' positions in the input (ascending).
    cluster_of:
        Every input position's representative position;
        representatives map to themselves.
    delta:
        The merge tolerance the selection was built with.
    """

    representatives: PatternSet
    rows: np.ndarray
    cluster_of: np.ndarray
    delta: float

    @property
    def n_input(self) -> int:
        """Number of patterns before reduction."""
        return len(self.cluster_of)

    @property
    def n_clusters(self) -> int:
        """Number of clusters (= number of representatives)."""
        return len(self.rows)

    @property
    def reduction(self) -> float:
        """Fraction of patterns removed, in [0, 1)."""
        if self.n_input == 0:
            return 0.0
        return 1.0 - self.n_clusters / self.n_input

    def members(self, representative: int) -> List[int]:
        """Positions absorbed by the given representative (itself
        included)."""
        return np.flatnonzero(self.cluster_of == representative).tolist()


def select_representatives(patterns: PatternSet,
                           delta: float = 0.1,
                           ) -> RepresentativeSelection:
    """Cluster a closed pattern set by support proximity.

    Parameters
    ----------
    patterns:
        A pattern set with a ``parent`` column, as
        :func:`~repro.mining.closed.mine_closed` returns.
    delta:
        Merge tolerance: pattern ``X`` joins its parent ``Y``'s cluster
        when ``supp(X) >= (1 - delta) * supp(Y)`` and ``Y`` has items.
        ``delta = 0`` merges only exact support ties along tree edges
        — for closed patterns those cannot exist, so nothing merges.

    Notes
    -----
    Clusters follow tree edges, so two patterns land in one cluster
    only when they sit on one root-to-leaf chain — precisely the
    sub-pattern/super-pattern redundancy Section 7 describes. Sibling
    patterns with similar supports but different record sets are never
    merged (they test genuinely different hypotheses). The number of
    representatives is non-increasing in ``delta``.
    """
    if not 0.0 <= delta < 1.0:
        raise MiningError(f"delta must be in [0, 1), got {delta}")
    if not isinstance(patterns, PatternSet) or patterns.parent is None:
        raise MiningError(
            "the representative reduction needs a pattern set with a "
            "parent column (the closed walk's output)")
    parent = patterns.parent
    supports = patterns.supports
    above = np.maximum(parent, 0)
    # Never absorb real patterns into an (empty) root's cluster: the
    # root is not a testable rule.
    joins = ((parent >= 0) & (patterns.lengths[above] > 0)
             & (supports >= (1.0 - delta) * supports[above]))
    cluster_of = fixpoint(np.where(joins, parent, np.arange(len(parent))))
    rows = np.flatnonzero(~joins)
    return RepresentativeSelection(
        representatives=patterns.take(rows), rows=rows,
        cluster_of=cluster_of, delta=delta)


def mine_representative_rules(
    dataset: Dataset,
    min_sup: int,
    delta: float = 0.1,
    min_conf: float = 0.0,
    max_length: Optional[int] = None,
    rhs_class: Optional[int] = None,
    scorer: str = "fisher",
    **kwargs,
) -> RuleSet:
    """Section 3 pipeline with Section 7's redundancy reduction.

    Mines closed patterns, keeps one representative per near-duplicate
    chain, and scores rules only on the representatives — so every
    downstream correction sees the reduced hypothesis count ``Nt``.
    The returned ruleset's ``patterns`` are the representatives in DFS
    order; ``pattern_id`` values index them.
    """
    if min_sup < 1:
        raise MiningError(f"min_sup must be >= 1, got {min_sup}")
    patterns = mine_closed(dataset.item_tidsets, dataset.n_records,
                           min_sup, max_length=max_length)
    reduced = reduce_patterns(patterns, delta=delta)
    return generate_rules(dataset, reduced, min_sup, min_conf=min_conf,
                          rhs_class=rhs_class, scorer=scorer, **kwargs)


def reduce_patterns(patterns: PatternSet,
                    delta: float = 0.1) -> PatternSet:
    """The representative patterns, ready for scoring.

    A removed parent is replaced by its cluster representative — which
    is retained and is an ancestor, because clusters are
    tree-connected — so the reduced set is still a forest.
    """
    return select_representatives(patterns, delta=delta).representatives
