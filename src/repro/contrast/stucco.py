"""STUCCO: Search and Testing for Understandable Consistent Contrasts.

The miner enumerates candidate item conjunctions through the miner
registry (any ``"all-frequent"``-capable algorithm; Apriori's
level-wise enumeration by default, matching the original STUCCO),
counts per-group supports from tidsets, and applies Bay & Pazzani's
two filters — the deviation ("large") test and the depth-layered
chi-square ("significant") test. Both the survivors and the per-level
bookkeeping are returned so benches can show how the layered alpha
spends the error budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import Dataset
from ..errors import CorrectionError, MiningError, StatsError
from ..mining.registry import resolve_miner
from ..mining.rules import class_supports
from ..stats.chi2 import chi2_sf

__all__ = [
    "ContrastSet",
    "ContrastSetResult",
    "find_contrast_sets",
    "group_contingency",
    "stucco_alpha_levels",
]


@dataclass(frozen=True)
class ContrastSet:
    """One surviving contrast set with its cross-group statistics.

    ``group_supports[g]`` counts group-``g`` records containing the
    set; ``group_proportions[g]`` divides by the group size.
    """

    items: frozenset
    support: int
    group_supports: Tuple[int, ...]
    group_proportions: Tuple[float, ...]
    deviation: float
    chi2: float
    p_value: float

    @property
    def level(self) -> int:
        """Search depth: the number of items in the conjunction."""
        return len(self.items)

    def describe(self, dataset: Dataset) -> str:
        """Render with item names and per-group percentages."""
        lhs = dataset.catalog.describe_pattern(self.items)
        cells = ", ".join(
            f"{name}={proportion:.1%}"
            for name, proportion in zip(dataset.class_names,
                                        self.group_proportions))
        return (f"{lhs}  [{cells}]  dev={self.deviation:.1%} "
                f"chi2={self.chi2:.1f} p={self.p_value:.3g}")


@dataclass
class ContrastSetResult:
    """Mining outcome plus the per-level audit trail.

    ``candidates_per_level[l]`` is ``|C_l|``; ``alpha_per_level[l]``
    the layered level actually charged; ``rejected_large`` /
    ``rejected_significant`` count candidates killed by each filter.
    """

    dataset: Dataset
    min_deviation: float
    alpha: float
    contrast_sets: List[ContrastSet]
    candidates_per_level: Dict[int, int] = field(default_factory=dict)
    alpha_per_level: Dict[int, float] = field(default_factory=dict)
    rejected_large: int = 0
    rejected_significant: int = 0

    @property
    def n_found(self) -> int:
        """Number of surviving contrast sets."""
        return len(self.contrast_sets)

    def sorted_by_deviation(self) -> List[ContrastSet]:
        """Survivors, most contrasting first."""
        return sorted(self.contrast_sets,
                      key=lambda c: (-c.deviation, c.p_value))

    def describe(self, limit: int = 15) -> str:
        """Multi-line report of the largest contrasts."""
        lines = [f"{self.n_found} contrast sets on {self.dataset.name} "
                 f"(min_dev={self.min_deviation:.0%}, "
                 f"alpha={self.alpha:g}; "
                 f"{self.rejected_large} failed deviation, "
                 f"{self.rejected_significant} failed significance)"]
        for contrast in self.sorted_by_deviation()[:limit]:
            lines.append("  " + contrast.describe(self.dataset))
        if self.n_found > limit:
            lines.append(f"  ... and {self.n_found - limit} more")
        return "\n".join(lines)


def stucco_alpha_levels(alpha: float,
                        candidates_per_level: Dict[int, int],
                        ) -> Dict[int, float]:
    """Bay & Pazzani's layered significance levels.

    ``alpha_l = min(alpha / (2^l * |C_l|), alpha_{l-1})``: each level
    gets half the remaining budget, split Bonferroni-style over that
    level's candidates, and the sequence never loosens with depth.
    """
    if not 0.0 < alpha < 1.0:
        raise StatsError(f"alpha must be in (0, 1), got {alpha}")
    levels: Dict[int, float] = {}
    previous = float("inf")
    for level in sorted(candidates_per_level):
        count = max(1, candidates_per_level[level])
        layered = alpha / (2 ** level * count)
        value = min(layered, previous)
        levels[level] = value
        previous = value
    return levels


def group_contingency(tidset, dataset: Dataset,
                      ) -> Tuple[List[int], List[int]]:
    """Observed 2xG table of one pattern against the dataset's groups.

    ``tidset`` is a packed :class:`~repro.tidvector.TidVector`.
    Returns ``(containing, missing)``: per group, the number of
    records with and without the pattern.
    """
    from ..tidvector import as_tidvector

    tidset = as_tidvector(tidset, dataset.n_records)
    containing = []
    missing = []
    for g in range(dataset.n_classes):
        group_tids = dataset.class_tidset(g)
        inside = tidset.intersection_count(group_tids)
        containing.append(inside)
        missing.append(group_tids.count() - inside)
    return containing, missing


def _chi2_2xg(containing: Sequence[int],
              missing: Sequence[int]) -> Tuple[float, int]:
    """Chi-square statistic and dof of a 2xG contingency table.

    Groups with no records contribute nothing and drop from the
    degrees of freedom.
    """
    totals = [a + b for a, b in zip(containing, missing)]
    active = [g for g, t in enumerate(totals) if t > 0]
    n = sum(totals)
    row_containing = sum(containing)
    row_missing = sum(missing)
    if n == 0 or row_containing == 0 or row_missing == 0 \
            or len(active) < 2:
        return 0.0, max(1, len(active) - 1)
    statistic = 0.0
    for g in active:
        for observed, row_total in ((containing[g], row_containing),
                                    (missing[g], row_missing)):
            expected = row_total * totals[g] / n
            if expected > 0:
                delta = observed - expected
                statistic += delta * delta / expected
    return statistic, len(active) - 1


def find_contrast_sets(
    dataset: Dataset,
    min_deviation: float = 0.05,
    alpha: float = 0.05,
    min_sup: int = 1,
    max_length: Optional[int] = 3,
    correction: str = "stucco",
    algorithm: str = "apriori",
) -> ContrastSetResult:
    """Mine the large and significant contrast sets of a dataset.

    Parameters
    ----------
    min_deviation:
        The "large" threshold on the maximum pairwise difference of
        group proportions (Bay & Pazzani's ``delta``; a domain choice).
    alpha:
        Total error budget spread over levels by
        :func:`stucco_alpha_levels`.
    min_sup:
        Coverage floor for the candidate enumeration; 1 reproduces the
        original's exhaustive search, larger values bound the
        explosion on dense data.
    max_length:
        Depth cap on the search tree (None = unbounded).
    correction:
        ``"stucco"`` (layered levels, the method's contribution),
        ``"bonferroni"`` (flat ``alpha / total candidates``) or
        ``"none"`` (raw ``alpha`` per test — the uncontrolled baseline
        the ablation bench measures against).
    algorithm:
        The registered miner enumerating candidates; must advertise
        the ``"all-frequent"`` capability (STUCCO's layered budget
        charges *every* candidate conjunction, so a closed-only
        enumeration would under-count the levels). Default
        ``"apriori"``, the original's level-wise search.
    """
    if not 0.0 <= min_deviation <= 1.0:
        raise MiningError(
            f"min_deviation must be in [0, 1], got {min_deviation}")
    if min_sup < 1:
        raise MiningError(f"min_sup must be >= 1, got {min_sup}")
    if dataset.n_classes < 2:
        raise MiningError("contrast mining needs at least two groups")
    if correction != "stucco":
        # Flat regimes resolve through the correction registry so any
        # registered spelling ("BC", "raw", ...) works here too — but
        # the error always names the three values valid *here*, since
        # the registry's full listing is mostly unsupported by
        # contrast mining (and omits "stucco").
        from ..corrections.registry import resolve_correction
        supported = ("contrast mining supports the corrections "
                     "'stucco', 'bonferroni' and 'none' (registry "
                     "aliases of the latter two accepted)")
        try:
            correction = resolve_correction(correction).name
        except CorrectionError as exc:
            raise MiningError(
                f"unknown correction {correction!r}; {supported}"
            ) from exc
        if correction not in ("bonferroni", "none"):
            raise MiningError(f"{supported}; got {correction!r}")

    miner = resolve_miner(algorithm)
    if not miner.has_capability("all-frequent"):
        raise MiningError(
            f"contrast mining needs an 'all-frequent' miner (every "
            f"candidate conjunction is charged a level budget); "
            f"{miner.name!r} advertises "
            f"{sorted(miner.capabilities) or 'no capabilities'}")
    pattern_set = miner.mine(dataset, min_sup, max_length=max_length)
    candidates = pattern_set.take(np.flatnonzero(pattern_set.lengths))
    group_sizes = [dataset.class_support(g)
                   for g in range(dataset.n_classes)]
    # Per-group supports of every candidate at once: one
    # class_supports call over the candidates' matrix rows.
    labels = np.asarray(dataset.class_labels, dtype=np.int64)
    group_supports = class_supports(
        candidates.matrix, candidates.supports, labels[None, :],
        range(dataset.n_classes), dataset.n_classes)[:, 0].T

    levels = candidates.lengths.tolist()
    candidates_per_level: Dict[int, int] = {}
    for level in levels:
        candidates_per_level[level] = \
            candidates_per_level.get(level, 0) + 1
    if correction == "stucco":
        alpha_per_level = stucco_alpha_levels(alpha,
                                              candidates_per_level)
    elif correction == "bonferroni":
        total = max(1, sum(candidates_per_level.values()))
        alpha_per_level = {level: alpha / total
                           for level in candidates_per_level}
    else:
        alpha_per_level = {level: alpha
                           for level in candidates_per_level}

    survivors: List[ContrastSet] = []
    rejected_large = 0
    rejected_significant = 0
    for row, level in enumerate(levels):
        containing = [int(v) for v in group_supports[row]]
        missing = [group_sizes[g] - containing[g]
                   for g in range(dataset.n_classes)]
        proportions = tuple(
            containing[g] / group_sizes[g] if group_sizes[g] else 0.0
            for g in range(dataset.n_classes))
        deviation = max(proportions) - min(proportions)
        if deviation < min_deviation:
            rejected_large += 1
            continue
        statistic, dof = _chi2_2xg(containing, missing)
        p_value = chi2_sf(statistic, dof=dof)
        if p_value > alpha_per_level[level]:
            rejected_significant += 1
            continue
        pattern = candidates[row]
        survivors.append(ContrastSet(
            items=pattern.items,
            support=pattern.support,
            group_supports=tuple(containing),
            group_proportions=proportions,
            deviation=deviation,
            chi2=statistic,
            p_value=p_value,
        ))
    return ContrastSetResult(
        dataset=dataset,
        min_deviation=min_deviation,
        alpha=alpha,
        contrast_sets=survivors,
        candidates_per_level=candidates_per_level,
        alpha_per_level=alpha_per_level,
        rejected_large=rejected_large,
        rejected_significant=rejected_significant,
    )
