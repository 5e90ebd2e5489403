"""Synthetic dataset generator with embedded (planted) rules.

Implements the Section 5.1 generator: datasets are matrices whose rows
are records and whose columns are categorical attributes. A number of
class association rules are embedded first; cells not covered by any
embedded rule are filled uniformly at random, and class labels are
balanced across classes ("the records are evenly distributed in
different classes"). The full Table 1 parameter set is supported.

Two constructions are provided:

* :func:`generate` — a single dataset with ``Nr`` embedded rules.
* :func:`generate_paired` — the paper's holdout-fairness construction:
  two sub-datasets of ``N/2`` records each receive the *same* rules
  with half the coverage, then are catenated, so splitting at the
  midpoint gives an exploratory and an evaluation half that both
  contain every embedded rule.

The generator also *repairs* accidental coverage: after random filling,
records outside an embedded rule's chosen set that happen to contain the
full pattern get one of their cells flipped, so the realized coverage of
each embedded rule stays inside ``[min_s, max_s]`` as Table 1 promises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DataError
from ..tidvector import TidVector
from .dataset import Dataset

__all__ = [
    "GeneratorConfig",
    "EmbeddedRule",
    "SyntheticData",
    "generate",
    "generate_paired",
]


@dataclass(frozen=True)
class GeneratorConfig:
    """Table 1 parameters of the synthetic data generator.

    Field names follow the paper: ``n_records`` is N, ``n_classes`` is
    #C, ``n_attributes`` is A, ``min_values``/``max_values`` are
    min_v/max_v, ``n_rules`` is Nr, ``min_length``/``max_length`` are
    min_l/max_l, ``min_coverage``/``max_coverage`` are min_s/max_s and
    ``min_confidence``/``max_confidence`` are min_c/max_c.
    """

    n_records: int = 2000
    n_classes: int = 2
    n_attributes: int = 40
    min_values: int = 2
    max_values: int = 8
    n_rules: int = 0
    min_length: int = 2
    max_length: int = 16
    min_coverage: int = 400
    max_coverage: int = 600
    min_confidence: float = 0.6
    max_confidence: float = 0.8

    def validate(self) -> None:
        """Raise :class:`DataError` on out-of-range parameter values."""
        if self.n_records < 1:
            raise DataError("n_records must be positive")
        if self.n_classes < 2:
            raise DataError("n_classes must be at least 2")
        if self.n_attributes < 1:
            raise DataError("n_attributes must be positive")
        if not 2 <= self.min_values <= self.max_values:
            raise DataError("need 2 <= min_values <= max_values")
        if self.n_rules < 0:
            raise DataError("n_rules must be non-negative")
        if self.n_rules:
            if not 1 <= self.min_length <= self.max_length:
                raise DataError("need 1 <= min_length <= max_length")
            if self.min_length > self.n_attributes:
                raise DataError("min_length exceeds n_attributes")
            if not 1 <= self.min_coverage <= self.max_coverage:
                raise DataError("need 1 <= min_coverage <= max_coverage")
            if self.max_coverage > self.n_records:
                raise DataError("max_coverage exceeds n_records")
            if not 0.0 < self.min_confidence <= self.max_confidence <= 1.0:
                raise DataError(
                    "need 0 < min_confidence <= max_confidence <= 1")


@dataclass
class EmbeddedRule:
    """Ground truth for one planted rule ``X_t => c_t``.

    ``record_ids`` are the records deliberately covered at embedding
    time; ``item_ids`` and ``tidset`` describe the rule in the *final*
    dataset (after random filling and repair), which is what the
    Section 5.2 false-positive analysis consumes.
    """

    pairs: Tuple[Tuple[str, str], ...]
    class_index: int
    class_name: str
    target_coverage: int
    target_confidence: float
    record_ids: List[int] = field(default_factory=list)
    item_ids: frozenset = frozenset()
    #: Packed record set in the final dataset (``None`` until resolved).
    tidset: Optional[TidVector] = None

    @property
    def length(self) -> int:
        """Number of items on the left-hand side."""
        return len(self.pairs)

    @property
    def coverage(self) -> int:
        """Realized coverage ``supp(X_t)`` in the final dataset."""
        return self.tidset.count()

    def describe(self) -> str:
        """Human-readable ``{A=v, ...} => class`` rendering."""
        lhs = ", ".join(f"{a}={v}" for a, v in self.pairs)
        return f"{{{lhs}}} => {self.class_name}"


@dataclass
class SyntheticData:
    """A generated dataset together with its planted ground truth."""

    dataset: Dataset
    embedded_rules: List[EmbeddedRule]
    config: GeneratorConfig
    half_boundary: Optional[int] = None


@dataclass(frozen=True)
class _RuleSpec:
    """Internal description of a rule before it is placed in a matrix."""

    attribute_indices: Tuple[int, ...]
    values: Tuple[int, ...]
    class_index: int
    confidence: float


def generate(config: GeneratorConfig,
             seed: Optional[int] = None,
             rng: Optional[random.Random] = None,
             name: str = "synthetic") -> SyntheticData:
    """Generate one dataset with ``config.n_rules`` embedded rules."""
    config.validate()
    rng = _resolve_rng(seed, rng)
    cardinalities = _draw_cardinalities(config, rng)
    specs = [_draw_rule_spec(config, cardinalities, rng)
             for _ in range(config.n_rules)]
    coverages = [rng.randint(config.min_coverage, config.max_coverage)
                 for _ in specs]
    matrix, labels, placements = _build_matrix(
        config.n_records, config, cardinalities, specs, coverages, rng)
    return _finalize(matrix, labels, cardinalities, specs, placements,
                     config, name, half_boundary=None)


def generate_paired(config: GeneratorConfig,
                    seed: Optional[int] = None,
                    rng: Optional[random.Random] = None,
                    name: str = "synthetic-paired") -> SyntheticData:
    """Generate the catenated two-half construction of Section 5.1.

    Both halves of ``N/2`` records receive the same rules with coverage
    drawn from ``[min_s/2, max_s/2]``, so the full dataset carries
    coverages in ``[min_s, max_s]`` and a midpoint split is fair to the
    holdout approach.
    """
    config.validate()
    if config.n_records < 2:
        raise DataError("paired generation needs at least 2 records")
    rng = _resolve_rng(seed, rng)
    cardinalities = _draw_cardinalities(config, rng)
    specs = [_draw_rule_spec(config, cardinalities, rng)
             for _ in range(config.n_rules)]
    half_n = config.n_records // 2
    halves = []
    for _ in range(2):
        coverages = [
            rng.randint(max(1, config.min_coverage // 2),
                        max(1, config.max_coverage // 2))
            for _ in specs
        ]
        halves.append(_build_matrix(half_n, config, cardinalities, specs,
                                    coverages, rng))
    (matrix_a, labels_a, placements_a) = halves[0]
    (matrix_b, labels_b, placements_b) = halves[1]
    matrix = matrix_a + matrix_b
    labels = labels_a + labels_b
    placements = [
        list(pa) + [r + half_n for r in pb]
        for pa, pb in zip(placements_a, placements_b)
    ]
    return _finalize(matrix, labels, cardinalities, specs, placements,
                     config, name, half_boundary=half_n)


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------


def _resolve_rng(seed: Optional[int],
                 rng: Optional[random.Random]) -> random.Random:
    if rng is not None and seed is not None:
        raise DataError("give seed or rng, not both")
    if rng is not None:
        return rng
    return random.Random(seed)


def _draw_cardinalities(config: GeneratorConfig,
                        rng: random.Random) -> List[int]:
    return [rng.randint(config.min_values, config.max_values)
            for _ in range(config.n_attributes)]


def _draw_rule_spec(config: GeneratorConfig, cardinalities: Sequence[int],
                    rng: random.Random) -> _RuleSpec:
    length = rng.randint(config.min_length,
                         min(config.max_length, config.n_attributes))
    attribute_indices = tuple(sorted(
        rng.sample(range(config.n_attributes), length)))
    values = tuple(rng.randrange(cardinalities[a])
                   for a in attribute_indices)
    class_index = rng.randrange(config.n_classes)
    confidence = rng.uniform(config.min_confidence, config.max_confidence)
    return _RuleSpec(attribute_indices, values, class_index, confidence)


def _build_matrix(
    n_records: int,
    config: GeneratorConfig,
    cardinalities: Sequence[int],
    specs: Sequence[_RuleSpec],
    coverages: Sequence[int],
    rng: random.Random,
) -> Tuple[List[List[int]], List[int], List[List[int]]]:
    """Embed rules into a fresh matrix; fill, balance, and repair.

    Returns ``(matrix, labels, placements)`` where ``placements[k]`` is
    the list of record ids deliberately covered by ``specs[k]``.
    """
    n_attributes = config.n_attributes
    matrix: List[List[Optional[int]]] = [
        [None] * n_attributes for _ in range(n_records)
    ]
    owner: Dict[Tuple[int, int], int] = {}
    labels: List[Optional[int]] = [None] * n_records
    free_records = list(range(n_records))
    rng.shuffle(free_records)
    placements: List[List[int]] = []
    for k, (spec, coverage) in enumerate(zip(specs, coverages)):
        coverage = min(coverage, n_records)
        if len(free_records) >= coverage:
            chosen = [free_records.pop() for _ in range(coverage)]
        else:
            chosen = list(free_records)
            free_records.clear()
            remaining = coverage - len(chosen)
            pool = [r for r in range(n_records) if r not in set(chosen)]
            chosen.extend(rng.sample(pool, remaining))
        for r in chosen:
            for a, v in zip(spec.attribute_indices, spec.values):
                matrix[r][a] = v
                owner.setdefault((r, a), k)
        n_positive = round(spec.confidence * len(chosen))
        shuffled = list(chosen)
        rng.shuffle(shuffled)
        other_classes = [c for c in range(config.n_classes)
                         if c != spec.class_index]
        for i, r in enumerate(shuffled):
            if i < n_positive:
                labels[r] = spec.class_index
            else:
                labels[r] = rng.choice(other_classes)
        placements.append(sorted(chosen))
    _balance_labels(labels, config.n_classes, rng)
    _random_fill(matrix, cardinalities, rng)
    _repair_accidental_coverage(matrix, specs, placements, owner,
                                cardinalities, rng)
    return [list(row) for row in matrix], list(labels), placements


def _balance_labels(labels: List[Optional[int]], n_classes: int,
                    rng: random.Random) -> None:
    """Assign labels to untouched records so class totals are even."""
    n = len(labels)
    counts = [0] * n_classes
    unassigned = []
    for r, label in enumerate(labels):
        if label is None:
            unassigned.append(r)
        else:
            counts[label] += 1
    target = n // n_classes
    fill: List[int] = []
    for c in range(n_classes):
        fill.extend([c] * max(0, target - counts[c]))
    while len(fill) < len(unassigned):
        fill.append(rng.randrange(n_classes))
    rng.shuffle(fill)
    for r, c in zip(unassigned, fill):
        labels[r] = c


def _random_fill(matrix: List[List[Optional[int]]],
                 cardinalities: Sequence[int], rng: random.Random) -> None:
    for row in matrix:
        for a, value in enumerate(row):
            if value is None:
                row[a] = rng.randrange(cardinalities[a])


def _repair_accidental_coverage(
    matrix: List[List[int]],
    specs: Sequence[_RuleSpec],
    placements: Sequence[Sequence[int]],
    owner: Dict[Tuple[int, int], int],
    cardinalities: Sequence[int],
    rng: random.Random,
) -> None:
    """Break the pattern in records that match a rule by accident.

    A record outside ``placements[k]`` containing the full pattern of
    ``specs[k]`` gets one unowned cell of the pattern flipped to a
    different value. Cells owned by other rules are never touched, so
    deliberate embeddings survive; if every cell is owned the accident
    is tolerated.
    """
    for k, spec in enumerate(specs):
        placed = set(placements[k])
        for r, row in enumerate(matrix):
            if r in placed:
                continue
            if all(row[a] == v
                   for a, v in zip(spec.attribute_indices, spec.values)):
                candidates = [a for a in spec.attribute_indices
                              if (r, a) not in owner]
                if not candidates:
                    continue
                a = rng.choice(candidates)
                alternatives = [v for v in range(cardinalities[a])
                                if v != row[a]]
                row[a] = rng.choice(alternatives)


def _finalize(
    matrix: List[List[int]],
    labels: List[int],
    cardinalities: Sequence[int],
    specs: Sequence[_RuleSpec],
    placements: Sequence[List[int]],
    config: GeneratorConfig,
    name: str,
    half_boundary: Optional[int],
) -> SyntheticData:
    attribute_names = [f"A{j}" for j in range(config.n_attributes)]
    class_names = [f"c{j}" for j in range(config.n_classes)]
    records = [[f"v{v}" for v in row] for row in matrix]
    label_names = [class_names[c] for c in labels]
    dataset = Dataset.from_records(records, label_names, attribute_names,
                                   name=name, class_names=class_names)
    embedded: List[EmbeddedRule] = []
    for spec, placed in zip(specs, placements):
        pairs = tuple(
            (attribute_names[a], f"v{v}")
            for a, v in zip(spec.attribute_indices, spec.values)
        )
        item_ids = frozenset(dataset.catalog.ids_for_pairs(pairs))
        tidset = dataset.pattern_tidset(item_ids)
        embedded.append(EmbeddedRule(
            pairs=pairs,
            class_index=spec.class_index,
            class_name=class_names[spec.class_index],
            target_coverage=len(placed),
            target_confidence=spec.confidence,
            record_ids=list(placed),
            item_ids=item_ids,
            tidset=tidset,
        ))
    return SyntheticData(dataset, embedded, config,
                         half_boundary=half_boundary)
