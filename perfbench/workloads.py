"""The benchmark's workloads and the correctness check of their results.

Each workload is one fixed ``Pipeline(...)`` over one paper-shaped
dataset. The dataset content is fixed per size; the workload seed
reorders the records inside each half of the dataset and seeds the
pipeline (permutation labellings). Reordering inside the halves keeps
every half the same set of records, so the structured holdout split of
``fig6-holdout`` mines the same exploratory half at every seed and the
work per run does not depend on the seed. Re-drawing the generators
from the seed instead changes a run's length by 2-3x (see README.md).

Importing this module needs only the standard library; ``repro`` and
numpy are imported by :func:`build`, which is part of the timed set-up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Size:
    """One size of a workload: dataset recipe plus pipeline options."""

    make: Callable[[], object]
    pipeline: Dict[str, object]


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    corrections: Tuple[str, ...]
    sizes: Dict[str, Size]
    #: (smaller, larger) correction pairs whose significant sets nest
    #: by construction.
    inclusions: Tuple[Tuple[str, str], ...] = ()
    #: Whether the decisions depend on the seed. When they do not, the
    #: committed digest is checked at every seed, not only at seed 0.
    seed_dependent: bool = False


def _mushroom(n_records: Optional[int] = None):
    from repro.data import make_mushroom
    return make_mushroom(seed=0, n_records=n_records)


def _german(n_records: Optional[int] = None):
    from repro.data import make_german
    return make_german(seed=0, n_records=n_records)


def _fig6(n_records: int, n_attributes: int):
    from repro.data import GeneratorConfig, generate
    config = GeneratorConfig(n_records=n_records, n_attributes=n_attributes,
                             n_rules=0)
    return generate(config, seed=606).dataset


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="mushroom-bh",
        corrections=("BC", "BH"),
        sizes={
            "paper": Size(lambda: _mushroom(),
                          dict(min_sup=2000)),
            "tiny": Size(lambda: _mushroom(600),
                         dict(min_sup=150)),
        },
        inclusions=(("BC", "BH"),),
    ),
    Workload(
        name="german-perm",
        corrections=("Perm_FWER", "Perm_FDR"),
        sizes={
            "paper": Size(lambda: _german(),
                          dict(min_sup=40, n_permutations=1000)),
            "tiny": Size(lambda: _german(300),
                         dict(min_sup=30, n_permutations=40)),
        },
        seed_dependent=True,
    ),
    Workload(
        name="fig6-holdout",
        corrections=("HD_BC", "HD_BH"),
        sizes={
            "paper": Size(lambda: _fig6(2000, 40), dict(min_sup=60)),
            "tiny": Size(lambda: _fig6(800, 20), dict(min_sup=24)),
        },
        inclusions=(("HD_BC", "HD_BH"),),
    ),
)}


def build(workload: Workload, size: str, seed: int):
    """The seeded dataset and the fixed pipeline of one workload."""
    import numpy as np
    from repro import Pipeline

    base = workload.sizes[size].make()
    n = base.n_records
    half = n // 2
    order = np.arange(n)
    if seed:
        rng = np.random.default_rng(seed)
        order[:half] = rng.permutation(half)
        order[half:] = half + rng.permutation(n - half)
    dataset = base.subset(order.tolist(), name=base.name)
    pipeline = Pipeline(corrections=workload.corrections, seed=seed,
                        backend="serial", n_jobs=1,
                        **workload.sizes[size].pipeline)
    return dataset, pipeline


def decisions(result) -> Dict[str, Dict[str, object]]:
    """Per correction: ``n_tests`` and the sorted significant rules.

    Rules are named by their item strings and class name, never by ids
    or p-values, so the record order and the last ulp of a p-value do
    not enter the check.
    """
    dataset = result.dataset
    catalog = dataset.catalog
    out: Dict[str, Dict[str, object]] = {}
    for method, corrected in result.results.items():
        rules = sorted(
            (sorted(str(catalog.item(i)) for i in rule.items),
             str(dataset.class_names[rule.class_index]))
            for rule in corrected.significant)
        out[method] = {"n_tests": int(corrected.n_tests), "rules": rules}
    return out


def digest(decided: Dict[str, Dict[str, object]]) -> Dict[str, str]:
    """sha256 per correction of its ``n_tests`` and significant set."""
    return {method: hashlib.sha256(
        json.dumps(entry, sort_keys=True).encode()).hexdigest()
        for method, entry in decided.items()}


def check(workload: Workload, seed: int,
          decided: Dict[str, Dict[str, object]],
          first_digest: Optional[Dict[str, str]],
          expected: Optional[Dict[str, object]]) -> List[str]:
    """Why one run's decisions are wrong; empty when they are right.

    ``first_digest`` is the digest of the execution's first run, which
    every later run must equal. ``expected`` is the committed entry for
    this workload and size (``n_tests`` always applies; ``digest``
    applies at seed 0, or at every seed when the decisions do not
    depend on the seed).
    """
    problems: List[str] = []
    digests = digest(decided)
    if first_digest is not None and digests != first_digest:
        problems.append("decisions differ from the execution's first run")
    for smaller, larger in workload.inclusions:
        inner = {json.dumps(r) for r in decided[smaller]["rules"]}
        outer = {json.dumps(r) for r in decided[larger]["rules"]}
        if not inner <= outer:
            problems.append(f"{smaller} is not a subset of {larger}")
    if expected is not None:
        for method, n_tests in expected["n_tests"].items():
            if decided[method]["n_tests"] != n_tests:
                problems.append(
                    f"{method}: n_tests {decided[method]['n_tests']} "
                    f"!= expected {n_tests}")
        if seed == 0 or not workload.seed_dependent:
            for method, value in expected["digest"].items():
                if digests[method] != value:
                    problems.append(f"{method}: digest != expected")
    return problems
