"""Replicated-experiment driver for the Section 5 studies.

The paper evaluates every correction approach on 100 datasets per
parameter setting and reports averaged power / FWER / FDR. This module
packages that loop: generate a synthetic dataset (paired construction
by default, so the structured holdout split is fair), mine once, apply
every requested method — sharing the permutation pass between
``Perm_FWER``/``Perm_FDR`` and the holdout split between ``*_BC`` /
``*_BH`` — classify each method's output against the planted ground
truth, and aggregate.

Methods are resolved through the correction registry
(:mod:`repro.corrections.registry`), so any accepted spelling works:
the Table 3 abbreviations (``"No correction"``, ``"BC"``, ``"BH"``,
``"Perm_FWER"``, ``"Perm_FDR"``, ``"HD_BC"``, ``"HD_BH"``, ``"RH_BC"``,
``"RH_BH"``, plus the extension procedures ``"Layered"``, ``"BY"``,
``"LAMP"``, ``"Holm"``, ``"Hochberg"``, ``"Sidak"``, ``"Storey"``,
``"BKY"`` and ``"Perm_FWER_SD"``), the canonical identifiers
(``"bh"``), and registered aliases — including corrections plugged in
by downstream code via
:func:`repro.corrections.register_correction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..corrections.base import CorrectionResult
from ..corrections.holdout import HoldoutRun
from ..corrections.registry import (
    PipelineContext,
    ResolvedCorrection,
    resolve_correction,
)
from ..data.dataset import Dataset
from ..data.synthetic import (
    EmbeddedRule,
    GeneratorConfig,
    SyntheticData,
    generate,
    generate_paired,
)
from ..errors import CorrectionError, EvaluationError, MiningError
from ..mining.registry import resolve_miner
from ..mining.rules import RuleSet, generate_rules
from ..parallel import get_executor
from .ground_truth import restrict_embedded
from .metrics import AggregateMetrics, DatasetOutcome, aggregate, \
    evaluate_results

__all__ = ["ExperimentRunner", "ExperimentResult", "ReplicateRecord",
           "METHOD_KEYS", "FWER_METHODS", "FDR_METHODS"]

#: The Table 3 method spellings, kept as the documented default
#: vocabulary; the runner accepts any spelling the registry resolves.
METHOD_KEYS = (
    "No correction",
    "BC",
    "BH",
    "Perm_FWER",
    "Perm_FDR",
    "HD_BC",
    "HD_BH",
    "RH_BC",
    "RH_BH",
    "Layered",
    "BY",
    "LAMP",
    "Holm",
    "Hochberg",
    "Sidak",
    "Storey",
    "BKY",
    "Perm_FWER_SD",
)

#: The paper's own nine methods (Table 3) — the runner default.
PAPER_METHODS = METHOD_KEYS[:9]

#: The method panels the FWER-controlling figures (8, 12) plot.
FWER_METHODS = ("No correction", "BC", "Perm_FWER", "HD_BC", "RH_BC")
#: The method panels the FDR-controlling figures (10, 13) plot.
FDR_METHODS = ("No correction", "BH", "Perm_FDR", "HD_BH", "RH_BH")


@dataclass
class ReplicateRecord:
    """Everything measured on one replicate dataset."""

    seed: int
    outcomes: Dict[str, DatasetOutcome]
    n_rules_tested: int
    tested_counts: Dict[str, int] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """Aggregated outcome of one experimental cell.

    ``mean_tested`` holds the Figure 6(b)/7/11 series: mean number of
    rules tested on the whole dataset, on each holdout exploratory
    half, and the candidate counts reaching each evaluation half.
    """

    config: GeneratorConfig
    min_sup: int
    alpha: float
    n_replicates: int
    aggregates: Dict[str, AggregateMetrics]
    mean_tested: Dict[str, float]
    replicates: List[ReplicateRecord] = field(default_factory=list,
                                              repr=False)

    def series(self, metric: str,
               methods: Sequence[str]) -> Dict[str, float]:
        """Extract one metric for a panel of methods."""
        out = {}
        for method in methods:
            agg = self.aggregates.get(method)
            if agg is None:
                continue
            out[method] = getattr(agg, metric)
        return out


class ExperimentRunner:
    """Drives replicated synthetic-data experiments.

    Parameters
    ----------
    methods:
        Method names to run (defaults to the paper's nine), resolved
        through the correction registry — Table 3 abbreviations,
        canonical names and aliases are all accepted. Results are
        keyed by the names exactly as given.
    alpha:
        Error level; the paper controls FWER and FDR at 5%.
    n_permutations:
        Permutation count for ``Perm_*``; the paper uses 1000 — scale
        down for quick runs.
    paired:
        Generate datasets with :func:`generate_paired` so the
        structured holdout split contains every embedded rule in both
        halves (the paper's construction).
    max_length:
        Optional pattern-length cap passed to the miner.
    algorithm:
        The registered miner (:mod:`repro.mining.registry`)
        enumerating each replicate's hypothesis set, in any accepted
        spelling (default ``"closed"``). Holdout methods mine their
        exploratory halves with the same algorithm, so the ablation
        grid (e.g. closed vs ``"fpgrowth"`` hypothesis counts) spans
        the whole method panel.
    n_jobs / backend:
        Fan the replicate grid (dataset × correction cells) out across
        workers (``-1`` = all cores; ``"serial"``, ``"threads"`` or
        ``"processes"``). Replicate seeds are drawn from the master
        seed *before* dispatch, and records are assembled in replicate
        order, so aggregates are identical at any worker count. Under
        ``"processes"`` each worker resolves the methods against its
        own registry — out-of-tree corrections must be registered at
        import time (e.g. via ``REPRO_PLUGINS``) to be visible there.
    """

    def __init__(self, methods: Sequence[str] = PAPER_METHODS,
                 alpha: float = 0.05, n_permutations: int = 1000,
                 paired: bool = True,
                 max_length: Optional[int] = None,
                 min_conf: float = 0.0,
                 algorithm: str = "closed",
                 n_jobs: int = 1,
                 backend: str = "serial") -> None:
        resolved: Dict[str, ResolvedCorrection] = {}
        for method in methods:
            try:
                resolved[method] = resolve_correction(method)
            except CorrectionError as exc:
                raise EvaluationError(str(exc)) from exc
        try:
            resolve_miner(algorithm)  # fail fast on typos
        except MiningError as exc:
            raise EvaluationError(str(exc)) from exc
        self.methods = tuple(methods)
        self._resolved = resolved
        self.alpha = alpha
        self.n_permutations = n_permutations
        self.paired = paired
        self.max_length = max_length
        self.min_conf = min_conf
        self.algorithm = algorithm
        executor = get_executor(backend, n_jobs)  # validates both
        self.n_jobs = executor.n_jobs
        self.backend = executor.backend

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, config: GeneratorConfig, min_sup: int,
            n_replicates: int = 100, seed: int = 0) -> ExperimentResult:
        """Run every method on ``n_replicates`` generated datasets."""
        if n_replicates < 1:
            raise EvaluationError("n_replicates must be >= 1")
        # Replicate seeds are drawn serially up front, so the grid is
        # fixed before any fan-out and results cannot depend on the
        # worker count or completion order.
        master = np.random.default_rng(seed)
        seeds = [int(s) for s in
                 master.integers(0, 1 << 48, size=n_replicates)]
        executor = get_executor(self.backend, self.n_jobs)
        if executor.backend == "processes":
            # ResolvedCorrection specs hold lambdas (unpicklable);
            # ship the plain configuration and let each worker
            # re-resolve the methods against its own registry.
            state = (self.methods, self.alpha, self.n_permutations,
                     self.paired, self.max_length, self.min_conf,
                     self.algorithm)
            records = executor.map_shards(
                _replicate_worker,
                [(state, config, min_sup, s) for s in seeds])
        else:
            records = executor.map_shards(
                lambda s: self.run_replicate(config, min_sup, s), seeds)
        aggregates = {
            method: aggregate([r.outcomes[method] for r in records])
            for method in self.methods
        }
        mean_tested = _mean_tested(records)
        return ExperimentResult(
            config=config, min_sup=min_sup, alpha=self.alpha,
            n_replicates=n_replicates, aggregates=aggregates,
            mean_tested=mean_tested, replicates=records,
        )

    def run_replicate(self, config: GeneratorConfig, min_sup: int,
                      seed: int) -> ReplicateRecord:
        """Generate one dataset and evaluate every method on it."""
        data = (generate_paired(config, seed=seed) if self.paired
                else generate(config, seed=seed))
        dataset = data.dataset
        if min_sup > dataset.n_records:
            raise MiningError(
                f"min_sup={min_sup} exceeds dataset size "
                f"{dataset.n_records}")
        # Resolved per replicate, not stored: process workers rebuild
        # the runner and must resolve against their own registry.
        patterns = resolve_miner(self.algorithm).mine(
            dataset, min_sup, max_length=self.max_length)
        ruleset = generate_rules(dataset, patterns, min_sup,
                                 min_conf=self.min_conf)
        ctx = PipelineContext(
            dataset=dataset, min_sup=min_sup, alpha=self.alpha,
            min_conf=self.min_conf, max_length=self.max_length,
            algorithm=self.algorithm,
            n_permutations=self.n_permutations,
            permutation_seed=seed ^ 0x5EED,
            holdout_seed=seed ^ 0xA5A5,
            holdout_boundary=data.half_boundary)
        tested_counts: Dict[str, int] = {"whole dataset": ruleset.n_tests}
        applied = [self._apply_resolved(self._resolved[method], data,
                                        ruleset, ctx, tested_counts)
                   for method in self.methods]
        # Methods that decided on the same dataset (the whole one, or
        # one holdout run's evaluation half) are classified together.
        groups: Dict[int, List[int]] = {}
        for i, (_, decision_dataset, _) in enumerate(applied):
            groups.setdefault(id(decision_dataset), []).append(i)
        by_index: Dict[int, DatasetOutcome] = {}
        for members in groups.values():
            _, decision_dataset, embedded = applied[members[0]]
            by_index.update(zip(members, evaluate_results(
                [applied[i][0] for i in members], embedded,
                decision_dataset)))
        outcomes = {method: by_index[i]
                    for i, method in enumerate(self.methods)}
        return ReplicateRecord(seed=seed, outcomes=outcomes,
                               n_rules_tested=ruleset.n_tests,
                               tested_counts=tested_counts)

    # ------------------------------------------------------------------
    # registry-driven application
    # ------------------------------------------------------------------

    def _apply_resolved(
        self,
        resolved: ResolvedCorrection,
        data: SyntheticData,
        ruleset: RuleSet,
        ctx: PipelineContext,
        tested_counts: Dict[str, int],
    ) -> Tuple[CorrectionResult, Dataset, List[EmbeddedRule]]:
        """Apply one registry-resolved method, sharing ctx state.

        Holdout methods decide on the evaluation half, so the ground
        truth is restricted to the rules embedded there; everything
        else decides on the whole dataset.
        """
        result = resolved.apply(ruleset, self.alpha, ctx)
        if not resolved.spec.needs_holdout:
            return result, data.dataset, data.embedded_rules
        split = resolved.context(ctx).holdout_split
        run = ctx.shared.get(f"holdout:{split}:{self.alpha:g}")
        if not isinstance(run, HoldoutRun):
            # An out-of-tree holdout correction that manages its own
            # split (never calls ctx.holdout_run) leaves no shared run
            # behind; evaluate it against the whole dataset's truth.
            return result, data.dataset, data.embedded_rules
        prefix = "HD" if split == "structured" else "RH"
        tested_counts.setdefault(f"{prefix}_exploratory",
                                 run.exploratory_rules.n_tests)
        tested_counts.setdefault(f"{prefix}_evaluation",
                                 len(run.candidates))
        eval_embedded = restrict_embedded(data.embedded_rules,
                                          run.evaluation)
        return result, run.evaluation, eval_embedded


def _replicate_worker(payload) -> ReplicateRecord:
    """Evaluate one replicate in a worker process.

    Rebuilds a single-use runner from the plain configuration (the
    parent's resolved specs hold lambdas, which do not pickle) with
    parallelism disabled — the grid fan-out is the one and only pool.
    """
    (methods, alpha, n_permutations, paired, max_length,
     min_conf, algorithm), config, min_sup, seed = payload
    runner = ExperimentRunner(
        methods=methods, alpha=alpha, n_permutations=n_permutations,
        paired=paired, max_length=max_length, min_conf=min_conf,
        algorithm=algorithm)
    return runner.run_replicate(config, min_sup, seed)


def _mean_tested(records: List[ReplicateRecord]) -> Dict[str, float]:
    keys: List[str] = []
    for record in records:
        for key in record.tested_counts:
            if key not in keys:
                keys.append(key)
    return {
        key: (sum(r.tested_counts.get(key, 0) for r in records)
              / len(records))
        for key in keys
    }
