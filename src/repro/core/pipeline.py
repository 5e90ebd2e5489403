"""Composable mining pipeline: Mine → Reduce → Score → Correct.

The paper's method is a pipeline: enumerate closed frequent patterns,
optionally collapse near-duplicate sub/super-pattern chains (Section
7), score one hypothesis per rule, and control false positives with a
multiple-testing correction. This module makes those stages explicit
objects so they can be inspected, re-ordered, or swapped, while two
registries supply the pluggable ends: the miner registry
(:mod:`repro.mining.registry`) behind the Mine stage (``algorithm=``,
default ``"closed"``) and the correction registry
(:mod:`repro.corrections.registry`) behind the Correct stage.

Example
-------
>>> from repro.core.pipeline import Pipeline
>>> from repro.data import make_german
>>> pipe = Pipeline(min_sup=60, corrections=("bonferroni", "BH"))
>>> result = pipe.run(make_german())            # doctest: +SKIP
>>> result.report("bh").summary()               # doctest: +SKIP

All corrections in one :class:`Pipeline` share a single mined ruleset,
a single permutation pass and a single holdout split per dataset —
the reuse the Section 5 experiment loop depends on. Out-of-tree
corrections registered with
:func:`repro.corrections.register_correction` work like built-ins:

>>> pipe = Pipeline(min_sup=60, corrections=("my-correction",))
... # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..corrections.base import CorrectionResult
from ..corrections.registry import (
    PipelineContext,
    ResolvedCorrection,
    resolve_correction,
)
from ..data.dataset import Dataset
from ..errors import CorrectionError, MiningError
from ..mining.patterns import PatternSet
from ..mining.registry import resolve_miner
from ..mining.representative import reduce_patterns
from ..mining.rules import RuleSet, generate_rules
from ..parallel import get_executor

__all__ = [
    "CorrectStage",
    "MineStage",
    "Pipeline",
    "PipelineContext",
    "PipelineResult",
    "PipelineState",
    "ReduceStage",
    "ScoreStage",
]


@dataclass
class PipelineState:
    """What flows between stages for one dataset.

    Stages fill the fields they own: ``patterns`` and
    ``n_patterns_mined`` (Mine), a possibly reduced ``patterns``
    (Reduce), ``ruleset`` (Score), ``results`` keyed by the
    *requested* method name (Correct). ``patterns`` is the miner's
    provenance-stamped :class:`~repro.mining.patterns.PatternSet`; a
    custom stage may replace it with a list of patterns, which Score
    packs.
    """

    patterns: Optional[PatternSet] = None
    n_patterns_mined: Optional[int] = None
    ruleset: Optional[RuleSet] = None
    results: Dict[str, CorrectionResult] = field(default_factory=dict)


class MineStage:
    """Pattern enumeration (Section 3) through the miner registry.

    The algorithm is resolved at *run* time — from this stage's
    ``algorithm`` override when given, else the context's — so miners
    registered after the pipeline was built (e.g. by a CLI
    ``--plugin``) still resolve.
    """

    name = "mine"

    def __init__(self, algorithm: Optional[str] = None) -> None:
        self.algorithm = algorithm

    def run(self, ctx: PipelineContext, state: PipelineState,
            ) -> PipelineState:
        if ctx.min_sup < 1:
            raise MiningError(
                f"min_sup must be >= 1, got {ctx.min_sup}")
        if ctx.min_sup > ctx.dataset.n_records:
            raise MiningError(
                f"min_sup={ctx.min_sup} exceeds dataset size "
                f"{ctx.dataset.n_records}")
        miner = resolve_miner(self.algorithm or ctx.algorithm)
        state.patterns = miner.mine(
            ctx.dataset, ctx.min_sup, max_length=ctx.max_length,
            **dict(ctx.miner_options))
        state.n_patterns_mined = len(state.patterns)
        return state


class ReduceStage:
    """Section 7 representative-pattern reduction (no-op unless
    ``ctx.redundancy_delta`` is set)."""

    name = "reduce"

    def run(self, ctx: PipelineContext, state: PipelineState,
            ) -> PipelineState:
        if ctx.redundancy_delta is None or state.patterns is None:
            return state
        state.patterns = reduce_patterns(state.patterns,
                                         delta=ctx.redundancy_delta)
        return state


class ScoreStage:
    """One scored hypothesis per rule (Fisher / mid-p / chi-square)."""

    name = "score"

    def run(self, ctx: PipelineContext, state: PipelineState,
            ) -> PipelineState:
        if state.patterns is None:
            return state
        state.ruleset = generate_rules(
            ctx.dataset, state.patterns, ctx.min_sup,
            min_conf=ctx.min_conf, scorer=ctx.scorer)
        return state


class CorrectStage:
    """Apply every requested correction through the registry.

    With ``ctx.n_jobs > 1`` the *independent* corrections (those that
    never touch the context's shared permutation/holdout caches) fan
    out across the context's intra-run executor; corrections that
    build or reuse shared state run serially first, in requested
    order, so the caches are populated race-free. Results land in
    ``state.results`` in requested order either way.
    """

    name = "correct"

    def __init__(self, corrections: Sequence[ResolvedCorrection]) -> None:
        self.corrections = tuple(corrections)

    def run(self, ctx: PipelineContext, state: PipelineState,
            ) -> PipelineState:
        stateful = [r for r in self.corrections
                    if r.spec.needs_permutations or r.spec.needs_holdout]
        stateless = [r for r in self.corrections
                     if not (r.spec.needs_permutations
                             or r.spec.needs_holdout)]
        executor = ctx.executor(intra_run=True)
        if executor.backend == "serial" or executor.n_jobs == 1 \
                or len(stateless) < 2:
            for resolved in self.corrections:
                state.results[resolved.requested] = resolved.apply(
                    state.ruleset, ctx.alpha, ctx)
            return state
        produced: Dict[str, CorrectionResult] = {}
        for resolved in stateful:
            produced[resolved.requested] = resolved.apply(
                state.ruleset, ctx.alpha, ctx)
        fanned = executor.map_shards(
            lambda resolved: resolved.apply(state.ruleset, ctx.alpha,
                                            ctx),
            stateless)
        for resolved, result in zip(stateless, fanned):
            produced[resolved.requested] = result
        for resolved in self.corrections:
            state.results[resolved.requested] = \
                produced[resolved.requested]
        return state


@dataclass
class PipelineResult:
    """Everything one :meth:`Pipeline.run` produced for one dataset.

    ``results`` is keyed by the method names as requested (``"BH"``
    stays ``"BH"``); :meth:`report` wraps one of them in the classic
    :class:`~repro.core.miner.MiningReport`.
    """

    dataset: Dataset
    context: PipelineContext
    state: PipelineState
    results: Dict[str, CorrectionResult]
    resolved: Dict[str, ResolvedCorrection] = field(default_factory=dict)

    @property
    def ruleset(self) -> Optional[RuleSet]:
        """The shared whole-dataset ruleset (``None`` when only
        holdout corrections ran)."""
        return self.state.ruleset

    def __getitem__(self, method: str) -> CorrectionResult:
        return self.results[method]

    def report(self, method: Optional[str] = None):
        """A :class:`MiningReport` for ``method`` (sole method when
        omitted)."""
        from .miner import MiningReport

        if method is None:
            if len(self.results) != 1:
                raise CorrectionError(
                    "report() needs an explicit method name when the "
                    f"pipeline ran {sorted(self.results)}")
            method = next(iter(self.results))
        if method not in self.results:
            raise CorrectionError(
                f"method {method!r} was not run; available: "
                f"{sorted(self.results)}")
        # The run's own resolution, not the live registry: results for
        # a correction unregistered since the run stay readable.
        resolved = self.resolved.get(method) or resolve_correction(method)
        ruleset = (None if resolved.spec.needs_holdout
                   else self.state.ruleset)
        return MiningReport(dataset=self.dataset,
                            correction=resolved.name,
                            result=self.results[method],
                            ruleset=ruleset)


class Pipeline:
    """The composable public pipeline.

    Parameters mirror :class:`~repro.core.miner.SignificantRuleMiner`
    but accept *several* corrections at once; all of them share one
    mining pass, one permutation pass, and one holdout split per
    dataset.

    Parameters
    ----------
    min_sup:
        Minimum coverage of a rule's left-hand side.
    corrections:
        Method names in any registered spelling (canonical name,
        Table 3 abbreviation, or alias).
    algorithm:
        The registered miner (:mod:`repro.mining.registry`) the Mine
        stage enumerates hypotheses with, in any accepted spelling.
        The default ``"closed"`` is the paper's hypothesis set;
        ``"apriori"``/``"fpgrowth"`` run the same corrections over
        *all* frequent patterns — the Section 7 hypothesis-count
        ablation. Stored as given and resolved at Mine-stage time, so
        miners registered after construction still work.
    miner_options:
        Extra keyword options for that miner (e.g. ``delta`` for
        ``"representative"``).
    alpha:
        Error budget: FWER or FDR level depending on the correction.
    n_jobs:
        Worker count for the parallel machinery (``-1`` = all cores):
        the permutation pass shards across workers, independent
        corrections fan out within :meth:`run`, and :meth:`run_many`
        fans datasets out. Results are bit-identical for every value.
    backend:
        ``"serial"`` (default), ``"threads"`` or ``"processes"`` —
        see :mod:`repro.parallel` and ``docs/parallel.md``.
    stages:
        Advanced: replace the default
        ``[MineStage, ReduceStage, ScoreStage]`` prefix with custom
        stage objects (each exposing ``run(ctx, state)``). The
        correction stage is always appended last.
    """

    def __init__(self, min_sup: int,
                 corrections: Sequence[str] = ("bh",),
                 algorithm: str = "closed",
                 miner_options: Optional[Dict[str, object]] = None,
                 alpha: float = 0.05,
                 min_conf: float = 0.0,
                 max_length: Optional[int] = None,
                 scorer: str = "fisher",
                 seed: Optional[int] = None,
                 n_permutations: int = 1000,
                 holdout_split: str = "random",
                 redundancy_delta: Optional[float] = None,
                 n_jobs: int = 1,
                 backend: str = "serial",
                 stages: Optional[Sequence[object]] = None) -> None:
        if isinstance(corrections, str):
            corrections = (corrections,)
        self.resolved = tuple(resolve_correction(name)
                              for name in corrections)
        if not self.resolved:
            raise CorrectionError("at least one correction is required")
        if redundancy_delta is not None:
            unsupported = [r.requested for r in self.resolved
                           if not r.spec.supports_redundancy]
            if unsupported:
                raise CorrectionError(
                    f"redundancy_delta is not supported with "
                    f"{sorted(unsupported)} (holdout corrections mine "
                    f"their own halves)")
        self.min_sup = min_sup
        self.algorithm = algorithm
        self.miner_options = dict(miner_options or {})
        self.alpha = alpha
        self.min_conf = min_conf
        self.max_length = max_length
        self.scorer = scorer
        self.seed = seed
        self.n_permutations = n_permutations
        self.holdout_split = holdout_split
        self.redundancy_delta = redundancy_delta
        executor = get_executor(backend, n_jobs)  # validates both
        self.n_jobs = executor.n_jobs
        self.backend = executor.backend
        self._default_stages = stages is None
        self._stages = (tuple(stages) if stages is not None
                        else (MineStage(), ReduceStage(), ScoreStage()))

    @property
    def methods(self) -> Tuple[str, ...]:
        """The method names as requested at construction."""
        return tuple(r.requested for r in self.resolved)

    def context(self, dataset: Dataset, **overrides: object,
                ) -> PipelineContext:
        """A fresh :class:`PipelineContext` for one dataset."""
        ctx = PipelineContext(
            dataset=dataset, min_sup=self.min_sup, alpha=self.alpha,
            min_conf=self.min_conf, max_length=self.max_length,
            algorithm=self.algorithm,
            miner_options=dict(self.miner_options),
            scorer=self.scorer, seed=self.seed,
            n_permutations=self.n_permutations,
            holdout_split=self.holdout_split,
            redundancy_delta=self.redundancy_delta,
            n_jobs=self.n_jobs, backend=self.backend)
        if overrides:
            ctx = ctx.override(**overrides)
        return ctx

    def stages(self) -> Tuple[object, ...]:
        """The stage sequence one :meth:`run` executes, in order."""
        return self._stages + (CorrectStage(self.resolved),)

    def run(self, dataset: Dataset,
            ctx: Optional[PipelineContext] = None) -> PipelineResult:
        """Execute every stage on one dataset."""
        if ctx is None:
            ctx = self.context(dataset)
        state = PipelineState()
        # Holdout-only runs mine their own halves, so the default
        # mine/reduce/score prefix is pure waste and is skipped. A
        # caller-supplied stage list is always executed in full — a
        # custom stage may carry side effects the caller asked for.
        skip_prefix = (self._default_stages
                       and all(r.spec.needs_holdout
                               for r in self.resolved))
        for stage in self.stages():
            if skip_prefix and not isinstance(stage, CorrectStage):
                continue
            state = stage.run(ctx, state)
        return PipelineResult(dataset=dataset, context=ctx, state=state,
                              results=state.results,
                              resolved={r.requested: r
                                        for r in self.resolved})

    def config(self, **overrides: object) -> Dict[str, object]:
        """The plain constructor kwargs reproducing this pipeline.

        Public accessor over the configuration the process-backend
        workers rebuild from; the service's job orchestrator uses it
        to derive artifact-cache keys (minus ``n_jobs``/``backend``,
        which never affect results). Custom stage objects are not part
        of the configuration.
        """
        return self._config(**overrides)

    def _config(self, **overrides: object) -> Dict[str, object]:
        """Constructor kwargs reproducing this pipeline (default
        stages only) — what a process worker rebuilds from."""
        config: Dict[str, object] = dict(
            min_sup=self.min_sup, corrections=self.methods,
            algorithm=self.algorithm,
            miner_options=dict(self.miner_options),
            alpha=self.alpha, min_conf=self.min_conf,
            max_length=self.max_length, scorer=self.scorer,
            seed=self.seed, n_permutations=self.n_permutations,
            holdout_split=self.holdout_split,
            redundancy_delta=self.redundancy_delta,
            n_jobs=self.n_jobs, backend=self.backend)
        config.update(overrides)
        return config

    def run_many(self, datasets: Iterable[Dataset],
                 methods: Optional[Sequence[str]] = None,
                 ) -> List[PipelineResult]:
        """Run on several datasets, optionally overriding the methods.

        Each dataset gets its own context (and thus its own shared
        permutation pass and holdout split); the stage configuration is
        reused across datasets. With ``n_jobs > 1`` the datasets fan
        out across the configured backend; under ``"processes"`` each
        worker rebuilds the pipeline from its plain configuration
        (custom stage objects therefore require ``"threads"`` or
        ``"serial"``) and runs its dataset with intra-run parallelism
        disabled — one pool, never nested pools.
        """
        pipeline = self
        if methods is not None:
            pipeline = Pipeline(
                **self._config(corrections=methods),
                stages=(None if self._default_stages
                        else self._stages))
        dataset_list = list(datasets)
        executor = get_executor(self.backend, self.n_jobs)
        if (executor.backend == "serial" or executor.n_jobs == 1
                or len(dataset_list) < 2):
            return [pipeline.run(dataset) for dataset in dataset_list]
        if executor.backend == "threads":
            # One pool, never nested pools: the dataset fan-out is the
            # pool, so each worker runs its dataset with intra-run
            # parallelism disabled (otherwise every permutation pass
            # and correct stage would open its own n_jobs-wide pool).
            def _run_intra_serial(dataset):
                return pipeline.run(
                    dataset, ctx=pipeline.context(
                        dataset, n_jobs=1, backend="serial"))

            results = executor.map_shards(_run_intra_serial,
                                          dataset_list)
            for result in results:
                # Report the configuration the caller asked for, not
                # the intra-run-serial override the worker ran under.
                result.context = result.context.override(
                    n_jobs=pipeline.n_jobs, backend=pipeline.backend)
            return results
        if not pipeline._default_stages:
            raise CorrectionError(
                "backend='processes' cannot ship custom stage objects "
                "to worker processes; use backend='threads' or "
                "'serial' for pipelines with custom stages")
        config = pipeline._config(n_jobs=1, backend="serial")
        # The configuration is identical for every dataset: hoist it to
        # the executor context (shipped once per worker per wave, and
        # never re-sent on retries) so each unit carries its dataset
        # only — which for arena-backed datasets is just a file path.
        slim = executor.map_shards(_run_one_worker, dataset_list,
                                   context=config)
        resolved = {r.requested: r for r in pipeline.resolved}
        return [PipelineResult(dataset=dataset,
                               # As above: surface the caller's
                               # configuration, not the worker's
                               # intra-run-serial override.
                               context=ctx.override(
                                   n_jobs=pipeline.n_jobs,
                                   backend=pipeline.backend),
                               state=state, results=state.results,
                               resolved=dict(resolved))
                for dataset, (ctx, state) in zip(dataset_list, slim)]


def _run_one_worker(config, dataset):
    """Run one dataset in a worker process.

    ``config`` is the hoisted executor context shared by every unit.
    Rebuilds the pipeline from its plain configuration (the resolved
    correction specs hold lambdas, which do not pickle) and returns
    only the context and state; the parent re-attaches its own
    resolved specs to reassemble the :class:`PipelineResult`.
    """
    result = Pipeline(**config).run(dataset)
    return result.context, result.state
