"""The pluggable correction registry.

Every multiple-testing correction the library ships is described by one
:class:`Correction` spec — canonical name, Table 3 abbreviation,
aliases, error-control family, capability flags, and an ``apply``
callable — and registered here at import time by its home module.
Downstream code (the miner, the pipeline, the experiment runner, the
CLI) enumerates and resolves corrections exclusively through this
registry, so adding a method is a single :func:`register_correction`
call, not a three-file surgery:

>>> from repro.corrections.registry import (
...     Correction, register_correction)
>>> def twice_alpha(ruleset, alpha, ctx):        # doctest: +SKIP
...     from repro.corrections.direct import no_correction
...     return no_correction(ruleset, min(1e-9 + 2 * alpha, 0.999))
>>> register_correction(Correction(                  # doctest: +SKIP
...     name="twice", abbreviation="2A", family="none",
...     apply_fn=twice_alpha))

Name resolution accepts the canonical identifier (``"bh"``), the
Table 3 abbreviation (``"BH"``), any registered alias, and
case-insensitive variants of all three. Abbreviation-only *variants*
(``"HD_BC"`` vs ``"RH_BC"``) resolve to their parent correction with
context overrides (here: the holdout split) bound in.

:class:`PipelineContext` is the shared state threaded through
``apply``: the dataset and mining parameters plus the seeded
permutation/holdout machinery, cached so that several corrections
applied to one mining run share a single permutation pass and a single
holdout split — exactly the reuse the Section 5 experiment loop needs.
"""

from __future__ import annotations

import difflib
import threading
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..errors import CorrectionError

__all__ = [
    "Correction",
    "PipelineContext",
    "ResolvedCorrection",
    "available_corrections",
    "correction_names",
    "get_correction",
    "register_correction",
    "resolve_correction",
    "unregister_correction",
]


@dataclass
class PipelineContext:
    """Shared state for one mining run, threaded through corrections.

    Carries the dataset, the mining parameters, and the seeded
    randomised machinery (permutation engine, holdout runs). The
    ``shared`` cache lets several corrections applied to the same run
    reuse one permutation pass and one holdout split — pass the same
    context to every ``apply`` call, as :class:`~repro.core.pipeline.
    Pipeline` and :class:`~repro.evaluation.runner.ExperimentRunner`
    do.

    ``permutation_seed`` / ``holdout_seed`` default to ``seed`` when
    unset; the experiment runner sets them to derived per-replicate
    seeds.

    ``algorithm`` names the registered miner
    (:mod:`repro.mining.registry`) the run enumerates hypotheses
    with; corrections that re-mine — the holdout split — honor it, so
    a non-default miner composes with the whole correction catalogue.
    ``miner_options`` are extra keyword options for that miner.
    """

    dataset: object = None
    min_sup: int = 1
    alpha: float = 0.05
    min_conf: float = 0.0
    max_length: Optional[int] = None
    algorithm: str = "closed"
    miner_options: Dict[str, object] = field(default_factory=dict)
    scorer: str = "fisher"
    seed: Optional[int] = None
    n_permutations: int = 1000
    permutation_seed: Optional[int] = None
    holdout_split: str = "random"
    holdout_boundary: Optional[int] = None
    holdout_seed: Optional[int] = None
    redundancy_delta: Optional[float] = None
    n_jobs: int = 1
    backend: str = "serial"
    shared: Dict[str, object] = field(default_factory=dict)

    def override(self, **changes: object) -> "PipelineContext":
        """A copy with ``changes`` applied, sharing the same caches."""
        clone = replace(self, **changes)  # type: ignore[arg-type]
        clone.shared = self.shared
        return clone

    def permutation_engine(self, ruleset):
        """The shared :class:`PermutationEngine` for ``ruleset``.

        Built lazily on first use and cached; re-built when asked
        about a different ruleset or under different permutation
        parameters (count / seed).
        """
        from .permutation import PermutationEngine

        seed = (self.permutation_seed
                if self.permutation_seed is not None else self.seed)
        # n_jobs/backend stay out of the cache key on purpose: they
        # change the schedule, never the result, so an engine built
        # under one executor configuration is reusable under another.
        params = (self.n_permutations, seed)
        engine = self.shared.get("permutation-engine")
        if (not isinstance(engine, PermutationEngine)
                or engine.ruleset is not ruleset
                or self.shared.get("permutation-engine-params") != params):
            engine = PermutationEngine(
                ruleset, n_permutations=self.n_permutations, seed=seed,
                n_jobs=self.n_jobs, backend=self.backend)
            self.shared["permutation-engine"] = engine
            self.shared["permutation-engine-params"] = params
        return engine

    def executor(self, intra_run: bool = False):
        """The :class:`~repro.parallel.Executor` for this context.

        ``intra_run=True`` asks for an executor suitable for fanning
        out *within* one run, where tasks share this context's mutable
        caches and closures are not picklable: the ``processes``
        backend is downgraded to ``threads`` there (documented in
        ``docs/parallel.md``).
        """
        from ..parallel import get_executor

        backend = self.backend
        if intra_run and backend == "processes":
            backend = "threads"
        return get_executor(backend, self.n_jobs)

    def holdout_run(self, split: Optional[str] = None,
                    alpha: Optional[float] = None):
        """The shared :class:`HoldoutRun` for ``split`` (default: the
        context's ``holdout_split``).

        The candidate pool is screened at ``alpha`` when the run is
        built, so the cache is keyed by alpha too — two applies at
        different levels must not share one candidate set.
        """
        from .holdout import HoldoutRun

        split = split or self.holdout_split
        level = self.alpha if alpha is None else alpha
        key = f"holdout:{split}:{level:g}"
        run = self.shared.get(key)
        if not isinstance(run, HoldoutRun):
            seed = (self.holdout_seed
                    if self.holdout_seed is not None else self.seed)
            run = HoldoutRun(
                self.dataset, self.min_sup, alpha=level, split=split,
                boundary=(self.holdout_boundary
                          if split == "structured" else None),
                seed=seed, min_conf=self.min_conf,
                max_length=self.max_length, scorer=self.scorer,
                algorithm=self.algorithm,
                miner_options=self.miner_options)
            self.shared[key] = run
        return run


#: Signature of a correction's apply callable.
ApplyFn = Callable[[object, float, PipelineContext], object]


@dataclass(frozen=True)
class Correction:
    """One registered multiple-testing correction.

    Attributes
    ----------
    name:
        Canonical identifier (``"bh"``), the key the public API uses.
    abbreviation:
        The Table 3 abbreviation (``"BH"``) used in reports and by the
        experiment runner.
    family:
        Error measure controlled: ``"fwer"``, ``"fdr"`` or ``"none"``.
    apply_fn:
        ``apply_fn(ruleset, alpha, ctx) -> CorrectionResult``. Holdout
        corrections ignore ``ruleset`` (they mine their own halves from
        ``ctx.dataset``).
    aliases:
        Additional resolvable spellings (all names resolve
        case-insensitively on top of these).
    needs_permutations:
        Uses the shared permutation pass (``ctx.permutation_engine``).
    needs_holdout:
        Splits the dataset itself (``ctx.holdout_run``); the pipeline
        skips whole-dataset mining when only such corrections run.
    supports_redundancy:
        Compatible with the Section 7 representative-pattern reduction.
    direct:
        A pure p-value adjustment applicable to any duck-typed scored
        rule collection (used e.g. to filter CPAR's induced rules).
    variants:
        Extra resolvable names bound to context overrides — e.g.
        ``{"HD_BC": {"holdout_split": "structured"}}``.
    description:
        One-line summary for listings.
    """

    name: str
    abbreviation: str
    family: str
    apply_fn: ApplyFn
    aliases: Tuple[str, ...] = ()
    needs_permutations: bool = False
    needs_holdout: bool = False
    supports_redundancy: bool = True
    direct: bool = False
    variants: Mapping[str, Mapping[str, object]] = \
        field(default_factory=dict)
    description: str = ""

    def apply(self, ruleset, alpha: float,
              ctx: Optional[PipelineContext] = None):
        """Apply this correction; a bare context is built when omitted."""
        if ctx is None:
            ctx = PipelineContext()
        return self.apply_fn(ruleset, alpha, ctx)

    def all_names(self) -> Tuple[str, ...]:
        """Every spelling this correction answers to."""
        return ((self.name, self.abbreviation) + tuple(self.aliases)
                + tuple(self.variants))


@dataclass(frozen=True)
class ResolvedCorrection:
    """A resolver hit: the spec plus any variant context overrides."""

    spec: Correction
    requested: str
    overrides: Mapping[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Canonical name of the resolved correction."""
        return self.spec.name

    def context(self, ctx: PipelineContext) -> PipelineContext:
        """``ctx`` with this variant's overrides applied."""
        if not self.overrides:
            return ctx
        return ctx.override(**dict(self.overrides))

    def apply(self, ruleset, alpha: float,
              ctx: Optional[PipelineContext] = None):
        """Apply the correction under the variant's overrides."""
        if ctx is None:
            ctx = PipelineContext()
        return self.spec.apply(ruleset, alpha, self.context(ctx))


_REGISTRY: Dict[str, Correction] = {}
# Lookup table: lower-cased spelling -> (canonical name, overrides).
_INDEX: Dict[str, Tuple[str, Mapping[str, object]]] = {}
# Serializes register/unregister. Re-entrant: an overwrite calls the
# unregister function while holding it.
_LOCK = threading.RLock()


def register_correction(spec: Correction,
                        overwrite: bool = False) -> Correction:
    """Add a correction to the registry and return it.

    Every spelling in ``spec.all_names()`` becomes resolvable
    (case-insensitively). Registering a name or alias that collides
    with an existing registration raises :class:`CorrectionError`
    unless ``overwrite=True``, in which case the previous owner of the
    canonical name is replaced wholesale.
    """
    if not spec.name:
        raise CorrectionError("correction name must be non-empty")
    if spec.family not in ("fwer", "fdr", "none"):
        raise CorrectionError(
            f"unknown correction family {spec.family!r}; "
            "expected 'fwer', 'fdr' or 'none'")
    with _LOCK:
        # Collision check BEFORE any mutation, so a rejected overwrite
        # leaves the previous registration fully intact. Spellings
        # owned by the spec being replaced don't count as collisions.
        # The replaced spec is found case-insensitively, like all
        # resolution.
        replaced = None
        if overwrite:
            hit = _INDEX.get(spec.name.lower())
            # Replace only the correction whose *canonical* name
            # matches; a hit through another spec's alias is a
            # collision, not a replacement target (deleting that spec
            # wholesale because of an alias clash would be far more
            # than the caller asked for).
            if hit is not None and hit[0].lower() == spec.name.lower():
                replaced = _REGISTRY[hit[0]]
        replaced_name = getattr(replaced, "name", None)
        taken = [spelling for spelling in spec.all_names()
                 if spelling.lower() in _INDEX
                 and _INDEX[spelling.lower()][0] != replaced_name]
        if taken:
            raise CorrectionError(
                f"cannot register correction {spec.name!r}: "
                f"name(s) {sorted(set(taken))} already registered")
        if replaced is not None:
            unregister_correction(replaced.name)
        _REGISTRY[spec.name] = spec
        for spelling in ((spec.name, spec.abbreviation)
                         + tuple(spec.aliases)):
            _INDEX[spelling.lower()] = (spec.name, {})
        for spelling, overrides in spec.variants.items():
            _INDEX[spelling.lower()] = (spec.name, dict(overrides))
    return spec


def unregister_correction(name: str) -> None:
    """Remove a correction (by any of its spellings) from the registry."""
    with _LOCK:
        resolved = _INDEX.get(name.lower())
        if resolved is None:
            raise CorrectionError(f"unknown correction {name!r}")
        spec = _REGISTRY.pop(resolved[0])
        for spelling in spec.all_names():
            _INDEX.pop(spelling.lower(), None)


def resolve_correction(name: str) -> ResolvedCorrection:
    """Resolve any accepted spelling to its registered correction.

    Raises :class:`CorrectionError` listing the valid names (canonical
    names, abbreviations and aliases) and a did-you-mean suggestion for
    near-miss spellings.
    """
    if not isinstance(name, str):
        raise CorrectionError(
            f"correction name must be a string, got {type(name).__name__}")
    hit = _INDEX.get(name.lower())
    if hit is None:
        raise CorrectionError(_unknown_message(name))
    canonical, overrides = hit
    return ResolvedCorrection(spec=_REGISTRY[canonical], requested=name,
                              overrides=overrides)


def get_correction(name: str) -> Correction:
    """The :class:`Correction` spec behind any accepted spelling."""
    return resolve_correction(name).spec


def available_corrections() -> List[Correction]:
    """All registered corrections, in registration order."""
    return list(_REGISTRY.values())


def correction_names() -> List[str]:
    """Canonical names of all registered corrections, sorted."""
    return sorted(_REGISTRY)


def _accepted_spellings() -> List[str]:
    seen = []
    for spec in _REGISTRY.values():
        for spelling in spec.all_names():
            # Compound display abbreviations ("HD_BC / RH_BC") are
            # resolvable but not worth advertising next to their parts.
            if "/" not in spelling and spelling not in seen:
                seen.append(spelling)
    return seen


def _unknown_message(name: str) -> str:
    spellings = _accepted_spellings()
    message = (f"unknown correction {name!r}; valid names: "
               f"{sorted(spellings, key=str.lower)}")
    close = difflib.get_close_matches(
        name.lower(), [s.lower() for s in spellings], n=1, cutoff=0.6)
    if close:
        # Report the original casing of the matched spelling.
        original = next(s for s in spellings if s.lower() == close[0])
        message += f" — did you mean {original!r}?"
    return message


class CorrectionsView(Mapping):
    """Live read-only mapping: canonical name -> Table 3 abbreviation.

    Backwards-compatible stand-in for the old hard-coded
    ``repro.core.CORRECTIONS`` dict; reflects the registry, so
    out-of-tree registrations appear automatically.
    """

    def __getitem__(self, key: str) -> str:
        spec = _REGISTRY.get(key)
        if spec is None:
            raise KeyError(key)
        return spec.abbreviation

    def __iter__(self) -> Iterator[str]:
        return iter(_REGISTRY)

    def __len__(self) -> int:
        return len(_REGISTRY)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorrectionsView({dict(self)!r})"
