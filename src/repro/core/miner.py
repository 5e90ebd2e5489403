"""The high-level public API: statistically sound rule mining.

:class:`SignificantRuleMiner` ties the whole paper together: mine
closed frequent patterns, score one hypothesis per rule with Fisher's
exact test, and control false positives with the multiple-testing
correction of your choice. :func:`mine_significant_rules` is the
one-call convenience wrapper. Both are thin layers over
:class:`~repro.core.pipeline.Pipeline` and the correction registry
(:mod:`repro.corrections.registry`) — use those directly to run
several corrections against one mining pass or to plug in your own
correction.

Example
-------
>>> from repro import mine_significant_rules
>>> from repro.data import make_german
>>> report = mine_significant_rules(make_german(), min_sup=60,
...                                 correction="bh", alpha=0.05)
>>> print(report.summary())            # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from ..corrections.base import CorrectionResult
from ..corrections.registry import CorrectionsView, resolve_correction
from ..data.dataset import Dataset
from ..errors import CorrectionError
from ..mining.rules import ClassRule, RuleSet
from .pipeline import Pipeline

__all__ = ["SignificantRuleMiner", "MiningReport",
           "mine_significant_rules", "CORRECTIONS"]

#: Live registry view: canonical correction name -> Table 3
#: abbreviation. Kept for backwards compatibility; the source of truth
#: is :func:`repro.corrections.available_corrections`, and corrections
#: registered by downstream code appear here automatically.
CORRECTIONS: Mapping[str, str] = CorrectionsView()


@dataclass
class MiningReport:
    """What a mining run hands back to the caller.

    ``ruleset`` is the full scored rule population (``None`` for the
    holdout corrections, which never score the whole dataset — that is
    their point); ``result`` carries the significant rules and the
    decision threshold.
    """

    dataset: Dataset
    correction: str
    result: CorrectionResult
    ruleset: Optional[RuleSet] = field(default=None, repr=False)

    @property
    def significant(self) -> List[ClassRule]:
        """Rules declared statistically significant."""
        return self.result.significant

    @property
    def n_tested(self) -> int:
        """Hypotheses the correction accounted for (``Nt``)."""
        return self.result.n_tests

    def summary(self) -> str:
        """One-line outcome description."""
        return (f"{self.dataset.name}: {self.result.summary()} "
                f"[correction={self.correction}]")

    def describe(self, limit: int = 20) -> str:
        """Multi-line listing of the most significant rules."""
        ordered = sorted(self.significant, key=lambda r: r.p_value)
        lines = [self.summary()]
        for rule in ordered[:limit]:
            lines.append("  " + rule.describe(self.dataset))
        if len(ordered) > limit:
            lines.append(f"  ... and {len(ordered) - limit} more")
        return "\n".join(lines)


class SignificantRuleMiner:
    """Configurable pipeline: mine, score, correct.

    Parameters
    ----------
    min_sup:
        Minimum coverage of a rule's left-hand side.
    min_conf:
        Domain-significance filter (Section 2.3 recommends choosing it
        from domain knowledge, independent of the statistics).
    algorithm:
        The registered miner enumerating the hypothesis set, in any
        accepted spelling (default ``"closed"``, the paper's choice);
        see ``python -m repro --list-algorithms`` and
        :mod:`repro.mining.registry`. ``miner_options`` passes extra
        keyword options to it.
    correction:
        Any registered correction, in any accepted spelling — the
        canonical name (``"bh"``), the Table 3 abbreviation (``"BH"``)
        or an alias; see :data:`CORRECTIONS` and
        ``python -m repro corrections``. The permutation corrections
        accept ``n_permutations``; the holdout corrections accept
        ``holdout_split`` (``"structured"`` or ``"random"``) and use
        the paper's convention of halving ``min_sup`` on the
        exploratory half.
    alpha:
        Error budget: FWER or FDR level depending on the correction.
    scorer:
        ``"fisher"`` (default), ``"fisher-midp"`` or ``"chi2"``.
    redundancy_delta:
        When set, apply the Section 7 representative-pattern reduction
        before scoring: near-duplicate sub/super-pattern chains whose
        supports agree within a factor ``1 - delta`` are collapsed to
        one representative, shrinking the hypothesis count ``Nt``. Not
        available with the holdout corrections (they mine their own
        halves).
    n_jobs / backend:
        Parallel execution of the permutation pass (``-1`` = all
        cores; backends ``"serial"``, ``"threads"``, ``"processes"``).
        Bit-identical results at any worker count; see
        ``docs/parallel.md``.
    """

    def __init__(self, min_sup: int, min_conf: float = 0.0,
                 correction: str = "bh", alpha: float = 0.05,
                 algorithm: str = "closed",
                 miner_options: Optional[Mapping[str, object]] = None,
                 n_permutations: int = 1000,
                 holdout_split: str = "random",
                 max_length: Optional[int] = None,
                 scorer: str = "fisher",
                 seed: Optional[int] = None,
                 redundancy_delta: Optional[float] = None,
                 n_jobs: int = 1,
                 backend: str = "serial") -> None:
        resolved = resolve_correction(correction)
        if (redundancy_delta is not None
                and not resolved.spec.supports_redundancy):
            raise CorrectionError(
                f"redundancy_delta is not supported with the "
                f"{resolved.name!r} correction (holdout corrections "
                f"mine their own halves)")
        self.min_sup = min_sup
        self.min_conf = min_conf
        # Variant spellings ("HD_BC") bind context overrides; storing
        # the canonical name would silently drop that binding.
        self.correction = (correction if resolved.overrides
                           else resolved.name)
        self.algorithm = algorithm
        self.miner_options = dict(miner_options or {})
        self.alpha = alpha
        self.n_permutations = n_permutations
        self.holdout_split = holdout_split
        self.max_length = max_length
        self.scorer = scorer
        self.seed = seed
        self.redundancy_delta = redundancy_delta
        self.n_jobs = n_jobs
        self.backend = backend

    def pipeline(self) -> Pipeline:
        """The single-correction :class:`Pipeline` for the *current*
        attribute values (attributes may be mutated between runs)."""
        return Pipeline(
            min_sup=self.min_sup, corrections=(self.correction,),
            algorithm=self.algorithm,
            miner_options=dict(self.miner_options),
            alpha=self.alpha, min_conf=self.min_conf,
            max_length=self.max_length, scorer=self.scorer,
            seed=self.seed, n_permutations=self.n_permutations,
            holdout_split=self.holdout_split,
            redundancy_delta=self.redundancy_delta,
            n_jobs=self.n_jobs, backend=self.backend)

    def mine(self, dataset: Dataset) -> MiningReport:
        """Run the configured pipeline on one dataset."""
        return self.pipeline().run(dataset).report()


def mine_significant_rules(dataset: Dataset, min_sup: int,
                           correction: str = "bh", alpha: float = 0.05,
                           **kwargs) -> MiningReport:
    """One-call pipeline; see :class:`SignificantRuleMiner`."""
    miner = SignificantRuleMiner(min_sup=min_sup, correction=correction,
                                 alpha=alpha, **kwargs)
    return miner.mine(dataset)
