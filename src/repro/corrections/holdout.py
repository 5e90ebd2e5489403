"""The holdout approach (Section 4.3; Webb, Machine Learning 2007).

The dataset is split into an *exploratory* and an *evaluation* half.
Rules are mined on the exploratory half (with ``min_sup`` halved, as in
all the paper's experiments) and every rule with raw ``p <= alpha``
becomes a *candidate*. Candidates are then re-scored on the evaluation
half, and significance is decided there with Bonferroni (FWER) or
Benjamini–Hochberg (FDR) over only the candidate count — typically
orders of magnitude smaller than the full hypothesis count.

Two splitting conventions from Section 5.1:

* ``split="structured"`` — the first ``boundary`` records form the
  exploratory half. Paired synthetic datasets
  (:func:`repro.data.synthetic.generate_paired`) embed every rule in
  both halves, so this split eliminates partitioning luck ("HD" in the
  figures).
* ``split="random"`` — a seeded random partition ("RH").
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bitmat import BitMatrix
from ..data.dataset import Dataset
from ..errors import CorrectionError
from ..mining.registry import resolve_miner
from ..mining.rules import (
    ClassRule,
    Rules,
    RuleSet,
    class_supports,
    generate_rules,
)
from ..stats.pvalue_tables import PValueTables, score_rules
from .base import (
    FDR,
    FWER,
    CorrectionResult,
    bh_step_up,
    validate_alpha,
)

__all__ = ["holdout", "HoldoutRun"]


class HoldoutRun:
    """A reusable split + exploratory mining, shared by BC and BH.

    Mining the exploratory half and re-scoring candidates dominates the
    cost; both error-control variants reuse this object.
    """

    def __init__(self, dataset: Dataset, min_sup: int,
                 alpha: float = 0.05,
                 split: str = "structured",
                 boundary: Optional[int] = None,
                 seed: Optional[int] = None,
                 min_conf: float = 0.0,
                 max_length: Optional[int] = None,
                 scorer: str = "fisher",
                 algorithm: str = "closed",
                 miner_options: Optional[Dict[str, object]] = None,
                 ) -> None:
        validate_alpha(alpha)
        if split not in ("structured", "random"):
            raise CorrectionError(f"unknown split {split!r}")
        if min_sup < 2:
            raise CorrectionError(
                "holdout needs min_sup >= 2 (it is halved on the "
                "exploratory dataset)")
        self.dataset = dataset
        self.min_sup = min_sup
        self.alpha = alpha
        self.split = split
        self.exploratory, self.evaluation = dataset.split_half(
            rng=random.Random(seed) if split == "random" else None,
            boundary=boundary)
        # The paper halves min_sup on the exploratory dataset. The
        # hypothesis set comes from the registered miner, so a
        # non-default ``algorithm`` carries into the split too.
        exploratory_min_sup = max(1, min_sup // 2)
        if exploratory_min_sup > self.exploratory.n_records:
            raise CorrectionError(
                f"min_sup={min_sup} leaves an exploratory min_sup of "
                f"{exploratory_min_sup}, exceeding the exploratory "
                f"half's {self.exploratory.n_records} records")
        self.algorithm = algorithm
        self.scorer = scorer
        patterns = resolve_miner(algorithm).mine(
            self.exploratory, exploratory_min_sup,
            max_length=max_length, **dict(miner_options or {}))
        explored = self.exploratory_rules = generate_rules(
            self.exploratory, patterns, exploratory_min_sup,
            min_conf=min_conf, scorer=scorer)
        candidates = explored.take(
            np.flatnonzero(explored.p_values() <= alpha))
        #: The exploratory rules with ``p <= alpha``, as views.
        self.candidates: Rules = candidates.rules
        #: The evaluation half's store (``None`` without candidates or
        #: under ``chi2``, which scores directly).
        self.evaluation_tables: Optional[PValueTables] = None
        #: Each candidate's coverage, support (int64) and p-value
        #: (float64) on the evaluation half, in candidate order.
        self.evaluated: Tuple[np.ndarray, np.ndarray, np.ndarray] = \
            self._score_candidates(candidates)

    def _score_candidates(self, candidates: RuleSet,
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Re-score every candidate on the evaluation half at once.

        A candidate's pattern need not be frequent (or closed) there;
        its tidset is re-derived from the evaluation half's item
        tidsets. All candidate tidsets are packed into one
        :class:`~repro.bitmat.BitMatrix`, so coverages are one
        hardware-popcount pass and per-class supports one
        :func:`~repro.mining.rules.class_supports` call for the classes
        on a candidate RHS — no per-candidate bigint walks. P-values
        use the run's scorer, from one store built for the candidates'
        keys on this half.
        """
        n_candidates = candidates.n_tests
        # A candidate absent from this half is unobservable there:
        # p = 1, never significant.
        p_values = np.ones(n_candidates)
        if not n_candidates:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, p_values
        evaluation = self.evaluation
        item_ids = candidates.patterns.item_ids
        offsets = candidates.patterns.item_offsets
        matrix = BitMatrix.from_tidsets(
            [evaluation.pattern_tidset(item_ids[offsets[i]:offsets[i + 1]])
             for i in candidates.pattern_ids.tolist()],
            evaluation.n_records)
        coverages = matrix.row_popcounts()
        labels = np.asarray(evaluation.class_labels, dtype=np.int64)
        classes = candidates.classes
        present = np.unique(classes)
        per_class = class_supports(matrix, coverages, labels[None, :],
                                   present.tolist(),
                                   evaluation.n_classes)[:, 0]
        supports = per_class[np.searchsorted(present, classes),
                             np.arange(n_candidates)]
        seen = (coverages > 0).nonzero()[0]
        evaluation_n_c = [evaluation.class_support(c)
                          for c in range(evaluation.n_classes)]
        p_values[seen], self.evaluation_tables = score_rules(
            evaluation.n_records, evaluation_n_c, classes[seen],
            coverages[seen], supports[seen], self.scorer)
        return coverages, supports, p_values

    def _significant(self, threshold: float) -> List[ClassRule]:
        """The candidates with evaluation ``p <= threshold``, each
        carrying its evaluation-half statistics."""
        coverages, supports, p_values = self.evaluated
        rows = np.flatnonzero(p_values <= threshold)
        return [replace(rule, coverage=s, support=k,
                        confidence=k / s if s else 0.0, p_value=p)
                for rule, s, k, p in zip(
                    self.candidates[rows], coverages[rows].tolist(),
                    supports[rows].tolist(), p_values[rows].tolist())]

    # ------------------------------------------------------------------
    # error control on the evaluation half
    # ------------------------------------------------------------------

    def bonferroni(self, alpha: Optional[float] = None) -> CorrectionResult:
        """FWER control: candidates with ``p_eval <= alpha / #cand``."""
        level = self.alpha if alpha is None else alpha
        validate_alpha(level)
        n_candidates = len(self.candidates)
        threshold = level / n_candidates if n_candidates else 0.0
        significant = self._significant(threshold)
        prefix = "HD" if self.split == "structured" else "RH"
        return CorrectionResult(
            method=f"{prefix}_BC", control=FWER, alpha=level,
            threshold=threshold, significant=significant,
            n_tests=n_candidates,
            details=self._details(),
        )

    def benjamini_hochberg(self, alpha: Optional[float] = None,
                           ) -> CorrectionResult:
        """FDR control: BH over the candidates' evaluation p-values."""
        level = self.alpha if alpha is None else alpha
        validate_alpha(level)
        threshold = bh_step_up(self.evaluated[2], level)
        significant = self._significant(threshold)
        prefix = "HD" if self.split == "structured" else "RH"
        return CorrectionResult(
            method=f"{prefix}_BH", control=FDR, alpha=level,
            threshold=threshold, significant=significant,
            n_tests=len(self.candidates),
            details=self._details(),
        )

    def _details(self) -> Dict[str, object]:
        return {
            "split": self.split,
            "n_exploratory_rules": self.exploratory_rules.n_tests,
            "n_candidates": len(self.candidates),
            "exploratory_min_sup": max(1, self.min_sup // 2),
            "exploratory_records": self.exploratory.n_records,
            "evaluation_records": self.evaluation.n_records,
        }


def holdout(dataset: Dataset, min_sup: int, alpha: float = 0.05,
            control: str = FWER, split: str = "structured",
            boundary: Optional[int] = None, seed: Optional[int] = None,
            min_conf: float = 0.0,
            max_length: Optional[int] = None,
            scorer: str = "fisher") -> CorrectionResult:
    """One-shot holdout evaluation; see :class:`HoldoutRun`.

    ``control`` picks Bonferroni (``"fwer"``) or BH (``"fdr"``) on the
    evaluation half.
    """
    run = HoldoutRun(dataset, min_sup, alpha=alpha, split=split,
                     boundary=boundary, seed=seed,
                     min_conf=min_conf, max_length=max_length,
                     scorer=scorer)
    if control == FWER:
        return run.bonferroni()
    if control == FDR:
        return run.benjamini_hochberg()
    raise CorrectionError(f"unknown control {control!r}")


from .registry import Correction, register_correction  # noqa: E402

register_correction(Correction(
    name="holdout-fwer", abbreviation="HD_BC / RH_BC", family=FWER,
    apply_fn=lambda ruleset, alpha, ctx:
        ctx.holdout_run(alpha=alpha).bonferroni(alpha),
    aliases=("holdout-bonferroni",),
    needs_holdout=True, supports_redundancy=False,
    variants={"HD_BC": {"holdout_split": "structured"},
              "RH_BC": {"holdout_split": "random"}},
    description="holdout: mine half, Bonferroni over candidates on "
                "the other half"))

register_correction(Correction(
    name="holdout-fdr", abbreviation="HD_BH / RH_BH", family=FDR,
    apply_fn=lambda ruleset, alpha, ctx:
        ctx.holdout_run(alpha=alpha).benjamini_hochberg(alpha),
    aliases=("holdout-bh",),
    needs_holdout=True, supports_redundancy=False,
    variants={"HD_BH": {"holdout_split": "structured"},
              "RH_BH": {"holdout_split": "random"}},
    description="holdout: mine half, BH over candidates on the "
                "other half"))
