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
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bitmat import BitMatrix
from ..data.dataset import Dataset
from ..errors import CorrectionError
from ..mining.registry import resolve_miner
from ..mining.rules import ClassRule, RuleSet, generate_rules
from ..stats.buffer_cache import BufferCache
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
        patterns = resolve_miner(algorithm).mine(
            self.exploratory, exploratory_min_sup,
            max_length=max_length, **dict(miner_options or {}))
        self.exploratory_rules: RuleSet = generate_rules(
            self.exploratory, patterns, exploratory_min_sup,
            min_conf=min_conf, scorer=scorer)
        self.candidates: List[ClassRule] = [
            rule for rule in self.exploratory_rules.rules
            if rule.p_value <= alpha
        ]
        self.evaluated: List[Tuple[ClassRule, ClassRule]] = \
            self._score_candidates()

    def _score_candidates(self) -> List[Tuple[ClassRule, ClassRule]]:
        """Re-score every candidate on the evaluation half at once.

        A candidate's pattern need not be frequent (or closed) there;
        its tidset is re-derived from the evaluation half's item
        tidsets. All candidate tidsets are packed into one
        :class:`~repro.bitmat.BitMatrix`, so coverages are one
        hardware-popcount pass and per-class supports one packed
        kernel call per class actually appearing on a candidate RHS —
        no per-candidate bigint walks.
        """
        candidates = self.candidates
        if not candidates:
            return []
        evaluation = self.evaluation
        matrix = BitMatrix.from_tidsets(
            [evaluation.pattern_tidset(rule.items)
             for rule in candidates],
            evaluation.n_records)
        coverages = matrix.row_popcounts()
        labels = np.asarray(evaluation.class_labels, dtype=np.int64)
        classes = np.array([rule.class_index for rule in candidates],
                           dtype=np.int64)
        if evaluation.n_classes == 2:
            # One kernel pass: class-1 supports derive from coverage.
            supp0 = matrix.class_supports(labels == 0)
            supports = np.where(classes == 0, supp0,
                                coverages - supp0)
        else:
            supports = np.empty(len(candidates), dtype=np.int64)
            for c in sorted(set(int(c) for c in classes)):
                mask = classes == c
                supports[mask] = matrix.class_supports(labels == c)[mask]
        evaluated: List[Tuple[ClassRule, ClassRule]] = []
        for i, rule in enumerate(candidates):
            coverage = int(coverages[i])
            support = int(supports[i])
            confidence = support / coverage if coverage else 0.0
            if coverage == 0:
                # Unobservable on this half: never significant.
                p_value = 1.0
            else:
                cache = self._cache_for(rule.class_index)
                p_value = cache.p_value(support, coverage)
            evaluated.append((rule, ClassRule(
                pattern_id=rule.pattern_id,
                items=rule.items,
                class_index=rule.class_index,
                coverage=coverage,
                support=support,
                confidence=confidence,
                p_value=p_value,
            )))
        return evaluated

    def _cache_for(self, class_index: int) -> BufferCache:
        if not hasattr(self, "_caches"):
            self._caches: Dict[int, BufferCache] = {}
        cache = self._caches.get(class_index)
        if cache is None:
            cache = BufferCache(
                self.evaluation.n_records,
                self.evaluation.class_support(class_index),
                min_sup=1)
            self._caches[class_index] = cache
        return cache

    # ------------------------------------------------------------------
    # error control on the evaluation half
    # ------------------------------------------------------------------

    def bonferroni(self, alpha: Optional[float] = None) -> CorrectionResult:
        """FWER control: candidates with ``p_eval <= alpha / #cand``."""
        level = self.alpha if alpha is None else alpha
        validate_alpha(level)
        n_candidates = len(self.candidates)
        threshold = level / n_candidates if n_candidates else 0.0
        significant = [scored for _, scored in self.evaluated
                       if scored.p_value <= threshold]
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
        eval_p = [scored.p_value for _, scored in self.evaluated]
        threshold = bh_step_up(eval_p, level) if eval_p else 0.0
        significant = [scored for _, scored in self.evaluated
                       if scored.p_value <= threshold]
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
