"""Scalar reference implementation of the permutation pass.

:class:`repro.corrections.PermutationEngine` scores a shard's
labellings in memory-bounded blocks: one fused native pass per block,
or, without the native suite, one batched class-support call and the
numpy reductions. This module is the reference both must reproduce,
one labelling and one rule at a time:

* :func:`labellings` — labelling ``t`` is the original labels shuffled
  by a generator seeded with the ``t``-th child of
  ``SeedSequence(seed)``, the engine's seed scheme;
* :func:`rule_supports` — ``supp(R)`` of every rule under one
  labelling, as the bigint oracle's ``popcount(tidset & class_bits)``
  of the rule's pattern and its own RHS class (binary datasets too, so
  the engine's ``coverage - supp0`` derivation is checked, not copied)
  — no pattern forest involved;
* :func:`permutation_p_values` — every rule's p-value under every
  labelling, looked up in the rule set's
  :class:`~repro.stats.PValueTables` (``pvalue="cache"``, which the
  engine must match exactly) or recomputed by the scalar function of
  the rule set's scorer (``pvalue="direct"``):
  :func:`~repro.stats.fisher_two_tailed` and
  :func:`~repro.stats.fisher_two_tailed_midp` agree with the tables
  within rel 1e-9, :func:`~repro.stats.chi2_rule_p_value` fills the
  chi-square tables and so agrees exactly;
* :func:`statistics` — the sorted min-p distribution, the pooled
  counts and the step-down counts, by plain loops and ``bisect``.

:func:`reference` chains the four. Its results line up with the
engine's ``_min_p``, ``_pooled_counts`` and ``_stepdown_counts`` after
:meth:`~repro.corrections.PermutationEngine.run`.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

import numpy as np

from repro.stats import (
    chi2_rule_p_value,
    fisher_two_tailed,
    fisher_two_tailed_midp,
)

from .. import bigint_oracle as bs

__all__ = ["labellings", "rule_supports", "permutation_p_values",
           "statistics", "reference"]

PVALUE_SOURCES = ("cache", "direct")

#: The scalar p-value function of each scorer.
SCALAR_SCORERS = {
    "fisher": fisher_two_tailed,
    "fisher-midp": fisher_two_tailed_midp,
    "chi2": chi2_rule_p_value,
}


def labellings(ruleset, n_permutations: int,
               seed: int) -> List[np.ndarray]:
    """The engine's shuffled labellings, in permutation order."""
    labels = np.array(ruleset.dataset.class_labels, dtype=np.int64)
    children = np.random.SeedSequence(seed).spawn(n_permutations)
    return [np.random.default_rng(child).permutation(labels)
            for child in children]


def rule_supports(ruleset, labels: np.ndarray) -> List[int]:
    """``supp(R)`` of every rule (rule order) under ``labels``."""
    class_bits = {}
    supports = []
    for rule in ruleset.rules:
        c = rule.class_index
        if c not in class_bits:
            class_bits[c] = bs.from_numpy_bool(labels == c)
        tidset = int(ruleset.patterns[rule.pattern_id].tidset)
        supports.append(bs.popcount(tidset & class_bits[c]))
    return supports


def permutation_p_values(ruleset, n_permutations: int, seed: int,
                         pvalue: str = "cache") -> List[List[float]]:
    """Every rule's p-value under every labelling.

    Row ``t`` holds labelling ``t``'s p-values in rule order.
    """
    if pvalue not in PVALUE_SOURCES:
        raise ValueError(f"pvalue must be one of {PVALUE_SOURCES}")
    dataset = ruleset.dataset
    scalar = SCALAR_SCORERS[ruleset.scorer]
    rows = []
    for labels in labellings(ruleset, n_permutations, seed):
        row = []
        supports = rule_supports(ruleset, labels)
        for rule, support in zip(ruleset.rules, supports):
            if pvalue == "cache":
                p = ruleset.tables.p_value(rule.class_index,
                                           rule.coverage, support)
            else:
                p = scalar(support, dataset.n_records,
                           dataset.class_support(rule.class_index),
                           rule.coverage)
            row.append(p)
        rows.append(row)
    return rows


def statistics(observed: Sequence[float],
               perm_p: Sequence[Sequence[float]],
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(min_p, pooled, stepdown)`` of the given p-value rows.

    * ``min_p`` — each labelling's minimum p-value (1.0 without
      rules), sorted ascending;
    * ``pooled[i]`` — how many of all the permutation p-values are at
      most the ``i``-th smallest observed p-value;
    * ``stepdown[i]`` — how many labellings have a minimum p-value,
      over the rules ranked ``i`` and worse, at most the ``i``-th
      smallest observed p-value.

    Ranks follow a stable sort of ``observed``, as in the engine.
    """
    m = len(observed)
    order = sorted(range(m), key=lambda i: observed[i])
    observed_sorted = [observed[i] for i in order]
    min_p = sorted(min(row, default=1.0) for row in perm_p)
    pooled = [0] * m
    stepdown = [0] * m
    for row in perm_p:
        ranked = sorted(row)
        for i, obs in enumerate(observed_sorted):
            pooled[i] += bisect.bisect_right(ranked, obs)
        running = float("inf")
        for i in reversed(range(m)):
            running = min(running, row[order[i]])
            if running <= observed_sorted[i]:
                stepdown[i] += 1
    return (np.array(min_p, dtype=np.float64),
            np.array(pooled, dtype=np.int64),
            np.array(stepdown, dtype=np.int64))


def reference(ruleset, n_permutations: int, seed: int,
              pvalue: str = "cache",
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The engine's three statistics for ``(n_permutations, seed)``."""
    perm_p = permutation_p_values(ruleset, n_permutations, seed,
                                  pvalue=pvalue)
    return statistics([rule.p_value for rule in ruleset.rules], perm_p)
