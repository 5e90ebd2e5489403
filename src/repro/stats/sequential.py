"""Sequential Monte-Carlo p-values (Besag & Clifford 1991).

Section 4.2 invests heavily in making permutation testing affordable
(mine once, Diffsets, p-value buffers). This module adds the
complementary *statistical* cost reduction: when estimating a single
rule's empirical p-value by resampling, stop as soon as the verdict is
clear instead of always running all ``N`` permutations.

The Besag–Clifford sequential procedure draws null statistics one at a
time and stops when either

* ``h`` of them have been at least as extreme as the observed value
  (the rule is clearly *not* significant — its empirical p-value is
  large and more sampling cannot rescue it), or
* ``n_max`` draws have been made (the p-value is small; every draw was
  needed to resolve it).

The estimator ``p = (exceedances + 1) / (draws + 1)`` is a *valid*
p-value at any stopping point — ``P(p <= u) <= u`` under the null for
every ``u`` — so the early exit sacrifices no type-I-error control.
The expected number of draws for a clearly-null rule is about
``h / p_true``, typically a tiny fraction of ``n_max``; significant
rules still cost ``n_max`` draws, which is unavoidable (resolving a
small p-value needs many samples).

This complements, not replaces, the engine in
:mod:`repro.corrections.permutation`: the engine's vectorised
all-rules pass is the right tool for the *mining* phase, while the
sequential test suits the paper's FDR follow-up story — validating a
handful of candidate rules, where per-rule early stopping shines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import StatsError

__all__ = ["SequentialResult", "sequential_p_value",
           "sequential_rule_p_value"]


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of one sequential Monte-Carlo test.

    ``p_value`` is the Besag–Clifford estimate ``(h' + 1) / (m + 1)``
    with ``h'`` exceedances in ``m`` draws; ``stopped_early`` records
    whether the exceedance budget ``h`` was exhausted before
    ``n_max``.
    """

    p_value: float
    draws: int
    exceedances: int
    stopped_early: bool

    def summary(self) -> str:
        """One-line human-readable description."""
        mode = "early stop" if self.stopped_early else "full run"
        return (f"p={self.p_value:.4g} after {self.draws} draws "
                f"({self.exceedances} exceedances, {mode})")


def sequential_p_value(
    observed: float,
    sampler: Callable[..., float],
    h: int = 10,
    n_max: int = 1000,
    rng=None,
    seed: Optional[int] = None,
) -> SequentialResult:
    """Estimate ``P(null statistic <= observed)`` with early stopping.

    Parameters
    ----------
    observed:
        The observed test statistic. Convention: *smaller is more
        extreme* (statistics that are p-values themselves, as in the
        permutation pipeline, already satisfy this; negate otherwise).
    sampler:
        Draws one null statistic; receives the procedure's
        :class:`numpy.random.Generator`.
    h:
        Exceedance budget. Larger ``h`` lowers the estimator's
        variance for mid-range p-values at the price of later
        stopping; Besag & Clifford suggest 10-20.
    n_max:
        Hard cap on draws; the smallest resolvable p-value is
        ``1 / (n_max + 1)``.

    Notes
    -----
    Validity does not depend on ``h`` or ``n_max``: at any stopping
    time, ``(exceedances + 1) / (draws + 1)`` is super-uniform under
    the null (Besag & Clifford 1991, eq. 2).
    """
    if h < 1:
        raise StatsError(f"h must be >= 1, got {h}")
    if n_max < 1:
        raise StatsError(f"n_max must be >= 1, got {n_max}")
    if rng is not None and seed is not None:
        raise StatsError("give rng or seed, not both")
    generator = rng if rng is not None else np.random.default_rng(seed)
    exceedances = 0
    draws = 0
    while draws < n_max:
        draws += 1
        if sampler(generator) <= observed:
            exceedances += 1
            if exceedances >= h:
                return SequentialResult(
                    p_value=exceedances / draws,
                    draws=draws, exceedances=exceedances,
                    stopped_early=True)
    return SequentialResult(
        p_value=(exceedances + 1) / (draws + 1),
        draws=draws, exceedances=exceedances, stopped_early=False)


def sequential_rule_p_value(
    ruleset,
    rule_index: int,
    h: int = 10,
    n_max: int = 1000,
    seed: Optional[int] = None,
) -> SequentialResult:
    """Sequential empirical p-value of one mined rule.

    Re-scores the rule under label shuffling (the Section 4.2 null)
    one permutation at a time, stopping early when the rule is clearly
    not significant. Null p-values come from the rule set's
    :attr:`~repro.mining.rules.RuleSet.tables`, under its scorer.
    Intended for validating individual candidates — the engine's batch
    pass is cheaper per rule when *all* rules are needed.
    """
    from ..tidvector import TidVector

    rules = ruleset.rules
    if not 0 <= rule_index < len(rules):
        raise StatsError(f"rule_index {rule_index} out of range "
                         f"[0, {len(rules)})")
    rule = rules[rule_index]
    dataset = ruleset.dataset
    n = dataset.n_records
    pattern_tids = ruleset.matrix.tidvector(rule.pattern_id)
    coverage = rule.coverage
    tables = ruleset.tables
    class_bits = dataset.class_tidset(rule.class_index)
    n_c = class_bits.count()

    def shuffled_p(generator) -> float:
        # Shuffling labels == drawing which records carry class c;
        # only the pattern's overlap with that draw matters.
        chosen = generator.choice(n, size=n_c, replace=False)
        indicator = np.zeros(n, dtype=bool)
        indicator[chosen] = True
        support = pattern_tids.intersection_count(
            TidVector.from_bool(indicator))
        return tables.p_value(rule.class_index, coverage, support)

    return sequential_p_value(rule.p_value, shuffled_p, h=h,
                              n_max=n_max, seed=seed)
