"""Ablation: closed patterns vs all frequent patterns as hypotheses.

Section 3 of the paper uses closed patterns so that rules occurring in
the same record set are tested once; Section 7 flags further
redundancy reduction as future work. This bench quantifies the choice:
on redundant data (mushroom-like) the closed representation tests
fewer hypotheses, which directly loosens the Bonferroni cut-off —
power for free, with an identical significant-tidset population.
"""

from __future__ import annotations

from _scale import banner, current_scale
from repro.data import load_real_dataset
from repro.evaluation import format_table
from repro.mining import generate_rules, mine_apriori, mine_closed


def _apriori_as_ruleset(dataset, min_sup, max_length):
    """Score ALL frequent patterns (the no-closedness arm)."""
    frequent = mine_apriori(dataset.item_tidsets, dataset.n_records,
                            min_sup, max_length=max_length)
    return generate_rules(dataset, frequent, min_sup)


def run_ablation():
    scale = current_scale()
    dataset = load_real_dataset("mushroom",
                                n_records=min(1200,
                                              scale.mushroom_records))
    min_sup, max_length = 140, 3
    closed = generate_rules(
        dataset,
        mine_closed(dataset.item_tidsets, dataset.n_records, min_sup,
                    max_length=max_length),
        min_sup)
    everything = _apriori_as_ruleset(dataset, min_sup, max_length)
    return dataset, closed, everything


def test_ablation_closed_vs_all(benchmark):
    dataset, closed, everything = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1)
    from repro.corrections import bonferroni
    bc_closed = bonferroni(closed, 0.05)
    bc_all = bonferroni(everything, 0.05)

    print()
    print(banner("Ablation: closed vs all frequent patterns",
                 f"mushroom sample, n={dataset.n_records}"))
    print(format_table(
        ["representation", "hypotheses", "BC cut-off", "BC significant"],
        [["closed", closed.n_tests, f"{bc_closed.threshold:.3g}",
          bc_closed.n_significant],
         ["all frequent", everything.n_tests, f"{bc_all.threshold:.3g}",
          bc_all.n_significant]]))

    # Fewer hypotheses with closed patterns...
    assert closed.n_tests < everything.n_tests
    # ...hence a looser (larger) Bonferroni cut-off.
    assert bc_closed.threshold > bc_all.threshold
    # Closedness only removes duplicates: every significant tidset of
    # the all-frequent arm whose closure was enumerated (the length cap
    # can exclude long closures) is significant in the closed arm too —
    # the closed arm's looser cut-off cannot lose it.
    closed_universe = {
        dataset.pattern_tidset(p.items) for p in closed.patterns}
    closed_significant = {
        dataset.pattern_tidset(r.items) for r in bc_closed.significant}
    all_significant = {
        dataset.pattern_tidset(r.items) for r in bc_all.significant}
    assert (all_significant & closed_universe) <= closed_significant
