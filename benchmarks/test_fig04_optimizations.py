"""Figure 4: how much Diffsets and p-value buffering speed permutation.

Paper arms (Section 4.2): "no optimization" (rules mined once, but
every p-value recomputed from scratch and full record-id lists), a
dynamic one-slot p-value buffer, Diffsets on top, and a 16 MB static
buffer on top of that. Expected shape: the dynamic buffer wins ~an
order of magnitude; Diffsets help further on the real-like datasets
but not on the random dataset D8hA20R0 (diffsets there are no smaller
than the id-lists); the static buffer adds little beyond the dynamic
one.

Because the no-optimization arm is orders of magnitude slower, every
arm is timed per permutation (the paper's 1000-permutation cost is the
per-permutation cost times 1000).

The four paper arms live here, not in the library: :func:`_paper_pass`
scores one labelling at a time, counting class supports on a
:class:`~repro.mining.diffsets.PatternForest` and taking every rule's
p-value from its :class:`~repro.stats.BufferCache` (the buffered arms)
or recomputing it with :func:`~repro.stats.fisher_two_tailed` (no
optimization). The buffered arms visit rules in ``(class, coverage)``
order, the order the paper's one-slot dynamic buffer assumes: each
coverage's buffer is then built once per labelling and class. Each
paper arm's min-p distribution is checked against the engine's. The
last two arms time :class:`~repro.corrections.PermutationEngine`'s
batched pass.
"""

from __future__ import annotations

import time

import numpy as np
from _scale import banner, current_scale
from repro.corrections import PermutationEngine
from repro.data import (
    GeneratorConfig,
    generate,
    load_real_dataset,
)
from repro.evaluation import format_table
from repro.mining import generate_rules, mine_closed
from repro.mining.diffsets import PatternForest
from repro.stats import fisher_two_tailed

ARMS = (
    ("no optimization", "full", "direct", dict()),
    ("dynamic buf", "full", "cache",
     dict(use_static=False, use_dynamic=True)),
    ("Diffsets+dynamic buf", "diffsets", "cache",
     dict(use_static=False, use_dynamic=True)),
    ("16M static+Diffsets+dynamic", "diffsets", "cache",
     dict(use_static=True, use_dynamic=True)),
    ("bitset+vectorized", "bitset", "engine", dict()),
    ("packed batch (ours)", "packed", "engine", dict()),
)


def _datasets():
    scale = current_scale()
    yield ("adult", load_real_dataset("adult",
                                      n_records=scale.adult_records),
           max(60, scale.adult_records // 20))
    yield ("german", load_real_dataset("german"), 60)
    yield ("hypo", load_real_dataset("hypo"), 2000)
    yield ("mushroom", load_real_dataset(
        "mushroom", n_records=scale.mushroom_records),
        scale.mushroom_records // 10)
    yield ("D8hA20R0", generate(GeneratorConfig(
        n_records=800, n_attributes=20, n_rules=0), seed=404).dataset, 20)
    yield ("D2kA20R5", generate(GeneratorConfig(
        n_records=2000, n_attributes=20, n_rules=5,
        min_coverage=400, max_coverage=600,
        min_confidence=0.6, max_confidence=0.8), seed=405).dataset, 60)


_DIRECT_SAMPLE = 1200


def _paper_pass(ruleset, rules, forest, mode, n_permutations, seed):
    """One labelling at a time: the min-p of each permutation.

    Labelling ``t`` shuffles the original labels with the ``t``-th
    spawned seed, as the engine does. Binary datasets count class 0
    and derive class 1 as coverage minus it.
    """
    dataset = ruleset.dataset
    n = dataset.n_records
    labels = np.array(dataset.class_labels, dtype=np.int64)
    binary = dataset.n_classes == 2
    classes = (0,) if binary else sorted({r.class_index for r in rules})
    n_c = [dataset.class_support(c) for c in range(dataset.n_classes)]
    caches = ruleset.caches
    min_p = []
    for child in np.random.SeedSequence(seed).spawn(n_permutations):
        shuffled = np.random.default_rng(child).permutation(labels)
        per_class = {c: forest.class_supports(shuffled == c)
                     for c in classes}
        if binary:
            per_class[1] = forest.supports - per_class[0]
        best = 1.0
        for rule in rules:
            c = rule.class_index
            support = int(per_class[c][rule.pattern_id])
            if mode == "cache":
                p = caches[c].p_value(support, rule.coverage)
            else:
                p = fisher_two_tailed(support, n, n_c[c], rule.coverage)
            best = min(best, p)
        min_p.append(best)
    return min_p


def _time_per_permutation(dataset, patterns, min_sup, arm,
                          n_permutations):
    label, policy, mode, cache_options = arm
    ruleset = generate_rules(dataset, patterns, min_sup, **cache_options)
    if mode == "engine":
        engine = PermutationEngine(ruleset,
                                   n_permutations=n_permutations,
                                   seed=11, policy=policy)
        start = time.perf_counter()
        engine.run()
        return (time.perf_counter() - start) / n_permutations
    rules = ruleset.rules
    scale_factor = 1.0
    if mode == "direct" and len(rules) > _DIRECT_SAMPLE:
        # The unoptimized arm rebuilds every p-value from scratch; its
        # per-permutation cost is linear in the rule count, so timing a
        # sample and extrapolating is faithful and keeps the bench
        # tractable.
        scale_factor = len(rules) / _DIRECT_SAMPLE
        rules = rules[:_DIRECT_SAMPLE]
    if mode == "cache":
        rules = sorted(rules, key=lambda r: (r.class_index, r.coverage))
    forest = PatternForest(ruleset.patterns, dataset.n_records, policy)
    start = time.perf_counter()
    min_p = _paper_pass(ruleset, rules, forest, mode, n_permutations,
                        seed=11)
    per_permutation = (time.perf_counter() - start) / n_permutations
    _check_paper_pass(ruleset, mode, n_permutations, min_p, label)
    return per_permutation * scale_factor


def _check_paper_pass(ruleset, mode, n_permutations, min_p, label):
    """The paper arms score the same labellings as the engine.

    The buffered arms score every rule, so their min-p distribution
    equals the engine's exactly. The unoptimized arm scores a sample
    of rules with ``fisher_two_tailed``, so each labelling's minimum
    is at least the engine's (up to rounding), and order statistics
    keep that ordering.
    """
    expected = PermutationEngine(ruleset, n_permutations=n_permutations,
                                 seed=11).min_p_distribution()
    observed = np.sort(np.asarray(min_p, dtype=np.float64))
    if mode == "cache":
        assert np.array_equal(observed, expected), label
    else:
        assert np.all(observed <= 1.0), label
        assert np.all(observed >= expected * (1 - 1e-9)), label


def run_ablation():
    # Warm the lazy native kernel so its one-time compile never lands
    # inside a timed region (it would be charged to the packed arm).
    from repro._native import load_suite
    load_suite()
    scale = current_scale()
    rows = []
    for name, dataset, min_sup in _datasets():
        patterns = mine_closed(dataset.item_tidsets, dataset.n_records,
                               min_sup, max_length=5)
        row = [name, len(patterns)]
        for arm in ARMS:
            # The unoptimized arm is orders slower; sample fewer
            # permutations to estimate its per-permutation cost.
            n_perm = (3 if arm[2] == "direct"
                      else scale.runtime_permutations)
            seconds = _time_per_permutation(dataset, patterns, min_sup,
                                            arm, n_perm)
            row.append(seconds * 1000)
        rows.append(row)
    return rows


def test_fig04_optimizations(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    print(banner("Figure 4: permutation-test optimizations",
                 "milliseconds per permutation (lower is better)"))
    headers = ["dataset", "#patterns"] + [arm[0] for arm in ARMS]
    printable = [
        [row[0], row[1]] + [f"{v:.2f}" for v in row[2:]]
        for row in rows
    ]
    print(format_table(headers, printable))

    for row in rows:
        name = row[0]
        no_opt, dynamic, diff_dyn, static_all, bitset, packed = row[2:]
        # The dynamic buffer must beat no-optimization decisively.
        assert dynamic < no_opt / 2, name
        # The static buffer adds little on top of the dynamic buffer
        # (within noise: allow up to 2x either way).
        assert static_all < dynamic * 2, name
        # The vectorized lookups are the fastest family of arms.
        assert bitset <= min(dynamic, diff_dyn, static_all) * 1.5, name
        # The packed uint64 kernel never loses to the bigint loop by
        # more than noise (on big forests it wins by an order of
        # magnitude; tiny smoke forests are timer-bound).
        assert packed <= bitset * 1.5, name
