"""Market-basket analysis with statistical false-positive control.

The paper studies class association rules but notes its methods extend
to other rule forms (Section 2). This example runs that extension:
general rules ``X => Y`` over a simulated retail transaction stream
with a handful of *planted* product affinities buried in noise
purchases, then shows how the multiple-testing corrections separate
the planted affinities from co-occurrences that happen by chance.

Run with::

    python examples/market_basket.py
"""

from __future__ import annotations

import random

from repro.corrections import (
    benjamini_hochberg,
    bonferroni,
    no_correction,
    storey_fdr,
)
from repro.mining import mine_general_rules
from repro.tidvector import TidVector

PRODUCTS = [
    "bread", "butter", "milk", "coffee", "tea", "sugar", "pasta",
    "sauce", "cheese", "wine", "beer", "chips", "soap", "shampoo",
    "razor", "foam", "apples", "bananas", "cereal", "yogurt",
]

#: Planted affinities: buying the first strongly implies the second.
AFFINITIES = [
    ("bread", "butter"),
    ("coffee", "sugar"),
    ("pasta", "sauce"),
    ("razor", "foam"),
]


def simulate_transactions(n_baskets: int, seed: int = 0):
    """Baskets of 2-6 random products, with planted pair affinities."""
    rng = random.Random(seed)
    index = {name: i for i, name in enumerate(PRODUCTS)}
    baskets = []
    for _ in range(n_baskets):
        basket = set(rng.sample(range(len(PRODUCTS)),
                                rng.randint(2, 6)))
        for trigger, companion in AFFINITIES:
            if index[trigger] in basket and rng.random() < 0.8:
                basket.add(index[companion])
        baskets.append(sorted(basket))
    records = [[] for _ in PRODUCTS]
    for record, basket in enumerate(baskets):
        for item in basket:
            records[item].append(record)
    tidsets = [TidVector.from_indices(item_records, n_baskets)
               for item_records in records]
    return tidsets, n_baskets


def main() -> None:
    tidsets, n = simulate_transactions(4000, seed=11)
    print(f"{n} baskets over {len(PRODUCTS)} products; "
          f"planted affinities: "
          + ", ".join(f"{a}->{b}" for a, b in AFFINITIES))
    print()

    ruleset = mine_general_rules(tidsets, n, min_sup=200)
    print(f"rules tested (Nt): {ruleset.n_tests}")
    print()

    planted_pairs = {frozenset((a, b)) for a, b in AFFINITIES}

    def planted_hits(result):
        found = set()
        for rule in result.significant:
            names = frozenset(PRODUCTS[i] for i in rule.items)
            if names in planted_pairs:
                found.add(names)
        return len(found)

    print(f"{'procedure':>14s} {'#significant':>13s} "
          f"{'planted found':>14s} {'cut-off':>10s}")
    for name, procedure in (("no correction", no_correction),
                            ("Bonferroni", bonferroni),
                            ("BH", benjamini_hochberg),
                            ("Storey", storey_fdr)):
        result = procedure(ruleset, 0.05)
        print(f"{name:>14s} {result.n_significant:13d} "
              f"{planted_hits(result):11d}/{len(AFFINITIES)} "
              f"{result.threshold:10.3g}")
    print()

    result = bonferroni(ruleset, 0.05)
    print("Bonferroni-significant rules (both directions of each "
          "affinity):")
    for rule in result.significant:
        print("  " + rule.describe(PRODUCTS)
              + f", lift={rule.lift(n):.2f}")
    print()
    print("uncorrected-but-spurious co-occurrences (p <= 0.05 yet "
          "killed by correction):")
    spurious = [rule for rule in ruleset.rules
                if rule.p_value <= 0.05
                and rule.p_value > result.threshold]
    for rule in sorted(spurious, key=lambda r: r.p_value)[:5]:
        print("  " + rule.describe(PRODUCTS))
    print()
    print(f"takeaway: {len(spurious)} product pairs look associated at "
          f"p<=0.05 purely by chance; the corrections keep only the "
          f"planted affinities.")


if __name__ == "__main__":
    main()
