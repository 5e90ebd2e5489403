"""Ablation: closed mining vs Apriori vs the FP-growth oracle.

The paper's pipeline mines *closed* patterns (Section 3) for two
reasons: fewer hypotheses (duplicates removed) and the enumeration-tree
structure the paper's Diffsets storage needs. This ablation quantifies the
first reason against the all-frequent pattern set, mined by Apriori
(the library's all-frequent miner) and by the FP-growth oracle of
``tests/fpgrowth_oracle.py``, and cross-checks all three for agreement:

* FP-growth and Apriori must emit identical pattern sets (two
  independent implementations, one answer);
* the closed miner must emit exactly the tidset-distinct patterns —
  so #closed <= #frequent, with the gap measuring the redundancy that
  closedness removes from the multiple-testing denominator;
* per-miner wall-clock is reported (FP-growth's pattern-growth vs
  Apriori's level-wise candidate generation).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from _scale import banner, current_scale
from repro.data import GeneratorConfig, generate
from repro.evaluation import format_table
from repro.mining import mine_apriori, mine_closed

# The FP-growth oracle lives with the tests, under the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.fpgrowth_oracle import mine_fpgrowth  # noqa: E402


def _workloads():
    scale = current_scale()
    n = min(scale.synth_records, 1000)
    dense = GeneratorConfig(
        n_records=n, n_attributes=12, min_values=2, max_values=3,
        n_rules=2, min_length=2, max_length=3,
        min_coverage=n // 5, max_coverage=n // 4,
        min_confidence=0.8, max_confidence=0.9)
    sparse = GeneratorConfig(
        n_records=n, n_attributes=20, min_values=4, max_values=8,
        n_rules=0)
    return (("dense", dense, n // 8, 0), ("sparse", sparse, n // 20, 0),
            # Redundant encodings (perfectly correlated columns) are
            # where closedness pays: duplicate the first four item
            # columns so many frequent patterns share one tidset.
            ("correlated", dense, n // 8, 4))


def run_experiment():
    rows = []
    for name, config, min_sup, n_duplicates in _workloads():
        dataset = generate(config, seed=42).dataset
        tidsets = list(dataset.item_tidsets)
        tidsets.extend(tidsets[:n_duplicates])
        n = dataset.n_records

        start = time.perf_counter()
        apriori = mine_apriori(tidsets, n, min_sup)
        t_apriori = time.perf_counter() - start

        start = time.perf_counter()
        fpgrowth = mine_fpgrowth(tidsets, n, min_sup)
        t_fpgrowth = time.perf_counter() - start

        start = time.perf_counter()
        closed = mine_closed(tidsets, n, min_sup)
        t_closed = time.perf_counter() - start

        agree = ([(p.items, p.support) for p in apriori]
                 == [(p.items, p.support) for p in fpgrowth])
        n_closed = sum(1 for p in closed if p.items)
        distinct_tidsets = len({p.tidset for p in apriori})
        rows.append({
            "workload": name, "n_duplicates": n_duplicates,
            "min_sup": min_sup,
            "n_frequent": len(apriori), "n_closed": n_closed,
            "distinct_tidsets": distinct_tidsets,
            "agree": agree,
            "t_apriori": t_apriori, "t_fpgrowth": t_fpgrowth,
            "t_closed": t_closed,
        })
    return rows


def test_ablation_miners(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print()
    print(banner("Ablation: closed vs Apriori vs FP-growth"))
    print(format_table(
        ["workload", "min_sup", "#frequent", "#closed",
         "#distinct tidsets", "apriori (s)", "fpgrowth (s)",
         "closed (s)"],
        [[r["workload"], r["min_sup"], r["n_frequent"], r["n_closed"],
          r["distinct_tidsets"], f"{r['t_apriori']:.3f}",
          f"{r['t_fpgrowth']:.3f}", f"{r['t_closed']:.3f}"]
         for r in rows]))

    for row in rows:
        # Cross-check: two all-pattern miners, one answer.
        assert row["agree"], row["workload"]
        # Closedness is a lossless compression of the hypothesis set:
        # one closed pattern per distinct tidset (root excluded when
        # no item is universal).
        assert row["n_closed"] <= row["n_frequent"]
        assert abs(row["n_closed"] - row["distinct_tidsets"]) <= 1
        if row["n_duplicates"]:
            # Duplicated columns explode the frequent-pattern count
            # but leave the closed count (hypotheses) unchanged —
            # the compression the paper's Section 3 relies on.
            assert row["n_closed"] <= 0.7 * row["n_frequent"]
