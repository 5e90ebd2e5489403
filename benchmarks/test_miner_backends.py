"""Registered-miner comparison: wall-clock and hypothesis counts.

Runs every miner in the registry (:mod:`repro.mining.registry`) over
three workloads and records, per miner, the mining wall-clock and the
hypothesis count ``Nt`` its pattern set hands the corrections — the
closed-vs-all trade-off of Section 7 measured through the public
registry rather than by calling miner internals. The record is written
as JSON (``REPRO_BENCH_JSON``, default ``miner_backends.json``) so CI
archives the trajectory per commit, exactly like
``test_parallel_scaling.py``.

The ``sparse-wide`` workload is wide and sparse (many records, many
items, low density), so ``n_records × n_items`` dwarfs the sum of
supports. The hard assertions are structural (the two all-frequent
entries, ``apriori`` and ``general-rules``, count the same hypotheses;
closed never exceeds them); wall-clock is recorded, not asserted,
since shared runners make tight timing flaky.
"""

from __future__ import annotations

import json
import os
import time

from _scale import banner, current_scale
from repro.data import GeneratorConfig, generate
from repro.evaluation import format_table
from repro.mining import available_miners, generate_rules

SEED = 4242


def _workloads():
    scale = current_scale()
    n = min(scale.synth_records, 1500)
    dense = GeneratorConfig(
        n_records=n, n_attributes=12, min_values=2, max_values=3,
        n_rules=2, min_length=2, max_length=3,
        min_coverage=n // 5, max_coverage=n // 4,
        min_confidence=0.8, max_confidence=0.9)
    # Wide and sparse: n_records * n_items dwarfs the sum of supports.
    sparse_wide = GeneratorConfig(
        n_records=n, n_attributes=40, min_values=6, max_values=10,
        n_rules=0)
    return (("dense", dense, n // 8),
            ("sparse-wide", sparse_wide, n // 25),
            ("low-minsup", dense, n // 20))


def run_experiment():
    rows = []
    for workload, config, min_sup in _workloads():
        dataset = generate(config, seed=SEED).dataset
        by_miner = {}
        for miner in available_miners():
            start = time.perf_counter()
            pattern_set = miner.mine(dataset, min_sup)
            mine_seconds = time.perf_counter() - start
            ruleset = generate_rules(dataset, pattern_set, min_sup)
            by_miner[miner.name] = {
                "seconds": mine_seconds,
                "n_patterns": pattern_set.n_patterns,
                "n_hypotheses": ruleset.n_tests,
                "capabilities": list(miner.capabilities),
            }
        rows.append({
            "workload": workload,
            "n_records": dataset.n_records,
            "min_sup": min_sup,
            "miners": by_miner,
        })
    return rows


def test_miner_backends():
    scale = current_scale()
    rows = run_experiment()

    table_rows = []
    for row in rows:
        for name, cell in row["miners"].items():
            table_rows.append([
                row["workload"], name, row["min_sup"],
                cell["n_patterns"], cell["n_hypotheses"],
                f"{cell['seconds'] * 1e3:.1f}",
            ])
    print(banner(
        "miner backends",
        format_table(["workload", "miner", "min_sup", "#patterns",
                      "#hypotheses", "ms"], table_rows)))

    for row in rows:
        miners = row["miners"]
        # Structural guarantees, workload-independent: both
        # all-frequent entries count the same hypothesis set, and the
        # closed set never exceeds it (that gap is the point of
        # mining closed patterns).
        assert miners["apriori"]["n_hypotheses"] == \
            miners["general-rules"]["n_hypotheses"], row["workload"]
        assert miners["closed"]["n_hypotheses"] <= \
            miners["apriori"]["n_hypotheses"], row["workload"]
        assert miners["representative"]["n_hypotheses"] <= \
            miners["closed"]["n_hypotheses"], row["workload"]

    record = {
        "benchmark": "miner_backends",
        "scale": scale.name,
        "seed": SEED,
        "workloads": rows,
    }
    out_path = os.environ.get("REPRO_BENCH_JSON", "miner_backends.json")
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(f"wrote {out_path}")
