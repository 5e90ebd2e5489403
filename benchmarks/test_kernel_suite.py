"""Per-shape timings for every kernel in the native suite.

:mod:`repro._native` compiles four kernels — batched class supports,
the closed-pattern walk, the fused permutation pass and the p-value
tables. This bench times the **closed-pattern walk** (``mine_closed``
with the native walk against the Python walk that runs without the
suite) on the Fig 6 exploratory half, the **permutation pass**
(``PermutationEngine.run`` with the fused ``repro_permutation_pass``
against the numpy supports and reductions that run without the suite)
on German, and, per dataset shape:

* the **enumeration join** (``VerticalView.candidate_supports``, the
  Python closed walk's child-support pass) against the per-candidate Python
  ``intersection_count`` loop — the acceptance-gated ratio;
* the **multi-class batched supports**
  (``BitMatrix.class_supports_multi``, one dispatch for all classes)
  against the historical one-call-per-class loop;

plus the **p-value table build** of the Score stage: the
``PValueTables`` store of every (class, coverage) key Mushroom reaches
at min_sup 2000 (n = 8124, all in the log-space regime, so each table
is built over its live window), built by the native kernel in one
call against the scalar builder
(:mod:`repro.stats.pvalue_scalar`, the no-compiler fallback and the
kernel's oracle) building the same store with the suite unloaded.
Every timed pair is asserted equal before any number counts. Results
land in the repo-root ``BENCH_kernels.json`` (``REPRO_BENCH_JSON``
overrides) in the shared envelope; the gated ratios are the enumeration
join on the 10k-record x 1k-item reference shape, the p-value table
build, the closed-pattern walk and the permutation pass.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from _scale import banner, bench_envelope, current_scale, write_bench
from repro import _native
from repro.bitmat import BitMatrix
from repro.corrections import PermutationEngine
from repro.data import GeneratorConfig, generate, make_german, make_mushroom
from repro.mining import mine_closed
from repro.mining.rules import mine_class_rules
from repro.mining.tidsets import build_vertical_view
from repro.stats import PValueTables
from repro.tidvector import arena_rows, pack_bool_matrix

REPO_ROOT = Path(__file__).resolve().parents[1]
SEED = 2026
#: The acceptance-gated reference shape (records, items).
REFERENCE_SHAPE = (10_000, 1_000)
N_QUERIES = 16
N_CLASSES = 3
BATCH = 16

DEFAULT_OUT = REPO_ROOT / "BENCH_kernels.json"
#: Mushroom's min_sup in the Score-stage benchmark workload.
MUSHROOM_MIN_SUP = 2000
#: The Fig 6 exploratory half the closed-walk gate mines: the first
#: FIG6_HALF records of a null dataset, at FIG6_MIN_SUP.
FIG6_CONFIG = GeneratorConfig(n_records=2000, n_attributes=40, n_rules=0)
FIG6_SEED = 606
FIG6_HALF = 1000
FIG6_MIN_SUP = 30
#: The permutation-pass gate: German at this min_sup, this many
#: labellings.
PERMUTATION_MIN_SUP = 40
PERMUTATION_COUNT = 200

_EXTRA_SHAPES = {
    "smoke": (),
    "default": ((2_000, 200), (50_000, 500)),
    "paper": ((2_000, 200), (50_000, 500), (100_000, 1_000)),
}


def _timed(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _random_view(n_records, n_items, density, rng):
    flags = rng.random((n_items, n_records)) < density
    arena = pack_bool_matrix(flags)
    tidsets = arena_rows(arena, n_records)
    return build_vertical_view(tidsets, n_records, min_sup=1,
                               order="original")


def _bench_shape(n_records, n_items, repeats, rng):
    """Time three kernels against their Python loops on one shape."""
    view = _random_view(n_records, n_items, 0.1, rng)
    queries = [view.pattern_tidset([rng.integers(0, n_items)])
               & view.tidsets[int(rng.integers(0, n_items))]
               for _ in range(N_QUERIES)]

    # -- enumeration join: candidate supports vs per-candidate loop - #
    python_s, python_out = _timed(
        lambda: [[q.intersection_count(t) for t in view.tidsets]
                 for q in queries], repeats)
    kernel_s, kernel_out = _timed(
        lambda: [view.candidate_supports(q) for q in queries], repeats)
    for py_row, k_row in zip(python_out, kernel_out):
        assert np.array_equal(np.asarray(py_row), k_row)
    join = _ratio_block(python_s, kernel_s)

    # -- multi-class batched supports vs one call per class ---------- #
    forest = BitMatrix.from_tidsets(view.tidsets, n_records)
    labels = rng.integers(0, N_CLASSES, size=(BATCH, n_records))
    stacked = np.stack([labels == c for c in range(N_CLASSES)])
    python_s, python_out = _timed(
        lambda: np.stack([forest.class_supports_batch(labels == c)
                          for c in range(N_CLASSES)]), repeats)
    kernel_s, kernel_out = _timed(
        lambda: forest.class_supports_multi(stacked), repeats)
    assert np.array_equal(python_out, kernel_out)
    multi = _ratio_block(python_s, kernel_s)

    return {
        "n_records": n_records,
        "n_items": n_items,
        "n_queries": N_QUERIES,
        "enumeration_join": join,
        "multi_class_supports": multi,
    }


def _ratio_block(python_seconds, kernel_seconds):
    return {
        "python_ms": python_seconds * 1000,
        "kernel_ms": kernel_seconds * 1000,
        "speedup": python_seconds / max(kernel_seconds, 1e-12),
    }


def _pvalue_tables(repeats):
    """The native ``PValueTables`` build vs the scalar builder (the
    suite unloaded) on every (class, coverage) key Mushroom reaches at
    min_sup 2000; both must fill the same array bit for bit."""
    dataset = make_mushroom(seed=0)
    ruleset = mine_class_rules(dataset, MUSHROOM_MIN_SUP)
    class_supports = [dataset.class_support(c)
                      for c in range(dataset.n_classes)]
    classes = [rule.class_index for rule in ruleset.rules]
    coverages = [rule.coverage for rule in ruleset.rules]

    def build():
        return PValueTables(dataset.n_records, class_supports, classes,
                            coverages)

    if _native.load_suite() is None:
        raise RuntimeError(f"native kernel suite unavailable "
                           f"({_native.native_status()})")
    kernel_s, kernel_out = _timed(build, repeats)
    suite = _native._kernel
    _native._kernel = None
    try:
        oracle_s, oracle_out = _timed(build, repeats)
    finally:
        _native._kernel = suite
    assert np.array_equal(oracle_out.flat, kernel_out.flat)
    block = _ratio_block(oracle_s, kernel_s)
    block.update(n_records=dataset.n_records, min_sup=MUSHROOM_MIN_SUP,
                 n_tables=kernel_out.n_built,
                 n_entries=kernel_out.n_entries)
    return block


def _closed_walk(repeats):
    """``mine_closed`` with the native walk vs the Python walk (the
    suite unloaded, as on a host without a compiler) on the Fig 6
    exploratory half; both must emit the same columns."""
    dataset = generate(FIG6_CONFIG, seed=FIG6_SEED).dataset
    half = dataset.subset(list(range(FIG6_HALF)))

    def mine():
        return mine_closed(half.item_tidsets, half.n_records,
                           FIG6_MIN_SUP)

    def nodes(patterns):
        return [column.tobytes() for column in (
            patterns.item_ids, patterns.item_offsets, patterns.supports,
            patterns.parent, patterns.matrix.words)]

    if _native.load_suite() is None:
        raise RuntimeError(f"native kernel suite unavailable "
                           f"({_native.native_status()})")
    kernel_s, kernel_out = _timed(mine, repeats)
    suite = _native._kernel
    _native._kernel = None
    try:
        python_s, python_out = _timed(mine, repeats)
    finally:
        _native._kernel = suite
    assert nodes(kernel_out) == nodes(python_out)
    block = _ratio_block(python_s, kernel_s)
    block.update(n_records=FIG6_HALF, min_sup=FIG6_MIN_SUP,
                 n_patterns=len(kernel_out))
    return block


def _permutation_pass(repeats):
    """``PermutationEngine.run`` with the fused native pass vs the
    numpy supports and reductions (the suite unloaded) on German at
    min_sup 40; both must produce the same statistics."""
    ruleset = mine_class_rules(make_german(seed=0), PERMUTATION_MIN_SUP)

    def run():
        engine = PermutationEngine(ruleset, seed=0,
                                   n_permutations=PERMUTATION_COUNT)
        engine.run()
        return (engine.min_p_distribution(), engine.empirical_p_values(),
                engine.stepdown_adjusted_p_values())

    if _native.load_suite() is None:
        raise RuntimeError(f"native kernel suite unavailable "
                           f"({_native.native_status()})")
    kernel_s, kernel_out = _timed(run, repeats)
    suite = _native._kernel
    _native._kernel = None
    try:
        python_s, python_out = _timed(run, repeats)
    finally:
        _native._kernel = suite
    assert np.array_equal(kernel_out[0], python_out[0])
    assert kernel_out[1:] == python_out[1:]
    block = _ratio_block(python_s, kernel_s)
    block.update(min_sup=PERMUTATION_MIN_SUP,
                 n_permutations=PERMUTATION_COUNT,
                 n_rules=len(ruleset.rules))
    return block


def test_kernel_suite():
    scale = current_scale()
    repeats = 1 if scale.name == "smoke" else 3
    rng = np.random.default_rng(SEED)

    shapes = [_bench_shape(n_records, n_items, repeats, rng)
              for n_records, n_items
              in (REFERENCE_SHAPE,) + _EXTRA_SHAPES[scale.name]]
    reference = shapes[0]
    pvalue_tables = _pvalue_tables(repeats)
    closed_walk = _closed_walk(3)
    permutation_pass = _permutation_pass(3)

    record = bench_envelope(
        "kernel_suite",
        gates={
            "enumeration_speedup": {
                "value": reference["enumeration_join"]["speedup"],
                "min": 3.0,
            },
            "pvalue_table_speedup": {
                "value": pvalue_tables["speedup"],
                "min": 5.0,
            },
            "closed_mining_speedup": {
                "value": closed_walk["speedup"],
                "min": 3.0,
            },
            "permutation_pass_speedup": {
                "value": permutation_pass["speedup"],
                "min": 4.5,
            },
        },
        metrics={
            "reference_shape": list(REFERENCE_SHAPE),
            "shapes": shapes,
            "pvalue_tables": pvalue_tables,
            "closed_walk": closed_walk,
            "permutation_pass": permutation_pass,
        },
    )
    out_path = write_bench(record, str(DEFAULT_OUT))

    lines = []
    for shape in shapes:
        lines.append(f"{shape['n_records']} records x "
                     f"{shape['n_items']} items:")
        for key in ("enumeration_join", "multi_class_supports"):
            block = shape[key]
            lines.append(
                f"  {key:22s} {block['python_ms']:9.2f} ms -> "
                f"{block['kernel_ms']:9.2f} ms "
                f"({block['speedup']:.1f}x)")
    lines.append(
        f"p-value tables ({pvalue_tables['n_tables']} Mushroom "
        f"coverages): {pvalue_tables['python_ms']:.0f} ms -> "
        f"{pvalue_tables['kernel_ms']:.0f} ms "
        f"({pvalue_tables['speedup']:.1f}x)")
    lines.append(
        f"closed walk (Fig 6 half, {closed_walk['n_patterns']} "
        f"patterns): {closed_walk['python_ms']:.0f} ms -> "
        f"{closed_walk['kernel_ms']:.0f} ms "
        f"({closed_walk['speedup']:.1f}x)")
    lines.append(
        f"permutation pass (German, {permutation_pass['n_rules']} "
        f"rules, {PERMUTATION_COUNT} permutations): "
        f"{permutation_pass['python_ms']:.0f} ms -> "
        f"{permutation_pass['kernel_ms']:.0f} ms "
        f"({permutation_pass['speedup']:.1f}x)")
    print()
    print(banner("native kernel suite vs pure-Python word loops",
                 "\n".join(lines)))
    print(f"wrote {out_path}")

    # The acceptance gate: on the 10k x 1k reference shape one fused
    # AND+popcount pass must decisively beat a thousand per-candidate
    # Python calls.
    gate = reference["enumeration_join"]["speedup"]
    assert gate >= 3.0, (
        f"enumeration join only {gate:.1f}x over the Python loop")
    # The Score-stage gate: the native table kernel must stay well
    # ahead of the scalar builder it transliterates.
    gate = pvalue_tables["speedup"]
    assert gate >= 5.0, (
        f"p-value tables only {gate:.1f}x over the scalar oracle")
    # The Mine-stage gate: one native call per mine must stay well
    # ahead of the per-node Python walk.
    gate = closed_walk["speedup"]
    assert gate >= 3.0, (
        f"closed walk only {gate:.1f}x over the Python walk")
    # The Correct-stage gate: the fused native pass must stay well
    # ahead of the numpy supports and reductions it replaces.
    gate = permutation_pass["speedup"]
    assert gate >= 4.5, (
        f"permutation pass only {gate:.1f}x over the numpy reductions")
