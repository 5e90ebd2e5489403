"""Old-vs-new class-support kernels.

The PR-4 tentpole replaced the permutation engine's counting kernel —
a Python loop over arbitrary-precision-int ``popcount(t & class_bits)``
per forest node — with the packed uint64
:class:`~repro.bitmat.BitMatrix`, the engine's forest storage: the whole
forest answers one labelling, or a whole *batch* of labellings, through
C-level ``bitwise_and`` + ``bitwise_count`` + row sums.

This bench times both kernels head-to-head on a 1000-pattern × 10k-
record forest (the acceptance gate: the batch kernel must be >= 5x the
bigint loop per labelling; the loop uses the bigint oracle in
``tests/bigint_oracle.py``), then rewrites the repo-root
``BENCH_permutation.json`` artifact with this run's numbers; CI
archives one per commit (``REPRO_BENCH_JSON`` overrides the path).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from _scale import banner, bench_envelope, write_bench
from repro.bitmat import BitMatrix
from repro.mining.patterns import Pattern
from repro.tidvector import TidVector

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))  # for the tests/ oracle below

from tests import bigint_oracle as bs  # noqa: E402

KERNEL_PATTERNS = 1000
KERNEL_RECORDS = 10_000
KERNEL_BATCH = 64
SEED = 2024

DEFAULT_OUT = REPO_ROOT / "BENCH_permutation.json"


def _synthetic_forest(n_patterns: int, n_records: int, seed: int):
    """A flat set of random ~10%-density tidsets.

    Kernel timing needs controlled shape, not mined structure: both
    kernels count exactly ``n_patterns`` tidsets of the same universe.
    """
    rng = np.random.default_rng(seed)
    patterns = []
    for row in range(n_patterns):
        flags = rng.random(n_records) < 0.1
        patterns.append(Pattern(
            items=frozenset((row,)), tidset=TidVector.from_bool(flags),
            support=int(flags.sum())))
    indicator = rng.random(n_records) < 0.5
    return patterns, indicator


def _bigint_supports(tidsets, indicator):
    """The bigint loop: one ``popcount(t & class_bits)`` per node."""
    class_bits = bs.from_numpy_bool(indicator)
    return np.fromiter((bs.popcount(t & class_bits) for t in tidsets),
                       dtype=np.int64, count=len(tidsets))


def _timed_repeat(fn, repeats: int = 3):
    """Best-of-N wall clock (seconds) and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_permutation_kernel():
    patterns, indicator = _synthetic_forest(KERNEL_PATTERNS,
                                            KERNEL_RECORDS, SEED)
    tidsets = [p.tidset.to_bigint() for p in patterns]
    packed_forest = BitMatrix.from_tidsets([p.tidset for p in patterns],
                                           KERNEL_RECORDS)

    bigint_seconds, bigint_out = _timed_repeat(
        lambda: _bigint_supports(tidsets, indicator))
    packed_seconds, packed_out = _timed_repeat(
        lambda: packed_forest.class_supports(indicator))
    assert (bigint_out == packed_out).all()

    rng = np.random.default_rng(SEED + 1)
    batch = np.stack([rng.permutation(indicator)
                      for _ in range(KERNEL_BATCH)])
    batch_seconds, batch_out = _timed_repeat(
        lambda: packed_forest.class_supports_batch(batch))
    batch_per_labelling = batch_seconds / KERNEL_BATCH
    assert (batch_out[0] == _bigint_supports(tidsets, batch[0])).all()

    speedup_single = bigint_seconds / max(packed_seconds, 1e-12)
    speedup_batch = bigint_seconds / max(batch_per_labelling, 1e-12)

    record = bench_envelope(
        "permutation_kernel",
        gates={
            "speedup_batch": {"value": speedup_batch, "min": 5.0},
        },
        metrics={
            "kernel": {
                "n_patterns": KERNEL_PATTERNS,
                "n_records": KERNEL_RECORDS,
                "batch_size": KERNEL_BATCH,
                "bigint_ms_per_labelling": bigint_seconds * 1000,
                "packed_ms_per_labelling": packed_seconds * 1000,
                "packed_batch_ms_per_labelling":
                    batch_per_labelling * 1000,
                "speedup_single": speedup_single,
                "speedup_batch": speedup_batch,
            },
        },
    )
    out_path = write_bench(record, str(DEFAULT_OUT))

    lines = [
        f"kernel ({KERNEL_PATTERNS} patterns x {KERNEL_RECORDS} "
        f"records):",
        f"  bigint loop:   {bigint_seconds * 1000:8.3f} ms/labelling",
        f"  packed single: {packed_seconds * 1000:8.3f} ms/labelling "
        f"({speedup_single:.1f}x)",
        f"  packed batch:  {batch_per_labelling * 1000:8.3f} "
        f"ms/labelling ({speedup_batch:.1f}x, B={KERNEL_BATCH})",
    ]
    print()
    print(banner("permutation kernel: bigint loop vs packed uint64",
                 "\n".join(lines)))
    print(f"wrote {out_path}")

    # The acceptance gate: on the 1000x10k forest the batched packed
    # kernel replaces ~n_patterns bigint AND+popcount calls per
    # labelling with a few array ops — anything under 5x means the
    # kernel regressed.
    assert speedup_batch >= 5.0, (
        f"packed batch kernel only {speedup_batch:.1f}x over the "
        f"bigint loop")
