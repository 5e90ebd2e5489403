"""Out-of-core arena benchmarks: zero-copy workers, streaming ingest.

The sharded-arena PR stakes two measurable claims, both recorded in
the repo-root ``BENCH_outofcore.json`` (``REPRO_BENCH_JSON``
overrides) in the shared envelope:

* **zero-copy workers** — pickling an arena-backed dataset ships the
  *path*; a forked worker re-maps the same pages, so its anonymous-RSS
  delta stays under 10% of the arena size, versus ~100% when the
  in-RAM dataset is pickled wholesale (the pre-PR behaviour). The
  gated ratio is wholesale-delta / zero-copy-delta.
* **streaming ingest** — ``stream_records_to_arena`` builds the same
  arena in bounded chunks at a throughput comparable to the in-RAM
  ``Dataset.from_records`` (gated as a dimensionless ratio so runner
  speed cancels out).
"""

from __future__ import annotations

import multiprocessing
import pickle
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from _scale import banner, bench_envelope, current_scale, write_bench
from repro.data import Dataset, stream_records_to_arena
from repro.data.items import ItemCatalog
from repro.tidvector import words_for

SEED = 2026
DEFAULT_OUT = Path(__file__).resolve().parents[1] / \
    "BENCH_outofcore.json"

#: records for the RSS probe arena, per scale (4096 items each — the
#: arena must dwarf the per-record structures every open pays for).
_PROBE_RECORDS = {"smoke": 1 << 16, "default": 1 << 18,
                  "paper": 1 << 20}
_PROBE_ITEMS = 4096

_INGEST_RECORDS = {"smoke": 5_000, "default": 50_000, "paper": 100_000}


def _synthetic_dataset(n_records: int, n_items: int,
                       rng: np.random.Generator) -> Dataset:
    """A dataset built straight from a random packed arena.

    ``n_records`` must be a multiple of 64 so every tail word is clean.
    """
    assert n_records % 64 == 0
    arena = rng.integers(0, 1 << 63,
                         size=(n_items, words_for(n_records)),
                         dtype=np.uint64)
    catalog = ItemCatalog()
    for j in range(n_items):
        catalog.add_pair(f"A{j}", "y")
    labels = rng.integers(0, 2, size=n_records)
    return Dataset(n_records, catalog, arena, labels, ["c0", "c1"],
                   name="outofcore-bench")


def _rss_anon_kb() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("RssAnon:"):
                return int(line.split()[1])
    raise RuntimeError("RssAnon not found")  # pragma: no cover


_WORKER_RSS0 = 0


def _worker_init():
    # Baseline captured at worker start, before any task arrives —
    # everything the task ships and materializes counts against it.
    global _WORKER_RSS0
    _WORKER_RSS0 = _rss_anon_kb()


def _worker_probe(payload: bytes):
    """Runs in a fresh forked worker: unpickle a dataset, touch every
    item row, report the anonymous-RSS growth the dataset cost."""
    dataset = pickle.loads(payload)
    touched = 0
    for start in range(0, dataset.n_items, 64):
        rows = dataset.item_arena[start:start + 64]
        touched ^= int(np.bitwise_count(rows).sum())
    return (_rss_anon_kb() - _WORKER_RSS0) * 1024, touched


def _probe_worker_rss(payload: bytes):
    context = multiprocessing.get_context("fork")
    with context.Pool(1, initializer=_worker_init) as pool:
        return pool.apply(_worker_probe, (payload,))


def _bench_zero_copy(tmp_path: Path, rng: np.random.Generator):
    scale = current_scale()
    dataset = _synthetic_dataset(_PROBE_RECORDS[scale.name],
                                 _PROBE_ITEMS, rng)
    arena_bytes = dataset.item_arena.nbytes
    path = tmp_path / "probe.arena"
    # fingerprint=False: the record-wise content hash is pointless
    # work on a dense random arena and is never read by this probe.
    dataset.save_arena(path, fingerprint=False)
    mapped = Dataset.open_arena(path)

    wholesale_delta, check_a = _probe_worker_rss(pickle.dumps(dataset))
    zero_copy_delta, check_b = _probe_worker_rss(pickle.dumps(mapped))
    assert check_a == check_b  # both workers read the same words

    return {
        "arena_bytes": arena_bytes,
        "n_records": dataset.n_records,
        "n_items": dataset.n_items,
        "wholesale_worker_rss_delta_bytes": wholesale_delta,
        "zero_copy_worker_rss_delta_bytes": zero_copy_delta,
        "zero_copy_rss_fraction_of_arena":
            zero_copy_delta / arena_bytes,
    }


def _bench_ingest(tmp_path: Path, rng: np.random.Generator):
    scale = current_scale()
    n_records = _INGEST_RECORDS[scale.name]
    values = [f"v{v}" for v in range(4)]
    records = [[values[int(c)] for c in row]
               for row in rng.integers(0, 4, size=(n_records, 8))]
    labels = [f"c{int(v)}" for v in rng.integers(0, 2, size=n_records)]
    names = [f"A{j}" for j in range(8)]

    inram_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference = Dataset.from_records(records, labels, names,
                                         name="ing")
        inram_s = min(inram_s, time.perf_counter() - start)

    path = tmp_path / "ingest.arena"
    stream_s = float("inf")
    for attempt in range(3):
        target = path.with_suffix(f".{attempt}")
        start = time.perf_counter()
        stream_records_to_arena(records, labels, target,
                                attribute_names=names, name="ing",
                                chunk_records=4096)
        stream_s = min(stream_s, time.perf_counter() - start)
    streamed = Dataset.open_arena(path.with_suffix(".0"))
    assert streamed.fingerprint() == reference.fingerprint()

    return {
        "n_records": n_records,
        "n_attributes": 8,
        "inram_s": inram_s,
        "stream_s": stream_s,
        "stream_records_per_s": n_records / max(stream_s, 1e-9),
        "stream_vs_inram_ratio": inram_s / max(stream_s, 1e-9),
    }


def test_outofcore(tmp_path):
    if platform.system() != "Linux":  # pragma: no cover
        pytest.skip("RSS probe reads /proc; Linux only")
    rng = np.random.default_rng(SEED)

    zero_copy = _bench_zero_copy(tmp_path, rng)
    ingest = _bench_ingest(tmp_path, rng)

    record = bench_envelope(
        "outofcore",
        gates={
            # Capped at 20x: the raw ratio swings with the few MB of
            # worker-local noise in the denominator, and anything past
            # 20x is equally "zero-copy" — the cap keeps the CI
            # regression band meaningful.
            "zero_copy_rss_ratio": {
                "value": min(
                    20.0,
                    zero_copy["wholesale_worker_rss_delta_bytes"]
                    / max(zero_copy["zero_copy_worker_rss_delta_bytes"],
                          4096)),
                "min": 5.0,
            },
            "ingest_stream_ratio": {
                "value": ingest["stream_vs_inram_ratio"],
                "min": 0.05,
            },
        },
        metrics={
            "zero_copy_workers": zero_copy,
            "streaming_ingest": ingest,
        },
    )
    out_path = write_bench(record, str(DEFAULT_OUT))

    mib = 1024 * 1024
    lines = [
        f"arena {zero_copy['arena_bytes'] / mib:.0f} MiB: worker "
        f"anon-RSS delta wholesale "
        f"{zero_copy['wholesale_worker_rss_delta_bytes'] / mib:.1f} "
        f"MiB -> zero-copy "
        f"{zero_copy['zero_copy_worker_rss_delta_bytes'] / mib:.1f} "
        f"MiB ({zero_copy['zero_copy_rss_fraction_of_arena']:.1%} "
        f"of arena)",
        f"ingest {ingest['n_records']} records: in-RAM "
        f"{ingest['inram_s']:.2f} s, streamed "
        f"{ingest['stream_s']:.2f} s "
        f"({ingest['stream_records_per_s']:.0f} rec/s)",
    ]
    print()
    print(banner("out-of-core arenas: zero-copy workers, streaming "
                 "ingest", "\n".join(lines)))
    print(f"wrote {out_path}")

    # The acceptance gate: a forked worker's private memory for the
    # arena-backed dataset is a rounding error next to the arena.
    fraction = zero_copy["zero_copy_rss_fraction_of_arena"]
    assert fraction < 0.10, (
        f"zero-copy worker RSS delta is {fraction:.1%} of the arena")
