"""Benchmark: full ``Pipeline.run`` (Mine → Reduce → Score → Correct).

Run from the repository root::

    python3 perfbench/run.py --workload mushroom-bh --seed 0 --seconds 36 --trace 0

``--trace 0`` times untraced serial runs for up to ``--seconds`` (at
least ``MIN_RUNS``) and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics.
Every run's decisions are checked (see ``workloads.check``). The last
line of standard output is the result object; diagnostics go to
standard error and, with the Chrome trace of a traced run, to
``.bench_build/perfbench/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Runs per execution at least, however long a run takes.
MIN_RUNS = 3
#: Set-up is repeated in this many fresh processes; the median counts.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "data.load_s": "s",
    "mining.mine_s": "s", "mining.patterns": "count",
    "mining.patterns_per_s": "1/s",
    "rules.score_s": "s", "rules.tests": "count",
    "stats.tables_built": "count", "stats.table_hit_ratio": "ratio",
    "permutation.build_s": "s", "permutation.pass_s": "s",
    "permutation.labellings_per_s": "1/s",
    "permutation.word_block": "count", "permutation.batch_rows": "count",
    "bitmat.bytes_computed": "bytes",
    "bitmat.gbytes_per_s_computed": "GB/s",
    "holdout.build_s": "s", "holdout.self_s": "s",
    "holdout.explore_tests": "count", "holdout.candidates": "count",
    "holdout.candidate_ratio": "ratio",
    "corrections.decide_s": "s", "pipeline.self_s": "s",
    "share.mine_pct": "%", "share.score_pct": "%",
    "share.permutation_pass_pct": "%",
    "native.loaded": "count",
    "trace.run_s": "s", "trace.overhead_s": "s",
    "error_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot measure what it claims to; exit non-zero."""


def prepare_environment() -> None:
    """Keep every write inside the checkout and every run single-threaded.

    Must run before numpy or ``repro`` is imported.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from the "
                         "root of a repository checkout")
    native_cache = ROOT / ".bench_build" / "native"
    scratch = ROOT / ".bench_build" / "tmp"
    for directory in (native_cache, scratch, OUT):
        directory.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(native_cache)
    os.environ["TMPDIR"] = str(scratch)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))


def setup(workload: workloads.Workload, size: str, seed: int):
    """Imports, native-kernel load, dataset generation and ingest."""
    start = time.perf_counter()
    import repro
    from repro import _native

    if not str(Path(repro.__file__).resolve()).startswith(str(SRC)):
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    if _native.load_suite() is None:
        raise BenchError("native kernel not loaded "
                         f"({_native.native_status()}); the numbers "
                         "would describe the numpy fallback")
    loaded = time.perf_counter()
    dataset, pipeline = workloads.build(workload, size, seed)
    done = time.perf_counter()
    return dataset, pipeline, {"setup_s": done - start,
                               "load_s": done - loaded,
                               "native_status": _native.native_status()}


def probe_setup(args) -> List[float]:
    """Set-up seconds of ``SETUP_SAMPLES`` fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, __file__, "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def cpu_steal() -> Optional[List[int]]:
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return [fields[7], sum(fields)]


def load_expected(size: str, name: str):
    with open(EXPECTED) as handle:
        return json.load(handle).get(size, {}).get(name)


class Execution:
    """Runs of one workload in this process, with their checks."""

    def __init__(self, workload, seed, dataset, pipeline, expected):
        self.workload = workload
        self.seed = seed
        self.dataset = dataset
        self.pipeline = pipeline
        self.expected = expected
        self.first_digest: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.host = reference.Reference()
        # The reference timing taken after one run is the one before
        # the next, so each run sits between two timings.
        self._last_reference_s: Optional[float] = None

    def run(self, tracer: Optional[tracing.Tracer] = None,
            ) -> Dict[str, float]:
        """One checked run: wall and CPU seconds, and their scale.

        ``scale`` turns the run's seconds into seconds at the
        calibration speed: the calibration time over the mean of the
        reference timings before and after the run.
        """
        gc.collect()
        before = self._last_reference_s or self.host.seconds()
        with (tracing.instrument(tracer) if tracer is not None
              else contextlib.nullcontext()):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            result = self.pipeline.run(self.dataset)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        decided = workloads.decisions(result)
        # Drop the result before the next run: peak RSS is one run's.
        del result
        problems = workloads.check(self.workload, self.seed, decided,
                                   self.first_digest, self.expected)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if self.first_digest is None:
            self.first_digest = workloads.digest(decided)
        self._last_reference_s = self.host.seconds()
        scale = (reference.CALIBRATION_S
                 / ((before + self._last_reference_s) / 2))
        return {"wall": wall, "cpu": cpu, "scale": scale}


def repeat(step, seconds: float, minimum: int) -> list:
    """Results of ``step()`` calls, at least ``minimum`` of them.

    A further call starts only if, taking as long as the previous one,
    it ends within ``seconds`` of the first.
    """
    results = []
    start = time.perf_counter()
    last_s = 0.0
    while (len(results) < minimum
           or time.perf_counter() - start + last_s <= seconds):
        began = time.perf_counter()
        results.append(step())
        last_s = time.perf_counter() - began
    return results


def measure(args, execution: Execution):
    """End-to-end metrics, and the samples behind them.

    Times are medians of scaled samples (see ``Execution.run``). The
    set-ups are scaled by the reference timed before and after them.
    """
    runs = repeat(execution.run, args.seconds, MIN_RUNS)
    before = execution.host.seconds()
    setups = probe_setup(args)
    setup_scale = (reference.CALIBRATION_S
                   / ((before + execution.host.seconds()) / 2))
    values = {
        "setup_s": statistics.median(setups) * setup_scale,
        "run_s": statistics.median(r["wall"] * r["scale"] for r in runs),
        "cpu_s": statistics.median(r["cpu"] * r["scale"] for r in runs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"wall_s": [r["wall"] for r in runs],
               "cpu_s": [r["cpu"] for r in runs],
               "scale": [r["scale"] for r in runs],
               "setup_s": setups, "setup_scale": setup_scale}
    return values, {"samples": samples}


def measure_traced(args, execution: Execution, load_s: float):
    """Per-layer metrics, the samples and the Chrome trace's path."""
    untraced: List[float] = []
    traced: List[List[tracing.Span]] = []
    layers: List[Dict[str, float]] = []

    def pair():
        untraced.append(execution.run()["wall"])
        # The execution checks the traced run's decisions against the
        # first untraced run's.
        tracer = tracing.Tracer()
        execution.run(tracer)
        layers.append(tracing.layer_metrics(tracer))
        # Keep only the spans: the results the tracer collected are
        # most of a PipelineResult, and the next run starts without it.
        traced.append(tracer.spans)

    repeat(pair, args.seconds, 1)
    metrics = {name: statistics.median(run[name] for run in layers)
               for name in layers[0]}
    metrics["data.load_s"] = load_s
    metrics["native.loaded"] = 1
    metrics["trace.overhead_s"] = (metrics["trace.run_s"]
                                   - statistics.median(untraced))
    metrics["error_frac"] = execution.failed / execution.attempted
    samples = {"run_s": untraced,
               "trace.run_s": [run["trace.run_s"] for run in layers]}
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w") as handle:
        json.dump(tracing.chrome_trace(traced, {
            "workload": args.workload, "seed": args.seed,
            "size": args.size}), handle)
    return metrics, {"samples": samples,
                     "trace_file": str(trace_path.relative_to(ROOT))}


def record_expected(args, dataset, pipeline) -> None:
    """Write seed 0's decisions into the expected file."""
    decided = workloads.decisions(pipeline.run(dataset))
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    expected.setdefault(args.size, {})[args.workload] = {
        "n_tests": {m: d["n_tests"] for m, d in decided.items()},
        "digest": workloads.digest(decided)}
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"),
                        default="paper",
                        help="tiny: seconds-long inputs for self-tests")
    parser.add_argument("--record-expected", action="store_true",
                        help="write seed 0's decisions to expected.json")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    workload = workloads.WORKLOADS[args.workload]
    if args.probe_setup:
        _, _, info = setup(workload, args.size, args.seed)
        print(json.dumps({"setup_s": info["setup_s"]}))
        return 0
    steal_start = cpu_steal()
    dataset, pipeline, info = setup(workload, args.size, args.seed)
    if args.record_expected:
        if args.seed != 0:
            raise BenchError("expected decisions are recorded at seed 0")
        record_expected(args, dataset, pipeline)
        return 0
    execution = Execution(workload, args.seed, dataset, pipeline,
                          load_expected(args.size, args.workload))
    if execution.expected is None:
        raise BenchError(f"{EXPECTED.name} has no entry for "
                         f"{args.size}/{args.workload}")
    if args.trace:
        values, extra = measure_traced(args, execution, info["load_s"])
        units = PER_LAYER_UNITS
    else:
        values, extra = measure(args, execution)
        units = END_TO_END_UNITS
    steal_end = cpu_steal()
    steal = None
    if steal_start and steal_end and steal_end[1] > steal_start[1]:
        steal = ((steal_end[0] - steal_start[0])
                 / (steal_end[1] - steal_start[1]))
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "native_status": info["native_status"],
        "cpu_steal_share": steal, "problems": execution.problems[:20],
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                 "machine": platform.machine()},
        **extra,
    }
    diag_path = (OUT / f"diag-{args.workload}-seed{args.seed}"
                 f"-trace{args.trace}.json")
    with open(diag_path, "w") as handle:
        json.dump(diagnostics, handle, indent=2)
    print(json.dumps(diagnostics, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": execution.failed == 0,
        "attempted": execution.attempted,
        "failed": execution.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
