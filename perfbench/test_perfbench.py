"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny",
         "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_keeps_its_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["perfbench"]
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"}
               for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"),
                                        (1, "per_layer")])
def test_tiny_run_reports_every_metric_and_passes_checks(workload, trace,
                                                         kind):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--trace", str(trace)))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["error_frac"]["value"] == 0
        path = ROOT / ".bench_build" / "perfbench" / \
            f"trace-{workload}-seed3.json"
        events = json.loads(path.read_text())["traceEvents"]
        assert {e["name"] for e in events} >= {"pipeline.run",
                                               "mining.mine"}


def bench_against(expected_path, *args):
    """``bench`` with ``run.EXPECTED`` pointed at another file."""
    script = ("import sys; from pathlib import Path; "
              "sys.path.insert(0, 'perfbench'); import run; "
              "run.EXPECTED = Path(sys.argv[1]); "
              "sys.exit(run.main(sys.argv[2:]))")
    return subprocess.run(
        [sys.executable, "-c", script, str(expected_path),
         "--size", "tiny", "--seconds", "0.5", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


def test_tampered_digest_fails_every_run(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["tiny"]["mushroom-bh"]["digest"]["BH"] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    result = result_of(bench_against(tampered, "--workload", "mushroom-bh",
                                     "--seed", "0"))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    traced = result_of(bench_against(tampered, "--workload", "mushroom-bh",
                                     "--seed", "0", "--trace", "1"))
    assert traced["metrics"]["error_frac"]["value"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "mushroom-bh", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
