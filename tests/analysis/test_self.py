"""Self-application: the shipped tree passes its own lint gate.

This is the same check CI runs; keeping it in the suite means a PR
cannot introduce a new invariant violation (or silently grow the
baseline) without a test failing locally first.
"""

from pathlib import Path

import pytest

from repro.analysis import Baseline, analyze_paths, available_rules

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
BASELINE = REPO / "lint-baseline.json"


@pytest.fixture(scope="module")
def findings():
    return analyze_paths([SRC])


def test_all_rules_run(findings):
    assert len(available_rules()) >= 8


def test_zero_non_baselined_findings(findings):
    diff = Baseline.load(BASELINE).diff(findings)
    assert diff.gate_passes, (
        "new lint findings:\n  "
        + "\n  ".join(f.describe() for f in diff.new))


def test_no_stale_baseline_entries(findings):
    # Fixed debt must graduate out via --update-baseline, so the
    # committed file always reflects reality.
    diff = Baseline.load(BASELINE).diff(findings)
    assert diff.stale == [], (
        "stale baseline entries (run --update-baseline):\n  "
        + "\n  ".join(str(e) for e in diff.stale))


def test_migrated_rng_sites_stay_clean(findings):
    # These files draw only from numpy Generators; they must not
    # regress into the baseline.
    migrated = ("repro/evaluation/runner.py",
                "repro/classify/evaluate.py",
                "repro/stats/sequential.py",
                "repro/data/dataset.py",
                "repro/parallel/seeding.py")
    regressions = [f for f in findings
                   if f.rule == "no-stdlib-rng" and f.path in migrated]
    assert regressions == [], [f.describe() for f in regressions]


def test_bitset_quarantine_clean(findings):
    violations = [f for f in findings if f.rule == "bitset-quarantine"]
    assert violations == [], [f.describe() for f in violations]
