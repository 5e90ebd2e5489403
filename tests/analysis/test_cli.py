"""CLI drivers: ``python -m repro.analysis`` and ``repro lint``."""

import io
import json
import textwrap

import pytest

from repro.analysis.cli import main as analysis_main
from repro.cli import main as repro_main

CLEAN = "X = 1\n"
DIRTY = textwrap.dedent("""\
    _CACHE = {}

    def put(key, value):
        _CACHE[key] = value
    """)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    # A miniature src tree; chdir so the default-baseline lookup and
    # canonical paths behave like a repo checkout.
    pkg = tmp_path / "src" / "repro" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(CLEAN)
    (pkg / "dirty.py").write_text(DIRTY)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestAnalysisMain:
    def test_findings_exit_1(self, tree):
        out = io.StringIO()
        assert analysis_main(["src", "--no-baseline"], out=out) == 1
        assert "unlocked-shared-state" in out.getvalue()

    def test_clean_select_exit_0(self, tree):
        out = io.StringIO()
        assert analysis_main(
            ["src", "--no-baseline", "--select", "no-stdlib-rng"],
            out=out) == 0
        assert "clean" in out.getvalue()

    def test_update_then_gate(self, tree):
        out = io.StringIO()
        assert analysis_main(["src", "--update-baseline"], out=out) == 0
        assert (tree / "lint-baseline.json").exists()
        # Baseline auto-loaded from cwd: gate now passes.
        assert analysis_main(["src"], out=io.StringIO()) == 0
        # A fresh violation still fails.
        (tree / "src" / "repro" / "pkg" / "new.py").write_text(DIRTY)
        assert analysis_main(["src"], out=io.StringIO()) == 1

    def test_json_format(self, tree):
        out = io.StringIO()
        analysis_main(["src", "--no-baseline", "--format", "json"],
                      out=out)
        payload = json.loads(out.getvalue())
        assert payload["new"]
        assert payload["new"][0]["rule"] == "unlocked-shared-state"
        assert payload["summary"]["new"] == len(payload["new"])

    def test_list_rules(self, tree):
        out = io.StringIO()
        assert analysis_main(["--list-rules"], out=out) == 0
        text = out.getvalue()
        assert "no-stdlib-rng" in text and "invariant:" in text

    def test_unknown_rule_exit_2(self, tree):
        assert analysis_main(
            ["src", "--select", "not-a-rule"], out=io.StringIO()) == 2

    def test_missing_path_exit_2(self, tree):
        assert analysis_main(["nowhere"], out=io.StringIO()) == 2


class TestReproLintSubcommand:
    def test_lint_dispatch(self, tree):
        out = io.StringIO()
        assert repro_main(["lint", "src", "--no-baseline"], out=out) == 1
        assert "unlocked-shared-state" in out.getvalue()

    def test_lint_list_rules(self, tree):
        out = io.StringIO()
        assert repro_main(["lint", "--list-rules"], out=out) == 0
        assert "uint64-dtype-promotion" in out.getvalue()

    def test_lint_clean_with_baseline(self, tree):
        assert repro_main(["lint", "src", "--update-baseline"],
                          out=io.StringIO()) == 0
        assert repro_main(["lint", "src"], out=io.StringIO()) == 0
