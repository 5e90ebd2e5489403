"""Bitrot guard for the examples directory.

Importing an example executes only its module top level (every example
guards execution behind ``main()``), so this verifies that each
example's imports resolve against the current public API and that the
documented entry point exists — without paying for the full runs.
The market-basket example, which takes well under a second, is also
run end to end.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_is_populated():
    assert len(EXAMPLE_FILES) >= 10


@pytest.mark.parametrize("path", EXAMPLE_FILES,
                         ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    module = _load(path)
    assert callable(getattr(module, "main", None)), \
        f"{path.name} must expose a main() entry point"
    assert module.__doc__, f"{path.name} must carry a module docstring"


@pytest.mark.parametrize("path", EXAMPLE_FILES,
                         ids=lambda p: p.stem)
def test_example_is_main_guarded(path):
    source = path.read_text()
    assert 'if __name__ == "__main__":' in source, \
        f"{path.name} must guard execution behind __main__"


def test_market_basket_runs(capsys):
    _load(EXAMPLES_DIR / "market_basket.py").main()
    out = capsys.readouterr().out
    assert "rules tested (Nt): 164" in out
    assert "Bonferroni-significant rules" in out
