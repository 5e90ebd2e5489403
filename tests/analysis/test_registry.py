"""Rule-registry semantics: the corrections/miners registry contract."""

import pytest

from repro.analysis import (
    Rule,
    available_rules,
    get_rule,
    register_rule,
    resolve_rule,
    rule_names,
    unregister_rule,
)
from repro.errors import AnalysisError


def _noop(tree, ctx):
    return ()


@pytest.fixture
def scratch_rule():
    spec = Rule(name="scratch-rule", check_fn=_noop,
                aliases=("scratch", "sr"),
                description="test-only rule")
    yield spec
    for name in ("scratch-rule", "scratch-rule-2"):
        try:
            unregister_rule(name)
        except AnalysisError:
            pass


class TestRegisterResolve:
    def test_round_trip(self, scratch_rule):
        register_rule(scratch_rule)
        assert resolve_rule("scratch-rule") is scratch_rule
        assert get_rule("scratch-rule") is scratch_rule
        assert "scratch-rule" in rule_names()

    def test_alias_and_case_insensitive(self, scratch_rule):
        register_rule(scratch_rule)
        assert resolve_rule("scratch") is scratch_rule
        assert resolve_rule("SR") is scratch_rule
        assert resolve_rule("Scratch-Rule") is scratch_rule

    def test_unregister_removes_all_spellings(self, scratch_rule):
        register_rule(scratch_rule)
        unregister_rule("sr")  # any spelling works
        with pytest.raises(AnalysisError):
            resolve_rule("scratch-rule")
        with pytest.raises(AnalysisError):
            resolve_rule("scratch")

    def test_collision_rejected(self, scratch_rule):
        register_rule(scratch_rule)
        clash = Rule(name="scratch-rule", check_fn=_noop)
        with pytest.raises(AnalysisError, match="already registered"):
            register_rule(clash)
        alias_clash = Rule(name="scratch-rule-2", check_fn=_noop,
                           aliases=("scratch",))
        with pytest.raises(AnalysisError, match="already registered"):
            register_rule(alias_clash)

    def test_overwrite_replaces_wholesale(self, scratch_rule):
        register_rule(scratch_rule)
        replacement = Rule(name="scratch-rule", check_fn=_noop,
                           aliases=("scratch2",))
        register_rule(replacement, overwrite=True)
        assert resolve_rule("scratch-rule") is replacement
        assert resolve_rule("scratch2") is replacement
        # The old spec's aliases are gone, not orphaned.
        with pytest.raises(AnalysisError):
            resolve_rule("scratch")

    def test_empty_name_rejected(self):
        with pytest.raises(AnalysisError, match="non-empty"):
            register_rule(Rule(name="", check_fn=_noop))

    def test_did_you_mean(self):
        with pytest.raises(AnalysisError, match="no-stdlib-rng"):
            resolve_rule("no-stdlib-rgn")

    def test_unknown_lists_valid_names(self):
        with pytest.raises(AnalysisError, match="arena-lifetime"):
            resolve_rule("definitely-not-a-rule")


class TestBuiltinCatalog:
    def test_all_eight_rules_registered(self):
        names = set(rule_names())
        assert {
            "no-stdlib-rng", "no-global-numpy-rng",
            "arena-lifetime", "unlocked-shared-state",
            "pickle-unsafe-worker", "float-equality-in-stats",
            "unordered-iteration-to-output", "uint64-dtype-promotion",
        } <= names

    def test_every_rule_documents_its_invariant(self):
        for spec in available_rules():
            assert spec.description, spec.name
            assert spec.invariant, spec.name
