"""The pluggable correction registry: resolution, round-trips,
registration, and error reporting."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import CORRECTIONS, mine_significant_rules
from repro.corrections import (
    Correction,
    available_corrections,
    bonferroni,
    correction_names,
    get_correction,
    register_correction,
    resolve_correction,
    unregister_correction,
)
from repro.errors import CorrectionError

EXPECTED_CANONICAL = {
    "none", "bonferroni", "holm", "hochberg", "sidak",
    "weighted-bonferroni", "weighted-bh",
    "bh", "by", "storey", "bky", "lamp",
    "permutation-fwer", "permutation-fwer-stepdown", "permutation-fdr",
    "holdout-fwer", "holdout-fdr", "layered",
}

#: Table 3 abbreviation -> canonical name, the mapping the experiment
#: runner's method keys rely on.
TABLE3 = {
    "No correction": "none",
    "BC": "bonferroni",
    "BH": "bh",
    "Perm_FWER": "permutation-fwer",
    "Perm_FDR": "permutation-fdr",
    "Perm_FWER_SD": "permutation-fwer-stepdown",
    "HD_BC": "holdout-fwer",
    "HD_BH": "holdout-fdr",
    "RH_BC": "holdout-fwer",
    "RH_BH": "holdout-fdr",
    "Layered": "layered",
    "BY": "by",
    "LAMP": "lamp",
    "Holm": "holm",
    "Hochberg": "hochberg",
    "Sidak": "sidak",
    "Storey": "storey",
    "BKY": "bky",
    "wBC": "weighted-bonferroni",
    "wBH": "weighted-bh",
}


@pytest.fixture
def custom_correction():
    """Register a throwaway correction; always unregister afterwards."""
    spec = Correction(
        name="test-custom", abbreviation="TC", family="fwer",
        apply_fn=lambda ruleset, alpha, ctx: bonferroni(ruleset, alpha),
        aliases=("tc-alias",))
    register_correction(spec)
    yield spec
    unregister_correction("test-custom")


class TestCatalogue:
    def test_all_expected_corrections_registered(self):
        assert EXPECTED_CANONICAL <= set(correction_names())

    def test_corrections_view_matches_registry(self):
        assert set(CORRECTIONS) == set(correction_names())

    def test_every_table3_abbreviation_resolves(self):
        for abbreviation, canonical in TABLE3.items():
            assert resolve_correction(abbreviation).name == canonical


class TestRoundTrips:
    @pytest.mark.parametrize(
        "spec", available_corrections(), ids=lambda s: s.name)
    def test_name_abbreviation_alias_roundtrip(self, spec):
        assert resolve_correction(spec.name).name == spec.name
        assert resolve_correction(spec.abbreviation).name == spec.name
        for alias in spec.aliases:
            assert resolve_correction(alias).name == spec.name
        for variant in spec.variants:
            assert resolve_correction(variant).name == spec.name

    @pytest.mark.parametrize(
        "spec", available_corrections(), ids=lambda s: s.name)
    def test_case_insensitive(self, spec):
        assert resolve_correction(spec.name.upper()).name == spec.name
        assert resolve_correction(
            spec.abbreviation.lower()).name == spec.name

    def test_variant_overrides_bound(self):
        assert resolve_correction("HD_BC").overrides == {
            "holdout_split": "structured"}
        assert resolve_correction("RH_BH").overrides == {
            "holdout_split": "random"}

    def test_get_correction_returns_spec(self):
        assert get_correction("BH") is get_correction("bh")


class TestErrors:
    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(CorrectionError) as excinfo:
            resolve_correction("voodoo")
        message = str(excinfo.value)
        assert "bh" in message
        assert "Perm_FWER" in message  # abbreviations included
        assert "benjamini-hochberg" in message  # aliases included

    def test_did_you_mean_suggestion(self):
        with pytest.raises(CorrectionError,
                           match="did you mean 'bonferroni'"):
            resolve_correction("bonferonni")

    def test_did_you_mean_abbreviation(self):
        with pytest.raises(CorrectionError, match="did you mean"):
            resolve_correction("perm_fwer_s")

    def test_non_string_rejected(self):
        with pytest.raises(CorrectionError, match="must be a string"):
            resolve_correction(3)

    def test_miner_error_comes_from_registry(self):
        with pytest.raises(CorrectionError, match="valid names"):
            mine_significant_rules(None, 10, correction="nope")


class TestRegistration:
    def test_duplicate_name_rejected(self, custom_correction):
        clash = Correction(
            name="test-custom", abbreviation="XX", family="fwer",
            apply_fn=lambda ruleset, alpha, ctx: None)
        with pytest.raises(CorrectionError, match="already registered"):
            register_correction(clash)

    def test_duplicate_alias_rejected(self, custom_correction):
        clash = Correction(
            name="test-other", abbreviation="TO", family="fwer",
            apply_fn=lambda ruleset, alpha, ctx: None,
            aliases=("tc-alias",))
        with pytest.raises(CorrectionError, match="already registered"):
            register_correction(clash)

    def test_clash_with_builtin_abbreviation_rejected(self):
        clash = Correction(
            name="test-bh-clash", abbreviation="BH", family="fdr",
            apply_fn=lambda ruleset, alpha, ctx: None)
        with pytest.raises(CorrectionError, match="already registered"):
            register_correction(clash)

    def test_bad_family_rejected(self):
        with pytest.raises(CorrectionError, match="family"):
            register_correction(Correction(
                name="test-bad-family", abbreviation="BF",
                family="banana",
                apply_fn=lambda ruleset, alpha, ctx: None))

    def test_unregister_removes_all_spellings(self, custom_correction):
        unregister_correction("TC")
        for spelling in ("test-custom", "TC", "tc-alias"):
            with pytest.raises(CorrectionError):
                resolve_correction(spelling)
        # Re-register so the fixture teardown has something to remove.
        register_correction(custom_correction)

    def test_registered_correction_appears_in_view(self,
                                                   custom_correction):
        assert CORRECTIONS["test-custom"] == "TC"
        assert "test-custom" in set(CORRECTIONS)

    def test_failed_overwrite_preserves_original(self):
        clash = Correction(
            name="bh", abbreviation="Holm", family="fdr",
            apply_fn=lambda ruleset, alpha, ctx: None)
        with pytest.raises(CorrectionError, match="already registered"):
            register_correction(clash, overwrite=True)
        # The built-in BH must survive the rejected overwrite.
        assert resolve_correction("bh").name == "bh"
        assert resolve_correction("BH").name == "bh"

    def test_successful_overwrite_replaces_spellings(
            self, custom_correction):
        replacement = Correction(
            name="test-custom", abbreviation="TC2", family="fdr",
            apply_fn=lambda ruleset, alpha, ctx: None)
        register_correction(replacement, overwrite=True)
        assert resolve_correction("TC2").name == "test-custom"
        assert get_correction("test-custom").family == "fdr"
        with pytest.raises(CorrectionError):
            resolve_correction("tc-alias")  # old alias dropped

    def test_overwrite_through_alias_rejected(self, custom_correction):
        # Overwrite replaces only a matching *canonical* name; hitting
        # another spec through one of its aliases is a collision, not
        # a licence to delete that spec wholesale.
        hijack = Correction(
            name="tc-alias", abbreviation="HJ", family="fwer",
            apply_fn=lambda ruleset, alpha, ctx: None)
        with pytest.raises(CorrectionError, match="already registered"):
            register_correction(hijack, overwrite=True)
        assert resolve_correction("test-custom").name == "test-custom"
        assert resolve_correction("tc-alias").name == "test-custom"

    def test_overwrite_by_case_variant(self, custom_correction):
        # Resolution is case-insensitive, so overwrite lookup is too.
        replacement = Correction(
            name="TEST-CUSTOM", abbreviation="TC3", family="fdr",
            apply_fn=lambda ruleset, alpha, ctx: None)
        register_correction(replacement, overwrite=True)
        assert resolve_correction("test-custom").name == "TEST-CUSTOM"
        assert resolve_correction("TC3").name == "TEST-CUSTOM"


class TestCustomCorrectionEndToEnd:
    def test_custom_correction_mines(self, custom_correction,
                                     small_random_dataset):
        report = mine_significant_rules(
            small_random_dataset, min_sup=10, correction="tc-alias")
        assert report.correction == "test-custom"
        baseline = mine_significant_rules(
            small_random_dataset, min_sup=10, correction="bonferroni")
        assert report.result.threshold == baseline.result.threshold

    def test_custom_correction_in_runner(self, custom_correction):
        from repro.data.synthetic import GeneratorConfig
        from repro.evaluation.runner import ExperimentRunner

        config = GeneratorConfig(
            n_records=200, n_attributes=8, min_values=2, max_values=3,
            n_rules=1, min_length=2, max_length=2,
            min_coverage=40, max_coverage=40,
            min_confidence=0.9, max_confidence=0.9)
        runner = ExperimentRunner(methods=("BC", "TC"))
        result = runner.run(config, min_sup=20, n_replicates=2, seed=3)
        assert result.aggregates["TC"].row() == \
            result.aggregates["BC"].row()

    def test_custom_holdout_correction_without_shared_run(self):
        """A needs_holdout plugin that manages its own split must not
        crash the runner's decision-dataset lookup."""
        from repro.corrections import no_correction
        from repro.data.synthetic import GeneratorConfig
        from repro.evaluation.runner import ExperimentRunner

        spec = Correction(
            name="test-own-holdout", abbreviation="TOH", family="fwer",
            apply_fn=lambda ruleset, alpha, ctx: no_correction(ruleset,
                                                               alpha),
            needs_holdout=True)
        register_correction(spec)
        try:
            config = GeneratorConfig(
                n_records=200, n_attributes=8, min_values=2,
                max_values=3, n_rules=1, min_length=2, max_length=2,
                min_coverage=40, max_coverage=40,
                min_confidence=0.9, max_confidence=0.9)
            runner = ExperimentRunner(methods=("TOH",))
            result = runner.run(config, min_sup=20, n_replicates=1,
                                seed=3)
            assert "TOH" in result.aggregates
        finally:
            unregister_correction("test-own-holdout")


def test_concurrent_overwrites_stay_consistent():
    """An overwrite re-enters ``unregister_correction`` under the
    registry lock; racing overwrites of one name must neither raise
    nor leave a spelling pointing at a removed spec."""
    specs = [Correction(
        name="stress-correction", abbreviation="SC", family="fwer",
        apply_fn=lambda ruleset, alpha, ctx: bonferroni(ruleset, alpha),
        aliases=("stress-alias",)) for _ in range(8)]
    errors = []

    def hammer(spec):
        try:
            for _ in range(200):
                register_correction(spec, overwrite=True)
        except CorrectionError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(spec,))
               for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        winner = get_correction("stress-correction")
        assert any(winner is spec for spec in specs)
        assert get_correction("SC") is winner
        assert get_correction("stress-alias") is winner
    finally:
        unregister_correction("stress-correction")
