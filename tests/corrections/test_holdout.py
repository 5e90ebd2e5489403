"""Unit tests for the holdout approach (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.corrections import HoldoutRun, holdout
from repro.data import GeneratorConfig, generate_paired
from repro.errors import CorrectionError


@pytest.fixture(scope="module")
def paired_data():
    config = GeneratorConfig(
        n_records=600, n_attributes=12, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=120, max_coverage=120,
        min_confidence=0.95, max_confidence=0.95)
    return generate_paired(config, seed=71)


class TestSplitMechanics:
    def test_structured_split_uses_boundary(self, paired_data):
        run = HoldoutRun(paired_data.dataset, min_sup=40,
                         boundary=paired_data.half_boundary)
        assert run.exploratory.n_records == 300
        assert run.evaluation.n_records == 300

    def test_exploratory_min_sup_halved(self, paired_data):
        run = HoldoutRun(paired_data.dataset, min_sup=40,
                         boundary=paired_data.half_boundary)
        assert run.exploratory_rules.min_sup == 20

    def test_random_split_seeded(self, paired_data):
        a = HoldoutRun(paired_data.dataset, min_sup=40, split="random",
                       seed=5)
        b = HoldoutRun(paired_data.dataset, min_sup=40, split="random",
                       seed=5)
        assert a.exploratory.class_labels == b.exploratory.class_labels

    def test_invalid_split(self, paired_data):
        with pytest.raises(CorrectionError):
            HoldoutRun(paired_data.dataset, min_sup=40, split="thirds")

    def test_min_sup_too_small(self, paired_data):
        with pytest.raises(CorrectionError):
            HoldoutRun(paired_data.dataset, min_sup=1)


class TestCandidates:
    def test_candidates_pass_alpha_on_exploratory(self, paired_data):
        run = HoldoutRun(paired_data.dataset, min_sup=40,
                         boundary=paired_data.half_boundary)
        assert all(rule.p_value <= run.alpha for rule in run.candidates)

    def test_candidate_count_much_smaller(self, paired_data):
        run = HoldoutRun(paired_data.dataset, min_sup=40,
                         boundary=paired_data.half_boundary)
        assert len(run.candidates) < run.exploratory_rules.n_tests

    def test_evaluated_statistics_from_evaluation_half(self, paired_data):
        run = HoldoutRun(paired_data.dataset, min_sup=40,
                         boundary=paired_data.half_boundary)
        for candidate, scored in run.evaluated:
            assert scored.items == candidate.items
            assert scored.coverage == run.evaluation.pattern_support(
                candidate.items)

    def test_unobservable_pattern_gets_p_one(self, paired_data):
        # A pattern absent from the evaluation half can never validate.
        run = HoldoutRun(paired_data.dataset, min_sup=40,
                         boundary=paired_data.half_boundary)
        for _, scored in run.evaluated:
            if scored.coverage == 0:
                assert scored.p_value == 1.0

    @pytest.mark.parametrize("scorer", ("fisher", "fisher-midp", "chi2"))
    def test_evaluation_half_uses_the_run_scorer(self, scorer):
        """Candidates are re-scored with the run's scorer, not always
        the exact Fisher test."""
        from repro.data import make_german

        from .permutation_oracle import SCALAR_SCORERS

        scalar = SCALAR_SCORERS[scorer]
        run = HoldoutRun(make_german(seed=0, n_records=600), min_sup=30,
                         seed=1, scorer=scorer)
        evaluation = run.evaluation
        assert run.evaluated
        for _, scored in run.evaluated[:300]:
            if scored.coverage:
                assert scored.p_value == scalar(
                    scored.support, evaluation.n_records,
                    evaluation.class_support(scored.class_index),
                    scored.coverage)


class TestErrorControl:
    def test_bonferroni_uses_candidate_count(self, paired_data):
        run = HoldoutRun(paired_data.dataset, min_sup=40,
                         boundary=paired_data.half_boundary)
        result = run.bonferroni()
        if run.candidates:
            assert result.threshold == pytest.approx(
                0.05 / len(run.candidates))
        assert result.n_tests == len(run.candidates)

    def test_method_names(self, paired_data):
        hd = HoldoutRun(paired_data.dataset, min_sup=40,
                        boundary=paired_data.half_boundary)
        assert hd.bonferroni().method == "HD_BC"
        assert hd.benjamini_hochberg().method == "HD_BH"
        rh = HoldoutRun(paired_data.dataset, min_sup=40, split="random",
                        seed=1)
        assert rh.bonferroni().method == "RH_BC"
        assert rh.benjamini_hochberg().method == "RH_BH"

    def test_bh_no_stricter_than_bc(self, paired_data):
        run = HoldoutRun(paired_data.dataset, min_sup=40,
                         boundary=paired_data.half_boundary)
        assert run.benjamini_hochberg().n_significant >= \
            run.bonferroni().n_significant

    def test_detects_strong_planted_rule(self, paired_data):
        result = holdout(paired_data.dataset, min_sup=40, control="fwer",
                         boundary=paired_data.half_boundary)
        planted = paired_data.embedded_rules[0]
        # Compare on the full dataset via item ids.
        ds = paired_data.dataset
        target = ds.pattern_tidset(planted.item_ids)
        hits = [r for r in result.significant
                if ds.pattern_tidset(r.items) & target == target
                or ds.pattern_tidset(r.items) == target]
        assert hits

    def test_one_shot_controls(self, paired_data):
        fwer = holdout(paired_data.dataset, min_sup=40, control="fwer",
                       boundary=paired_data.half_boundary)
        fdr = holdout(paired_data.dataset, min_sup=40, control="fdr",
                      boundary=paired_data.half_boundary)
        assert fwer.control == "fwer"
        assert fdr.control == "fdr"

    def test_unknown_control(self, paired_data):
        with pytest.raises(CorrectionError):
            holdout(paired_data.dataset, min_sup=40, control="fnord")

    def test_details_counts(self, paired_data):
        result = holdout(paired_data.dataset, min_sup=40, control="fwer",
                         boundary=paired_data.half_boundary)
        details = result.details
        assert details["exploratory_records"] == 300
        assert details["n_candidates"] == result.n_tests
