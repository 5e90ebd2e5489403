"""Unit tests for the CLI extension options (measures, ranking,
redundancy, mid-p)."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main
from repro.data import GeneratorConfig, generate, save_csv


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    config = GeneratorConfig(
        n_records=300, n_attributes=8, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=60, max_coverage=60,
        min_confidence=0.9, max_confidence=0.9)
    dataset = generate(config, seed=55).dataset
    path = tmp_path_factory.mktemp("cli-ext") / "data.csv"
    save_csv(dataset, path)
    return str(path)


class TestMeasuresCommand:
    def test_lists_all_measures(self):
        out = io.StringIO()
        assert main(["measures"], out=out) == 0
        text = out.getvalue()
        for name in ("lift", "leverage", "conviction", "jaccard"):
            assert name in text


class TestNewCorrectionsViaCli:
    @pytest.mark.parametrize("correction",
                             ["holm", "hochberg", "sidak",
                              "storey", "bky"])
    def test_direct_style_corrections(self, csv_path, correction):
        out = io.StringIO()
        code = main(["mine", csv_path, "--min-sup", "25",
                     "--correction", correction], out=out)
        assert code == 0
        assert "significant rules" in out.getvalue()

    def test_stepdown_permutation(self, csv_path):
        out = io.StringIO()
        code = main(["mine", csv_path, "--min-sup", "25",
                     "--correction", "permutation-fwer-stepdown",
                     "--permutations", "30", "--seed", "0"], out=out)
        assert code == 0
        assert "Perm_FWER_SD" in out.getvalue()


class TestRankBy:
    def test_rank_by_lift_runs(self, csv_path):
        out = io.StringIO()
        code = main(["mine", csv_path, "--min-sup", "25",
                     "--correction", "bh", "--rank-by", "lift",
                     "--top", "5"], out=out)
        assert code == 0

    def test_rank_by_rejects_unknown_measure(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["mine", "x.csv", "--min-sup", "10",
                               "--rank-by", "bogus"])


class TestRedundancyDeltaOption:
    def test_runs_and_reports(self, csv_path):
        out = io.StringIO()
        code = main(["mine", csv_path, "--min-sup", "25",
                     "--correction", "bonferroni",
                     "--redundancy-delta", "0.3"], out=out)
        assert code == 0

    def test_rejected_with_holdout(self, csv_path):
        code = main(["mine", csv_path, "--min-sup", "25",
                     "--correction", "holdout-fwer",
                     "--redundancy-delta", "0.3"], out=io.StringIO())
        assert code == 2  # ReproError -> exit code 2


class TestMidPOption:
    def test_midp_scorer_accepted(self, csv_path):
        out = io.StringIO()
        code = main(["mine", csv_path, "--min-sup", "25",
                     "--scorer", "fisher-midp"], out=out)
        assert code == 0

    def test_parser_rejects_unknown_scorer(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["mine", "x.csv", "--min-sup", "10",
                               "--scorer", "exact"])


class TestPowerCommand:
    def test_untestable_coverage_reported(self):
        out = io.StringIO()
        code = main(["power", "--records", "1000",
                     "--class-support", "500", "--coverage", "5",
                     "--threshold", "0.05"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "UNTESTABLE" in text
        assert "minimum testable coverage: 6" in text

    def test_detectable_coverage_reports_boundary(self):
        out = io.StringIO()
        code = main(["power", "--records", "2000",
                     "--class-support", "1000", "--coverage", "400",
                     "--threshold", "1.43e-5",
                     "--confidence", "0.6"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "minimum detectable support:    240" in text
        assert "detection power" in text

    def test_requires_all_shape_arguments(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["power", "--records", "100"])


class TestExperimentCommand:
    def test_runs_and_prints_table(self):
        out = io.StringIO()
        code = main(["experiment", "--records", "240",
                     "--attributes", "8", "--coverage", "48",
                     "--confidence", "0.9", "--min-sup", "20",
                     "--replicates", "2",
                     "--methods", "No correction,BC",
                     "--seed", "3"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "power" in text and "FWER" in text
        assert "No correction" in text and "BC" in text

    def test_unknown_method_is_reported_as_error(self):
        code = main(["experiment", "--records", "240",
                     "--methods", "NotAMethod",
                     "--replicates", "1"], out=io.StringIO())
        assert code == 2


class TestCsvOut:
    def test_mine_writes_csv(self, csv_path, tmp_path):
        out = io.StringIO()
        target = tmp_path / "sig.csv"
        code = main(["mine", csv_path, "--min-sup", "25",
                     "--correction", "bonferroni",
                     "--csv-out", str(target)], out=out)
        assert code == 0
        assert target.exists()
        header = target.read_text().splitlines()[0].strip().split(",")
        assert header[:2] == ["rule", "class"]
        assert "wrote" in out.getvalue()
