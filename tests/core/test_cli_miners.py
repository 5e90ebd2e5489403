"""CLI integration with the miner registry: ``--algorithm``,
``--list-algorithms``, did-you-mean errors, and plugin miners."""

from __future__ import annotations

import io
import sys
import textwrap

import pytest

from repro.cli import build_parser, main
from repro.data import GeneratorConfig, generate, save_csv
from repro.mining import resolve_miner, unregister_miner


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    config = GeneratorConfig(
        n_records=300, n_attributes=8, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=60, max_coverage=60,
        min_confidence=0.9, max_confidence=0.9)
    dataset = generate(config, seed=55).dataset
    path = tmp_path_factory.mktemp("cli-miners") / "data.csv"
    save_csv(dataset, path)
    return str(path)


class TestAlgorithmFlag:
    def test_default_is_closed(self):
        args = build_parser().parse_args(
            ["mine", "x.csv", "--min-sup", "10"])
        assert args.algorithm == "closed"

    def test_alias_canonicalised(self):
        args = build_parser().parse_args(
            ["mine", "x.csv", "--min-sup", "10",
             "--algorithm", "LevelWise"])
        assert args.algorithm == "apriori"

    def test_mine_runs_with_every_builtin(self, csv_path):
        from repro.mining import miner_names

        for algorithm in miner_names():
            out = io.StringIO()
            code = main(["mine", csv_path, "--min-sup", "25",
                         "--correction", "BH",
                         "--algorithm", algorithm, "--top", "3"],
                        out=out)
            assert code == 0, algorithm
            assert "significant rules" in out.getvalue()

    def test_all_frequent_tests_at_least_as_many(self, csv_path):
        def n_tests(algorithm):
            out = io.StringIO()
            assert main(["mine", csv_path, "--min-sup", "25",
                         "--algorithm", algorithm], out=out) == 0
            text = out.getvalue()
            return int(text.split("n_tests=")[1].split(")")[0])

        assert n_tests("apriori") >= n_tests("closed")

    def test_typo_gets_did_you_mean(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["mine", "x.csv", "--min-sup", "10",
                 "--algorithm", "apirori"])
        assert excinfo.value.code == 2
        assert "did you mean 'apriori'" in capsys.readouterr().err

    def test_jobs_do_not_change_csv_output(self, csv_path, tmp_path):
        outputs = []
        for jobs, backend in (("1", "serial"), ("4", "processes")):
            csv_out = tmp_path / f"rules_j{jobs}.csv"
            assert main(["mine", csv_path, "--min-sup", "25",
                         "--algorithm", "apriori",
                         "--correction", "Perm_FWER",
                         "--permutations", "50", "--seed", "0",
                         "--jobs", jobs, "--backend", backend,
                         "--csv-out", str(csv_out)],
                        out=io.StringIO()) == 0
            outputs.append(csv_out.read_bytes())
        assert outputs[0] == outputs[1]


class TestListAlgorithms:
    def test_lists_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--list-algorithms"])
        assert excinfo.value.code == 0
        captured = capsys.readouterr().out
        for name in ("closed", "apriori", "representative",
                     "general-rules"):
            assert name in captured
        assert "all-frequent" in captured


class TestPluginMiners:
    def test_plugin_miner_usable_via_algorithm(self, csv_path,
                                               tmp_path, monkeypatch):
        module = tmp_path / "my_miners.py"
        module.write_text(textwrap.dedent("""\
            from repro.mining import (
                Miner,
                mine_apriori,
                patternset_from_frequent,
                register_miner,
            )

            def _mine(item_tidsets, n_records, min_sup, max_length,
                      **opts):
                patterns = mine_apriori(item_tidsets, n_records,
                                        min_sup,
                                        max_length=max_length)
                return patternset_from_frequent(
                    patterns, n_records, min_sup)

            register_miner(Miner(
                name="plugin-miner", mine_fn=_mine,
                aliases=("pm",), capabilities=("all-frequent",)))
        """))
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            out = io.StringIO()
            code = main(["--plugin", "my_miners", "mine", csv_path,
                         "--min-sup", "25",
                         "--algorithm", "plugin-miner"], out=out)
            assert code == 0
            assert "significant rules" in out.getvalue()
            assert resolve_miner("pm").name == "plugin-miner"
            # The plugin miner shows up in the listing too.
            with pytest.raises(SystemExit):
                main(["--plugin", "my_miners", "--list-algorithms"])
        finally:
            unregister_miner("plugin-miner")
            sys.modules.pop("my_miners", None)

    def test_repro_plugins_env(self, csv_path, tmp_path, monkeypatch):
        module = tmp_path / "env_miners.py"
        module.write_text(textwrap.dedent("""\
            from repro.mining import (
                Miner,
                mine_apriori,
                patternset_from_frequent,
                register_miner,
            )

            register_miner(Miner(
                name="env-miner",
                mine_fn=lambda t, n, s, m, **o:
                    patternset_from_frequent(
                        mine_apriori(t, n, s, max_length=m), n, s),
                capabilities=("all-frequent",)))
        """))
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "env_miners")
        try:
            out = io.StringIO()
            code = main(["mine", csv_path, "--min-sup", "25",
                         "--algorithm", "env-miner"], out=out)
            assert code == 0
        finally:
            unregister_miner("env-miner")
            sys.modules.pop("env_miners", None)
