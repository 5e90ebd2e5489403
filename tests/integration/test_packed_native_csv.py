"""Packed-native substrate ≡ bigint baseline, end to end, per miner.

The multi-layer refactor retired bigint tidsets from every hot path;
these tests pin the two guarantees that made that safe:

* **representation identity** — a dataset ingested through the packed
  arena and the *same* dataset rebuilt from the bigint oracle's
  bitsets (converted row by row through ``tests/bigint_oracle.py``)
  produce byte-identical mine / holdout / permutation CSV output for
  every registered miner;
* **native identity** — for every miner, a run with the native kernel
  suite and a ``REPRO_NATIVE=0`` run (the Python closed walk, numpy
  supports tiles and numpy statistics, sharing no kernel with the
  native path) emit byte-identical permutation CSVs through the real
  CLI.
"""

from __future__ import annotations

import filecmp

import pytest

from repro import _native
from repro.cli import main
from repro.core.pipeline import Pipeline
from repro.data import Dataset, GeneratorConfig, generate, save_csv
from repro.evaluation.export import rules_to_csv

from .. import bigint_oracle as bs
from ..fpgrowth_oracle import registered_fpgrowth

# The built-in miners, and the FP-growth oracle as a plugin.
MINERS = ("closed", "apriori", "fpgrowth", "representative")


@pytest.fixture(scope="module", autouse=True)
def fpgrowth_plugin():
    """The FP-growth oracle, registered as the plugin miner
    ``"fpgrowth"`` while this module runs."""
    with registered_fpgrowth():
        yield


@pytest.fixture(scope="module")
def data():
    config = GeneratorConfig(
        n_records=300, n_attributes=8, n_rules=1,
        min_coverage=60, max_coverage=60,
        min_confidence=0.9, max_confidence=0.9)
    return generate(config, seed=23).dataset


@pytest.fixture(scope="module")
def bigint_clone(data):
    """The same dataset rebuilt from bigint bitsets, one converted
    row per item."""
    return Dataset(
        data.n_records, data.catalog,
        bs.to_tidvectors([t.to_bigint() for t in data.item_tidsets],
                         data.n_records),
        data.class_labels, data.class_names, name=data.name)


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("native") / "dataset.csv"
    save_csv(data, str(path))
    return path


class TestBigintIngestIdentity:
    @pytest.mark.parametrize("algorithm", MINERS)
    @pytest.mark.parametrize("correction",
                             ["BH", "HD_BC", "Perm_FWER"])
    def test_mine_holdout_permutation_csv_identical(
            self, data, bigint_clone, tmp_path, algorithm, correction):
        paths = []
        for tag, dataset in (("packed", data), ("bigint", bigint_clone)):
            pipe = Pipeline(min_sup=30, corrections=(correction,),
                            algorithm=algorithm, n_permutations=40,
                            seed=0)
            result = pipe.run(dataset)
            out = tmp_path / f"{algorithm}_{correction}_{tag}.csv"
            rules_to_csv(result[correction].significant, dataset,
                         str(out))
            paths.append(out)
        assert filecmp.cmp(*paths, shallow=False), \
            f"{algorithm}/{correction}: packed-native != bigint ingest"


class TestMinerNativeIdentity:
    @pytest.mark.parametrize("algorithm", MINERS)
    def test_native_matches_numpy_reference(
            self, dataset_csv, tmp_path, monkeypatch, algorithm):
        outputs = {}
        for mode, native in (("native", None), ("numpy", "0")):
            if native is not None:
                # load_suite memoises; reset it so the toggle is re-read
                # and restore its status afterwards.
                monkeypatch.setenv("REPRO_NATIVE", native)
                monkeypatch.setattr(_native, "_kernel", "unset")
                monkeypatch.setattr(_native, "_status", _native._status)
            out = tmp_path / f"{algorithm}_{mode}.csv"
            argv = ["mine", str(dataset_csv), "--min-sup", "30",
                    "--algorithm", algorithm,
                    "--correction", "Perm_FWER",
                    "--permutations", "40", "--seed", "0",
                    "--csv-out", str(out)]
            with open(out.with_suffix(".log"), "w") as log:
                assert main(argv, out=log) == 0
            outputs[mode] = out
        assert filecmp.cmp(outputs["native"], outputs["numpy"],
                           shallow=False), \
            f"{algorithm}: native run differs from the REPRO_NATIVE=0 " \
            f"reference"
