"""PatternSet JSON round-trips: lossless, versioned, miner-agnostic."""

from __future__ import annotations

import json

import pytest

from repro.errors import MiningError
from repro.mining.patterns import PATTERNSET_SCHEMA_VERSION, PatternSet
from repro.mining.registry import resolve_miner

from ..conftest import tiny_dataset  # noqa: F401 (fixture re-export)


@pytest.fixture
def mined(tiny_dataset):  # noqa: F811
    return resolve_miner("closed").mine(tiny_dataset, 2)


def test_round_trip_preserves_forest(mined):
    document = mined.to_json()
    assert document["schema_version"] == PATTERNSET_SCHEMA_VERSION
    rebuilt = PatternSet.from_json(document)
    assert rebuilt.n_records == mined.n_records
    assert rebuilt.min_sup == mined.min_sup
    assert rebuilt.algorithm == mined.algorithm
    assert len(rebuilt.patterns) == len(mined.patterns)
    assert rebuilt.parent.tolist() == mined.parent.tolist()
    for original, restored in zip(mined.patterns, rebuilt.patterns):
        assert restored.parent_id == original.parent_id
        assert restored.items == original.items
        assert restored.support == original.support
        assert restored.tidset == original.tidset


def test_document_is_actually_json(mined):
    text = json.dumps(mined.to_json(), sort_keys=True)
    rebuilt = PatternSet.from_json(json.loads(text))
    assert len(rebuilt.patterns) == len(mined.patterns)


def test_round_trip_is_stable(mined):
    """to_json(from_json(x)) == x — a cache can re-serialize."""
    document = mined.to_json()
    assert PatternSet.from_json(document).to_json() == document


def test_wrong_schema_version_rejected(mined):
    document = mined.to_json()
    document["schema_version"] = PATTERNSET_SCHEMA_VERSION + 1
    with pytest.raises(MiningError, match="schema_version"):
        PatternSet.from_json(document)
    document.pop("schema_version")
    with pytest.raises(MiningError, match="schema_version"):
        PatternSet.from_json(document)


def test_schema_one_document_rejected(mined):
    """A version-1 document (per-node ``node_id`` and ``depth``)
    cannot be read as columns."""
    document = mined.to_json()
    document["schema_version"] = 1
    document["patterns"] = [
        dict(node, node_id=i, depth=0,
             parent_id=document["parent"][i])
        for i, node in enumerate(document["patterns"])]
    del document["parent"]
    with pytest.raises(MiningError, match="schema_version 1"):
        PatternSet.from_json(document)


def test_provenance_survives(mined):
    document = mined.to_json()
    rebuilt = PatternSet.from_json(document)
    assert rebuilt.provenance == document["provenance"]


def test_all_registered_miners_round_trip(tiny_dataset):  # noqa: F811
    from repro.mining.registry import available_miners

    for spec in available_miners():
        mined = resolve_miner(spec.name).mine(tiny_dataset, 2)
        rebuilt = PatternSet.from_json(mined.to_json())
        assert [p.items for p in rebuilt.patterns] == \
            [p.items for p in mined.patterns]
        assert (rebuilt.parent is None) == (mined.parent is None)
