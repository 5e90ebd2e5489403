"""ArtifactStore: keying, idempotent writes, indexed rule queries."""

from __future__ import annotations

import sqlite3
import threading
from contextlib import closing

import pytest

from repro.errors import ServiceError
from repro.service.store import STORE_SCHEMA_VERSION, ArtifactStore


def _rule(rule="A=a => pos", cls="pos", support=8, p=0.01, q=0.02,
          lift=1.5, items=("A=a",)):
    return {"rule": rule, "class": cls, "length": len(items),
            "coverage": 10, "support": support, "confidence": 0.8,
            "p_value": p, "q_value": q, "lift": lift,
            "items": list(items)}


@pytest.fixture
def store():
    handle = ArtifactStore()
    yield handle
    handle.close()


class TestMakeKey:
    def test_deterministic_and_param_order_free(self):
        key1 = ArtifactStore.make_key("fp", "closed", "bh",
                                      {"a": 1, "b": 2.5})
        key2 = ArtifactStore.make_key("fp", "closed", "bh",
                                      {"b": 2.5, "a": 1})
        assert key1 == key2
        assert len(key1) == 64

    def test_every_slot_matters(self):
        base = ArtifactStore.make_key("fp", "closed", "bh", {"a": 1})
        assert base != ArtifactStore.make_key(
            "fp2", "closed", "bh", {"a": 1})
        assert base != ArtifactStore.make_key(
            "fp", "apriori", "bh", {"a": 1})
        assert base != ArtifactStore.make_key(
            "fp", "closed", "bc", {"a": 1})
        assert base != ArtifactStore.make_key(
            "fp", "closed", "bh", {"a": 2})

    def test_rejects_empty_slots(self):
        with pytest.raises(ServiceError):
            ArtifactStore.make_key("", "closed", "bh", {})


class TestPutGet:
    def test_round_trip(self, store):
        payload = {"result": {"alpha": 0.05}, "n": 3}
        key = store.put("fp", "closed", "bh", {"s": 60},
                        payload, [_rule()])
        cached = store.get("fp", "closed", "bh", {"s": 60})
        assert cached is not None
        assert cached.key == key
        assert cached.payload == payload
        assert cached.params == {"s": 60}
        assert store.get_by_key(key).miner == "closed"

    def test_miss_returns_none(self, store):
        assert store.get("fp", "closed", "bh", {}) is None

    def test_put_is_idempotent(self, store):
        args = ("fp", "closed", "bh", {"s": 60})
        key1 = store.put(*args, {"v": 1}, [_rule()])
        key2 = store.put(*args, {"v": 2}, [_rule(), _rule("B=b => neg")])
        assert key1 == key2  # first write wins, no duplicate rows
        assert store.get_by_key(key1).payload == {"v": 1}
        assert store.stats()["rules"] == 1

    def test_concurrent_puts_single_row(self, store):
        args = ("fp", "closed", "bh", {"s": 1})
        threads = [threading.Thread(
            target=lambda: store.put(*args, {"v": 1}, [_rule()]))
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.stats()["artifacts"] == 1
        assert store.stats()["rules"] == 1

    def test_non_serializable_payload_rejected(self, store):
        with pytest.raises(TypeError):
            store.put("fp", "closed", "bh", {},
                      {"bad": object()})


class TestQueryRules:
    def _populate(self, store):
        store.put("fp1", "closed", "bh", {"s": 1}, {"v": 1}, [
            _rule("A=a => pos", "pos", support=9, p=0.001, q=0.004,
                  lift=2.0, items=("A=a",)),
            _rule("A=a, B=b => pos", "pos", support=7, p=0.01, q=0.03,
                  lift=1.8, items=("A=a", "B=b")),
        ])
        store.put("fp2", "closed", "bonferroni", {"s": 2},
                  {"v": 2}, [
            _rule("C=c => neg", "neg", support=5, p=0.002, q=None,
                  lift=3.0, items=("C=c",)),
        ])

    def test_filters(self, store):
        self._populate(store)
        assert len(store.query_rules()) == 3
        assert len(store.query_rules(item="A=a")) == 2
        assert len(store.query_rules(class_name="neg")) == 1
        assert len(store.query_rules(correction="bh")) == 2
        assert len(store.query_rules(dataset_fingerprint="fp2")) == 1
        assert len(store.query_rules(min_support=8)) == 1
        assert len(store.query_rules(max_p=0.005)) == 2
        # max_q excludes NULL q-values (no FDR estimate ≠ q of 0)
        assert len(store.query_rules(max_q=0.05)) == 2

    def test_top_k_by_lift(self, store):
        self._populate(store)
        rows = store.query_rules(order_by="lift", top_k=2)
        assert [row["rule"] for row in rows] == [
            "C=c => neg", "A=a => pos"]

    def test_order_by_p(self, store):
        self._populate(store)
        rows = store.query_rules(order_by="p_value")
        assert [row["p_value"] for row in rows] == [0.001, 0.002, 0.01]

    def test_order_by_whitelist(self, store):
        with pytest.raises(ServiceError, match="order_by"):
            store.query_rules(order_by="rule; DROP TABLE artifacts")

    def test_top_k_validated(self, store):
        with pytest.raises(ServiceError, match="top_k"):
            store.query_rules(top_k=0)

    def test_rows_carry_provenance(self, store):
        self._populate(store)
        row = store.query_rules(item="C=c")[0]
        assert row["correction"] == "bonferroni"
        assert row["miner"] == "closed"
        assert row["dataset_fingerprint"] == "fp2"


def test_wal_mode_on_disk(tmp_path):
    store = ArtifactStore(str(tmp_path / "artifacts.db"))
    try:
        assert store.stats()["journal_mode"] == "wal"
    finally:
        store.close()


def test_persistence_across_reopen(tmp_path):
    path = str(tmp_path / "artifacts.db")
    first = ArtifactStore(path)
    first.put("fp", "closed", "bh", {"s": 1}, {"v": 7}, [_rule()])
    first.close()
    second = ArtifactStore(path)
    try:
        cached = second.get("fp", "closed", "bh", {"s": 1})
        assert cached is not None and cached.payload == {"v": 7}
        assert len(second.query_rules(item="A=a")) == 1
    finally:
        second.close()


def test_schema_1_file_refused_at_open(tmp_path):
    """A store written before the forest-policy key slot was dropped
    is refused at open, naming both versions, not at its first put."""
    path = str(tmp_path / "artifacts.db")
    ArtifactStore(path).close()
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.execute("UPDATE meta SET value = '1' "
                     "WHERE key = 'store_schema_version'")
    with pytest.raises(ServiceError, match=r"schema 1; .* reads 2"):
        ArtifactStore(path)
    assert STORE_SCHEMA_VERSION == 2
