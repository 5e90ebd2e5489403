"""Memoized artifact store: fingerprint-keyed mining results in SQLite.

One artifact is the full outcome of a mine/holdout job — the
serialized :class:`~repro.corrections.base.CorrectionResult` (and
pattern-forest metadata) as stable JSON — keyed by the SHA-256 of the
canonical ``(dataset fingerprint, miner, correction, policy, params)``
tuple. A repeated request with the same key is served from storage
without re-mining, and because the JSON round-trip is lossless
(:mod:`repro.jsonio`), the served result re-renders byte-identical to
the uncached :meth:`~repro.core.pipeline.Pipeline.run`.

Alongside the opaque payload, each artifact's significant rules are
unpacked into indexed columns (item, class, support, q-value, lift) so
the read path — "rules containing item X under BH at q < 0.05, top-k
by lift" — is one indexed SQL query, never a payload scan.

Storage is stdlib ``sqlite3`` in WAL mode behind one lock-serialized
connection. Worker counts and backends are *not* part of the key: the
parallel subsystem guarantees bit-identical results at any worker
count, so results cached at ``--jobs 1`` serve requests mined at
``--jobs 8`` and vice versa.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import ServiceError
from ..jsonio import canonical_dumps, json_safe
from ..parallel.resilience import RetryPolicy, is_transient
from ..testing import faults

try:  # json module is stdlib; decouple the import for monkeypatching
    import json
except ImportError:  # pragma: no cover - stdlib
    raise

__all__ = ["ArtifactStore", "CachedArtifact", "run_with_busy_retry"]

STORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    key TEXT PRIMARY KEY,
    dataset_fingerprint TEXT NOT NULL,
    miner TEXT NOT NULL,
    correction TEXT NOT NULL,
    policy TEXT NOT NULL,
    params_json TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    created_at REAL NOT NULL,
    payload_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_artifacts_fingerprint
    ON artifacts(dataset_fingerprint);
CREATE TABLE IF NOT EXISTS artifact_rules (
    artifact_key TEXT NOT NULL,
    rule_index INTEGER NOT NULL,
    rule TEXT NOT NULL,
    class TEXT NOT NULL,
    length INTEGER NOT NULL,
    coverage INTEGER NOT NULL,
    support INTEGER NOT NULL,
    confidence REAL NOT NULL,
    p_value REAL NOT NULL,
    q_value REAL,
    lift REAL,
    PRIMARY KEY (artifact_key, rule_index)
);
CREATE INDEX IF NOT EXISTS idx_rules_class ON artifact_rules(class);
CREATE INDEX IF NOT EXISTS idx_rules_support
    ON artifact_rules(support);
CREATE INDEX IF NOT EXISTS idx_rules_qvalue
    ON artifact_rules(q_value);
CREATE TABLE IF NOT EXISTS rule_items (
    artifact_key TEXT NOT NULL,
    rule_index INTEGER NOT NULL,
    item TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_rule_items_item ON rule_items(item);
"""

#: order_by spellings → (SQL column, direction). Every ordering ends
#: with deterministic tiebreaks (p ascending, rule text, row index) so
#: response bytes never depend on SQLite visit order.
_ORDERINGS = {
    "lift": "r.lift DESC",
    "confidence": "r.confidence DESC",
    "support": "r.support DESC",
    "coverage": "r.coverage DESC",
    "p_value": "r.p_value ASC",
    "q_value": "r.q_value ASC",
}

_RULE_COLUMNS = ("rule", "class", "length", "coverage", "support",
                 "confidence", "p_value", "q_value", "lift")

#: Bounded ``SQLITE_BUSY`` retry on the deterministic capped schedule
#: 10/20/40/80 ms — a second line of defence on top of SQLite's own
#: ``busy_timeout`` (which blocks *inside* one statement; this retries
#: the whole write when the timeout still expired).
_BUSY_RETRY = RetryPolicy(max_attempts=5, base_delay=0.01,
                          max_delay=0.08)


def run_with_busy_retry(operation, what: str = "sqlite write",
                        policy: RetryPolicy = _BUSY_RETRY):
    """Run a write closure, retrying bounded times on ``SQLITE_BUSY``.

    Lock contention (``database is locked`` / ``... is busy``) is the
    one :class:`sqlite3.OperationalError` that retrying fixes: another
    process holds the WAL write lock and will release it. Anything
    else — corrupt schema, missing table, disk full — re-raises
    unchanged on the first attempt, and even contention re-raises
    once the schedule is exhausted, so a genuinely stuck database
    fails loudly instead of hanging.

    The ``sqlite-busy`` chaos point fires *inside* the loop: an armed
    plan with a fire cap exercises the retry path and then recovers;
    an uncapped plan proves exhaustion stays a classified, transient
    error (see ``tests/chaos``).
    """
    last_error: Optional[sqlite3.OperationalError] = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            if faults.should_fire("sqlite-busy"):
                raise sqlite3.OperationalError(
                    f"database is locked (injected sqlite-busy fault "
                    f"during {what})")
            return operation()
        except sqlite3.OperationalError as exc:
            if not is_transient(exc) or attempt >= policy.max_attempts:
                raise
            last_error = exc
            time.sleep(policy.delay(attempt))
    raise last_error  # pragma: no cover - loop always returns/raises


@dataclass
class CachedArtifact:
    """One stored artifact: its key, identity columns and payload."""

    key: str
    dataset_fingerprint: str
    miner: str
    correction: str
    policy: str
    params: Dict[str, object]
    created_at: float
    payload: Dict[str, object]


def _require_str(value: object, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ServiceError(f"{what} must be a non-empty string, "
                           f"got {value!r}")
    return value


class ArtifactStore:
    """SQLite-backed artifact cache (see module docstring).

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an in-process store
        (tests). WAL journaling is requested at open; in-memory
        databases silently keep their native journal mode.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path,
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            # Block up to 5s inside SQLite on a contended write lock
            # before surfacing SQLITE_BUSY (which the bounded retry in
            # run_with_busy_retry then handles).
            self._conn.execute("PRAGMA busy_timeout=5000")
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("store_schema_version", str(STORE_SCHEMA_VERSION)))
            self._conn.commit()

    def __reduce__(self):
        # Process-local by design: an open sqlite connection and its
        # serializing lock cannot cross a process boundary. Workers
        # must open their own store on the same path.
        raise TypeError(
            "ArtifactStore is process-local and cannot be pickled; "
            "open a new ArtifactStore(path) in the worker instead")

    def close(self) -> None:
        """Close the underlying connection."""
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------

    @staticmethod
    def canonical_params(params: Mapping[str, object]) -> str:
        """Deterministic JSON text of a params mapping."""
        return canonical_dumps(json_safe(dict(params), strict=True))

    @classmethod
    def make_key(cls, dataset_fingerprint: str, miner: str,
                 correction: str, policy: str,
                 params: Mapping[str, object]) -> str:
        """SHA-256 over the canonical identity tuple.

        ``n_jobs``/``backend`` must not appear in ``params``: results
        are bit-identical at any worker count, so parallelism is an
        execution detail, not an identity.
        """
        identity = canonical_dumps([
            _require_str(dataset_fingerprint, "dataset fingerprint"),
            _require_str(miner, "miner"),
            _require_str(correction, "correction"),
            _require_str(policy, "policy"),
            json.loads(cls.canonical_params(params)),
        ])
        return hashlib.sha256(identity.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def put(self, dataset_fingerprint: str, miner: str, correction: str,
            policy: str, params: Mapping[str, object],
            payload: Mapping[str, object],
            rules: Sequence[Mapping[str, object]] = ()) -> str:
        """Persist one artifact; returns its key.

        Idempotent under races: two workers finishing the same job
        concurrently both succeed, the first insert wins, and — because
        the pipeline is deterministic — both computed the same payload,
        so which one landed is unobservable. ``rules`` rows feed the
        indexed read path; each needs the :data:`_RULE_COLUMNS` fields
        plus an ``"items"`` list of item display strings.
        """
        key = self.make_key(dataset_fingerprint, miner, correction,
                            policy, params)
        payload_text = canonical_dumps(json_safe(dict(payload),
                                                 strict=True))

        def write() -> str:
            faults.sleep_if("sqlite-slow-write")
            with self._lock:
                try:
                    cursor = self._conn.execute(
                        "INSERT OR IGNORE INTO artifacts (key, "
                        "dataset_fingerprint, miner, correction, "
                        "policy, params_json, schema_version, "
                        "created_at, payload_json)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        (key, dataset_fingerprint, miner, correction,
                         policy, self.canonical_params(params),
                         STORE_SCHEMA_VERSION, time.time(),
                         payload_text))
                    if cursor.rowcount:
                        for index, rule in enumerate(rules):
                            self._conn.execute(
                                "INSERT INTO artifact_rules "
                                "(artifact_key, rule_index, rule, "
                                "class, length, coverage, support, "
                                "confidence, p_value, q_value, lift) "
                                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, "
                                "?, ?)",
                                (key, index)
                                + tuple(rule.get(column)
                                        for column in _RULE_COLUMNS))
                            for item in rule.get("items", ()):
                                self._conn.execute(
                                    "INSERT INTO rule_items "
                                    "(artifact_key, rule_index, item) "
                                    "VALUES (?, ?, ?)",
                                    (key, index, str(item)))
                    self._conn.commit()
                except sqlite3.OperationalError:
                    # Leave no open transaction behind: a retry must
                    # re-run the whole write (INSERT OR IGNORE keeps
                    # it idempotent), not resume half of one.
                    try:
                        self._conn.rollback()
                    except sqlite3.Error:  # pragma: no cover
                        pass
                    raise
            return key

        return run_with_busy_retry(write, what="artifact put")

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def get(self, dataset_fingerprint: str, miner: str, correction: str,
            policy: str, params: Mapping[str, object],
            ) -> Optional[CachedArtifact]:
        """The cached artifact for an identity tuple, or ``None``."""
        return self.get_by_key(self.make_key(
            dataset_fingerprint, miner, correction, policy, params))

    def get_by_key(self, key: str) -> Optional[CachedArtifact]:
        """The cached artifact under ``key``, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM artifacts WHERE key = ?",
                (key,)).fetchone()
        if row is None:
            return None
        if row["schema_version"] != STORE_SCHEMA_VERSION:
            raise ServiceError(
                f"artifact {key} was written with store schema "
                f"{row['schema_version']}; this library reads "
                f"{STORE_SCHEMA_VERSION}")
        return CachedArtifact(
            key=row["key"],
            dataset_fingerprint=row["dataset_fingerprint"],
            miner=row["miner"],
            correction=row["correction"],
            policy=row["policy"],
            params=json.loads(row["params_json"]),
            created_at=row["created_at"],
            payload=json.loads(row["payload_json"]),
        )

    def query_rules(self, item: Optional[str] = None,
                    class_name: Optional[str] = None,
                    correction: Optional[str] = None,
                    dataset_fingerprint: Optional[str] = None,
                    min_support: Optional[int] = None,
                    max_q: Optional[float] = None,
                    max_p: Optional[float] = None,
                    order_by: str = "lift",
                    top_k: int = 20) -> List[Dict[str, object]]:
        """Indexed query over every cached artifact's significant rules.

        The canonical read-path question — "rules containing item X
        significant under BH at q < 0.05, top-k by lift" — is
        ``query_rules(item=..., correction="BH", max_q=0.05)``.
        Ordering is fully deterministic: the requested measure plus
        fixed (p, rule text, row) tiebreaks.
        """
        if order_by not in _ORDERINGS:
            raise ServiceError(
                f"unknown order_by {order_by!r}; pick from "
                f"{sorted(_ORDERINGS)}")
        if not isinstance(top_k, int) or top_k < 1:
            raise ServiceError(
                f"top_k must be a positive integer, got {top_k!r}")
        conditions = []
        arguments: List[object] = []
        if item is not None:
            conditions.append(
                "EXISTS (SELECT 1 FROM rule_items i WHERE "
                "i.artifact_key = r.artifact_key AND "
                "i.rule_index = r.rule_index AND i.item = ?)")
            arguments.append(str(item))
        if class_name is not None:
            conditions.append("r.class = ?")
            arguments.append(str(class_name))
        if correction is not None:
            conditions.append("a.correction = ?")
            arguments.append(str(correction))
        if dataset_fingerprint is not None:
            conditions.append("a.dataset_fingerprint = ?")
            arguments.append(str(dataset_fingerprint))
        if min_support is not None:
            conditions.append("r.support >= ?")
            arguments.append(int(min_support))
        if max_q is not None:
            conditions.append("r.q_value IS NOT NULL AND r.q_value <= ?")
            arguments.append(float(max_q))
        if max_p is not None:
            conditions.append("r.p_value <= ?")
            arguments.append(float(max_p))
        where = ("WHERE " + " AND ".join(conditions)) if conditions \
            else ""
        sql = (
            "SELECT r.rule, r.class, r.length, r.coverage, r.support, "
            "r.confidence, r.p_value, r.q_value, r.lift, "
            "a.correction, a.miner, a.dataset_fingerprint, "
            "a.key AS artifact_key "
            "FROM artifact_rules r "
            "JOIN artifacts a ON a.key = r.artifact_key "
            f"{where} "
            f"ORDER BY {_ORDERINGS[order_by]}, r.p_value ASC, "
            "r.rule ASC, r.artifact_key ASC, r.rule_index ASC "
            "LIMIT ?")
        arguments.append(top_k)
        with self._lock:
            rows = self._conn.execute(sql, arguments).fetchall()
        return [dict(row) for row in rows]

    def stats(self) -> Dict[str, object]:
        """Artifact/rule counts and journal mode, for /v1/service."""
        with self._lock:
            artifacts = self._conn.execute(
                "SELECT COUNT(*) FROM artifacts").fetchone()[0]
            rules = self._conn.execute(
                "SELECT COUNT(*) FROM artifact_rules").fetchone()[0]
            journal_mode = self._conn.execute(
                "PRAGMA journal_mode").fetchone()[0]
        return {"artifacts": artifacts, "rules": rules,
                "journal_mode": journal_mode, "path": self.path,
                "store_schema_version": STORE_SCHEMA_VERSION}

