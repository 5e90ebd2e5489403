"""The HTTP surface: one dispatch table, pluggable frameworks.

All routing/validation/response logic lives in :class:`ServiceCore`, a
plain synchronous object with one entry point
(:meth:`ServiceCore.dispatch`). Every transport is a thin shell around
it:

* the **builtin ASGI app** (the canonical one, zero dependencies) —
  runs under uvicorn/hypercorn or the in-repo test client, moving each
  request onto a thread so the event loop never blocks on mining;
* the **FastAPI adapter** — used automatically when FastAPI is
  importable (force the builtin with ``REPRO_SERVICE_FRAMEWORK=
  builtin``): a catch-all route delegating to the same dispatch table,
  so the two frameworks cannot drift apart in behavior;
* the **stdlib threaded HTTP server** (:mod:`repro.service.server`)
  for environments with neither uvicorn nor FastAPI.

Routes (all JSON unless noted)::

    GET    /health                    liveness (auth-exempt)
    GET    /v1/service                store + job-queue statistics
    GET    /v1/datasets               registered datasets
    POST   /v1/datasets               register {name, source[, class_column]}
    GET    /v1/datasets/{name}        one dataset (name or fingerprint)
    DELETE /v1/datasets/{name}        unregister
    POST   /v1/jobs                   submit {kind, params}
    GET    /v1/jobs                   all jobs
    GET    /v1/jobs/{id}              poll one job
    GET    /v1/jobs/{id}/result       result payload (409 until done)
    GET    /v1/jobs/{id}/result.csv   significant rules as text/csv
    DELETE /v1/jobs/{id}              cancel (queued jobs only)
    GET    /v1/rules                  indexed query over cached rules

Authentication is a deliberate stub: when
:attr:`ServiceConfig.token` is set, every route except ``/health``
requires ``Authorization: Bearer <token>``; when unset the service is
open (development mode). Errors use one envelope everywhere:
``{"error": {"type": "<ReproError subclass>", "message": "..."}}``
with 404 for unknown jobs/datasets, 400 for bad requests, 409 for
results polled before completion.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs

from ..errors import (
    DatasetNotRegistered,
    JobNotFound,
    ReproError,
    ServiceError,
)
from .jobs import JOB_KINDS, JobManager, _canonical_correction
from .journal import JobJournal
from .registry import DatasetRegistry
from .store import ArtifactStore

__all__ = ["ServiceConfig", "ServiceCore", "create_app",
           "builtin_asgi_app"]

_JSON = "application/json"
_CSV = "text/csv"


@dataclass
class ServiceConfig:
    """Deployment knobs for one service instance.

    ``journal_path`` controls crash durability: ``None`` (the
    default) derives ``<db_path>.jobs`` next to a file-backed
    artifact store and disables the journal for in-memory stores;
    ``""`` disables it explicitly; any other string is used verbatim.
    ``max_retries``/``job_timeout``/``job_ttl`` feed the
    :class:`~repro.service.jobs.JobManager` resilience policy (see
    ``docs/resilience.md``).

    ``datasets`` (``(name, source)`` pairs, same sources as
    ``POST /v1/datasets``) are registered *before* the job manager
    starts — journal-replayed jobs can run the moment the workers
    exist, so datasets registered only after construction would race
    boot recovery.
    """

    db_path: str = ":memory:"
    token: Optional[str] = None
    workers: int = 1
    n_jobs: int = 1
    backend: str = "serial"
    journal_path: Optional[str] = None
    max_retries: int = 2
    job_timeout: Optional[float] = None
    job_ttl: Optional[float] = None
    datasets: Tuple[Tuple[str, str], ...] = ()

    def resolved_journal_path(self) -> Optional[str]:
        """The journal database path, or ``None`` when disabled."""
        if self.journal_path == "":
            return None
        if self.journal_path is not None:
            return self.journal_path
        if self.db_path == ":memory:":
            return None
        return f"{self.db_path}.jobs"


class ServiceCore:
    """Framework-independent request handling.

    :meth:`dispatch` is the single entry point every transport calls;
    each ``_handle_*`` returns ``(status, payload)`` and raising a
    :class:`~repro.errors.ReproError` anywhere maps onto the error
    envelope. Handlers are synchronous — async shells are expected to
    call :meth:`dispatch` via ``asyncio.to_thread``.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.registry = DatasetRegistry()
        # Pre-configured datasets must exist before the JobManager:
        # its boot replay re-enqueues journaled jobs immediately, and
        # a recovered job must find its dataset registered.
        for name, source in self.config.datasets:
            from ..cli import _load_input

            self.registry.register(name, _load_input(source, "-1"),
                                   source=source)
        self.store = ArtifactStore(self.config.db_path)
        journal_path = self.config.resolved_journal_path()
        self.journal = (None if journal_path is None
                        else JobJournal(journal_path))
        self.jobs = JobManager(self.registry, self.store,
                               workers=self.config.workers,
                               n_jobs=self.config.n_jobs,
                               backend=self.config.backend,
                               journal=self.journal,
                               max_retries=self.config.max_retries,
                               job_timeout=self.config.job_timeout,
                               job_ttl=self.config.job_ttl)

    def close(self) -> None:
        """Drain workers, then close the journal and the store."""
        self.jobs.close()
        if self.journal is not None:
            self.journal.close()
        self.store.close()

    # ------------------------------------------------------------------
    # transport-facing entry point
    # ------------------------------------------------------------------

    def dispatch(self, method: str, path: str, query: Dict[str, str],
                 headers: Dict[str, str], body: bytes,
                 ) -> Tuple[int, bytes, str]:
        """Route one request; returns (status, body, content-type)."""
        method = method.upper()
        path = path.rstrip("/") or "/"
        try:
            self._authorize(path, headers)
            status, payload = self._route(method, path, query, body)
        except (JobNotFound, DatasetNotRegistered) as exc:
            status, payload = 404, _error_payload(exc)
        except ReproError as exc:
            status = getattr(exc, "status_code", 400)
            payload = _error_payload(exc)
        if isinstance(payload, str):  # pre-rendered (CSV)
            return status, payload.encode("utf-8"), _CSV
        # Sorted keys: response bytes are deterministic, so e2e tests
        # can diff cached vs fresh responses byte for byte.
        text = json.dumps(payload, sort_keys=True)
        return status, text.encode("utf-8"), _JSON

    def _authorize(self, path: str, headers: Dict[str, str]) -> None:
        if self.config.token is None or path == "/health":
            return
        supplied = ""
        for name, value in headers.items():
            if name.lower() == "authorization":
                supplied = value
        if supplied != f"Bearer {self.config.token}":
            raise _Unauthorized("missing or invalid bearer token")

    def _route(self, method: str, path: str, query: Dict[str, str],
               body: bytes) -> Tuple[int, object]:
        parts = [part for part in path.split("/") if part]
        if path == "/health" and method == "GET":
            return 200, self._health()
        if not parts or parts[0] != "v1":
            raise _NotFoundRoute(f"no route {method} {path}")
        parts = parts[1:]
        if parts == ["service"] and method == "GET":
            return 200, {"store": self.store.stats(),
                         "jobs": self.jobs.stats(),
                         "datasets": self.registry.names()}
        if parts == ["datasets"]:
            if method == "GET":
                return 200, {"datasets": [entry.info() for entry
                                          in self.registry.entries()]}
            if method == "POST":
                return self._handle_register(_json_body(body))
        if len(parts) == 2 and parts[0] == "datasets":
            if method == "GET":
                return 200, self.registry.get(parts[1]).info()
            if method == "DELETE":
                self.registry.unregister(parts[1])
                return 200, {"unregistered": parts[1]}
        if parts == ["jobs"]:
            if method == "POST":
                return self._handle_submit(_json_body(body))
            if method == "GET":
                return 200, {"jobs": [job.info()
                                      for job in self.jobs.jobs()]}
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            if len(parts) == 2:
                if method == "GET":
                    return 200, self.jobs.get(job_id).info()
                if method == "DELETE":
                    return 200, self.jobs.cancel(job_id).info()
            if len(parts) == 3 and method == "GET":
                if parts[2] == "result":
                    return self._handle_result(job_id)
                if parts[2] == "result.csv":
                    self._require_done(job_id)
                    return 200, self.jobs.result_csv(job_id)
        if parts == ["rules"] and method == "GET":
            return self._handle_rules(query)
        raise _NotFoundRoute(f"no route {method} {path}")

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _health(self) -> Dict[str, object]:
        """Liveness plus a per-component report.

        ``status`` stays ``"ok"`` whenever the service can answer at
        all (a missing native kernel or a tripped breaker degrade
        performance, not correctness — the components say so), so
        existing probes keep working; operators read ``components``
        for the real story.
        """
        from .._native import native_status
        from ..parallel import global_breaker

        components: Dict[str, object] = {
            "native_kernel": native_status(),
            "framework": os.environ.get("REPRO_SERVICE_FRAMEWORK",
                                        "auto") or "auto",
            "breaker": global_breaker().state(),
            "journal": self.jobs.journal_stats(),
            "store": {"path": self.store.path},
        }
        return {"status": "ok", "service": "repro",
                "components": components}

    def _handle_register(self, body: Dict[str, object],
                         ) -> Tuple[int, object]:
        name = body.get("name")
        source = body.get("source")
        if not name or not isinstance(name, str):
            raise ServiceError(
                "dataset registration needs a string 'name'")
        if not source or not isinstance(source, str):
            raise ServiceError(
                "dataset registration needs a 'source' (a data file "
                "path or builtin:<name>)")
        from ..cli import _load_input

        dataset = _load_input(source,
                              str(body.get("class_column", "-1")))
        entry = self.registry.register(name, dataset, source=source)
        return 201, entry.info()

    def _handle_submit(self, body: Dict[str, object],
                       ) -> Tuple[int, object]:
        kind = body.get("kind")
        if not isinstance(kind, str):
            raise ServiceError(
                f"job submission needs a string 'kind' "
                f"(one of {sorted(JOB_KINDS)})")
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ServiceError("'params' must be a JSON object")
        job = self.jobs.submit(kind, params)
        return 201, job.info()

    def _require_done(self, job_id: str) -> None:
        job = self.jobs.get(job_id)
        if job.state in ("queued", "running"):
            raise _Conflict(
                f"job {job_id} is {job.state!r}; poll "
                f"/v1/jobs/{job_id} until it is 'done'")

    def _handle_result(self, job_id: str) -> Tuple[int, object]:
        self._require_done(job_id)
        job = self.jobs.get(job_id)
        payload = self.jobs.result(job_id)  # raises on failed/cancelled
        return 200, {"job_id": job_id, "cached": job.cached,
                     "payload": payload}

    def _handle_rules(self, query: Dict[str, str],
                      ) -> Tuple[int, object]:
        def _float(name):
            return float(query[name]) if name in query else None

        correction = query.get("correction")
        if correction is not None:
            # Any registered spelling works, matching the CLI: "BH"
            # and "bh" hit the same cached rows. Unknown names pass
            # through verbatim (they may match an out-of-tree
            # correction cached by a plugin-loaded worker).
            try:
                correction = _canonical_correction(correction)
            except ReproError:
                pass
        try:
            rows = self.store.query_rules(
                item=query.get("item"),
                class_name=query.get("class"),
                correction=correction,
                dataset_fingerprint=query.get("dataset"),
                min_support=(int(query["min_support"])
                             if "min_support" in query else None),
                max_q=_float("max_q"),
                max_p=_float("max_p"),
                order_by=query.get("order_by", "lift"),
                top_k=int(query.get("top_k", "20")))
        except ValueError as exc:
            raise ServiceError(f"bad query parameter: {exc}") from exc
        return 200, {"rules": rows, "count": len(rows)}


class _NotFoundRoute(JobNotFound):
    """404 for unrouted paths (reuses the 404 mapping)."""


class _Unauthorized(ReproError):
    status_code = 401


class _Conflict(ServiceError):
    status_code = 409


def _error_payload(exc: ReproError) -> Dict[str, object]:
    name = type(exc).__name__
    if name.startswith("_"):  # internal routing helpers
        name = {"_NotFoundRoute": "NotFound",
                "_Unauthorized": "Unauthorized",
                "_Conflict": "Conflict"}.get(name, "ServiceError")
    return {"error": {"type": name, "message": str(exc)}}


def _json_body(body: bytes) -> Dict[str, object]:
    if not body:
        return {}
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"request body is not valid JSON: {exc}") \
            from exc
    if not isinstance(parsed, dict):
        raise ServiceError("request body must be a JSON object")
    return parsed


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------

def builtin_asgi_app(core: ServiceCore):
    """The dependency-free ASGI application around ``core``.

    Handles ``http`` and ``lifespan`` scopes; each request's dispatch
    runs in a worker thread (``asyncio.to_thread``) so a long mining
    job never blocks the event loop's accept path.
    """
    import asyncio

    async def app(scope, receive, send):
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    core.close()
                    await send({"type": "lifespan.shutdown.complete"})
                    return
            return
        if scope["type"] != "http":
            raise RuntimeError(
                f"unsupported ASGI scope {scope['type']!r}")
        body = b""
        while True:
            message = await receive()
            if message["type"] == "http.request":
                body += message.get("body", b"")
                if not message.get("more_body"):
                    break
            elif message["type"] == "http.disconnect":
                return
        headers = {key.decode("latin-1"): value.decode("latin-1")
                   for key, value in scope.get("headers", [])}
        query = _flatten_query(
            scope.get("query_string", b"").decode("latin-1"))
        status, payload, content_type = await asyncio.to_thread(
            core.dispatch, scope["method"], scope["path"], query,
            headers, body)
        await send({
            "type": "http.response.start",
            "status": status,
            "headers": [(b"content-type",
                         content_type.encode("latin-1")),
                        (b"content-length",
                         str(len(payload)).encode("latin-1"))],
        })
        await send({"type": "http.response.body", "body": payload})

    app.core = core
    app.framework = "builtin"
    return app


def _flatten_query(query_string: str) -> Dict[str, str]:
    """Last-value-wins flat dict of a query string."""
    return {key: values[-1]
            for key, values in parse_qs(query_string).items()}


def _fastapi_app(core: ServiceCore):
    """FastAPI shell: a catch-all route over the same dispatch table.

    FastAPI supplies the server ecosystem (middleware, docs mounting,
    deployment tooling); the routing and payloads stay byte-identical
    to the builtin app because both call ``core.dispatch``.
    """
    from contextlib import asynccontextmanager

    from fastapi import FastAPI, Request, Response

    @asynccontextmanager
    async def _lifespan(_app):
        yield
        core.close()

    app = FastAPI(title="repro mining service", lifespan=_lifespan,
                  docs_url=None, redoc_url=None, openapi_url=None)
    app.core = core
    app.framework = "fastapi"

    @app.api_route("/{rest:path}",
                   methods=["GET", "POST", "DELETE"])
    async def _dispatch(rest: str, request: Request) -> Response:
        import asyncio

        body = await request.body()
        query = {key: value
                 for key, value in request.query_params.items()}
        headers = dict(request.headers)
        status, payload, content_type = await asyncio.to_thread(
            core.dispatch, request.method, "/" + rest, query,
            headers, body)
        return Response(content=payload, status_code=status,
                        media_type=content_type)

    return app


def create_app(config: Optional[ServiceConfig] = None,
               core: Optional[ServiceCore] = None):
    """Build the service application (ASGI callable).

    Uses the FastAPI adapter when FastAPI is importable, else the
    builtin dependency-free app; ``REPRO_SERVICE_FRAMEWORK=builtin``
    forces the builtin regardless. Either way the returned app exposes
    ``.core`` (the :class:`ServiceCore`) and ``.framework``.
    """
    if core is None:
        core = ServiceCore(config)
    if os.environ.get("REPRO_SERVICE_FRAMEWORK", "") != "builtin":
        try:
            return _fastapi_app(core)
        except ImportError:
            pass
    return builtin_asgi_app(core)
