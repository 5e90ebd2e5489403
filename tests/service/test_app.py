"""End-to-end HTTP tests: submit → poll → result, caching, auth.

These drive the builtin ASGI app through a real ASGI request cycle
(httpx's ASGITransport when installed, the in-repo client otherwise)
with ``workers=0`` cores — the queue is drained explicitly between
requests so scheduling is deterministic.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import Pipeline
from repro.evaluation.export import rules_to_csv
from repro.service.app import ServiceConfig, ServiceCore, \
    builtin_asgi_app

from .conftest import make_client, small_dataset


def _submit(client, **params):
    base = {"dataset": "small", "min_sup": 10, "correction": "BH"}
    base.update(params)
    response = client.post("/v1/jobs",
                           json_body={"kind": "mine", "params": base})
    assert response.status_code == 201, response.text
    return response.json()["job_id"]


def test_health(client):
    response = client.get("/health")
    assert response.status_code == 200
    assert response.json()["status"] == "ok"


def test_health_component_report(client):
    body = client.get("/health").json()
    components = body["components"]
    assert "native_kernel" in components
    breaker = components["breaker"]
    assert set(breaker["active"]) == {"serial", "threads", "processes"}
    assert breaker["threshold"] >= 1
    # the default test core is in-memory, so the journal is disabled
    assert components["journal"] is None
    assert components["store"]["path"] == ":memory:"


def test_unknown_route_404(client):
    assert client.get("/v1/nonsense").status_code == 404
    body = client.get("/v1/nonsense").json()
    assert body["error"]["type"] == "NotFound"


def test_dataset_listing_and_lookup(client, core):
    listing = client.get("/v1/datasets").json()["datasets"]
    assert [entry["name"] for entry in listing] == ["small"]
    entry = client.get("/v1/datasets/small").json()
    assert entry["fingerprint"].startswith("sha256-v1:")
    by_fingerprint = client.get(
        f"/v1/datasets/{entry['fingerprint']}").json()
    assert by_fingerprint["name"] == "small"
    missing = client.get("/v1/datasets/smal")
    assert missing.status_code == 404
    assert "did you mean 'small'" in \
        missing.json()["error"]["message"]


def test_register_builtin_roundtrip(client, core):
    response = client.post("/v1/datasets",
                           json_body={"name": "german",
                                      "source": "builtin:german"})
    assert response.status_code == 201
    assert response.json()["n_records"] == 1000
    # idempotent re-register; conflicting content is a 400
    again = client.post("/v1/datasets",
                        json_body={"name": "german",
                                   "source": "builtin:german"})
    assert again.status_code == 201
    conflict = client.post("/v1/datasets",
                           json_body={"name": "german",
                                      "source": "builtin:adult"})
    assert conflict.status_code == 400
    assert "different content" in \
        conflict.json()["error"]["message"]
    assert client.delete("/v1/datasets/german").status_code == 200


def test_submit_poll_result_cycle(client, core):
    job_id = _submit(client)
    polled = client.get(f"/v1/jobs/{job_id}").json()
    assert polled["state"] == "queued"
    # result before completion is a 409, pointing at the poll URL
    early = client.get(f"/v1/jobs/{job_id}/result")
    assert early.status_code == 409
    core.jobs.process_pending()
    polled = client.get(f"/v1/jobs/{job_id}").json()
    assert polled["state"] == "done"
    result = client.get(f"/v1/jobs/{job_id}/result")
    assert result.status_code == 200
    payload = result.json()["payload"]
    assert payload["dataset"]["name"] == "small"
    assert payload["n_significant"] >= 1
    assert result.json()["cached"] is False


def test_cached_result_byte_identical_to_fresh(client, core):
    """The acceptance criterion: a repeated mine request is served
    from the artifact store, byte-identical to the uncached
    Pipeline.run / CLI export."""
    first = _submit(client)
    core.jobs.process_pending()
    second = _submit(client)
    core.jobs.process_pending()
    response1 = client.get(f"/v1/jobs/{first}/result")
    response2 = client.get(f"/v1/jobs/{second}/result")
    assert response2.json()["cached"] is True
    assert response1.json()["payload"] == response2.json()["payload"]
    csv1 = client.get(f"/v1/jobs/{first}/result.csv")
    csv2 = client.get(f"/v1/jobs/{second}/result.csv")
    assert csv1.text == csv2.text


def test_service_csv_matches_cli_export(client, core, tmp_path):
    job_id = _submit(client)
    core.jobs.process_pending()
    served = client.get(f"/v1/jobs/{job_id}/result.csv")
    fresh = Pipeline(min_sup=10, corrections=("bh",),
                     seed=0).run(small_dataset())
    path = tmp_path / "fresh.csv"
    rules_to_csv(fresh.results["bh"].significant, small_dataset(),
                 path)
    # read_bytes: read_text would translate the CSV dialect's \r\n
    assert served.text.encode("utf-8") == path.read_bytes()


def test_fingerprint_keyed_cache_across_names(client, core):
    """The same content registered under another name (and a shuffled
    record order) still hits the cache: identity is the fingerprint,
    not the name."""
    first = _submit(client)
    core.jobs.process_pending()
    core.registry.register("small-copy", small_dataset(shuffle_seed=5))
    second = _submit(client, dataset="small-copy")
    core.jobs.process_pending()
    assert client.get(f"/v1/jobs/{second}/result").json()["cached"] \
        is True


def test_cancel_endpoint(client, core):
    job_id = _submit(client)
    cancelled = client.delete(f"/v1/jobs/{job_id}")
    assert cancelled.status_code == 200
    assert cancelled.json()["state"] == "cancelled"
    assert client.delete(f"/v1/jobs/{job_id}").status_code == 400


def test_jobs_listing(client, core):
    ids = [_submit(client), _submit(client, min_sup=11)]
    listing = client.get("/v1/jobs").json()["jobs"]
    assert [job["job_id"] for job in listing] == ids


def test_bad_submissions(client):
    missing_kind = client.post("/v1/jobs", json_body={"params": {}})
    assert missing_kind.status_code == 400
    unknown_job = client.get("/v1/jobs/job-99999999")
    assert unknown_job.status_code == 404
    bad_param = client.post(
        "/v1/jobs", json_body={"kind": "mine",
                               "params": {"dataset": "small",
                                          "min_sup": 10,
                                          "corection": "BH"}})
    assert bad_param.status_code == 400
    assert "did you mean 'correction'" in \
        bad_param.json()["error"]["message"]


def test_rules_query_endpoint(client, core):
    _submit(client)
    core.jobs.process_pending()
    response = client.get(
        "/v1/rules?correction=BH&max_q=0.05&order_by=lift&top_k=3")
    assert response.status_code == 200
    body = response.json()
    assert 1 <= body["count"] <= 3
    lifts = [row["lift"] for row in body["rules"]]
    assert lifts == sorted(lifts, reverse=True)
    assert all(row["q_value"] <= 0.05 for row in body["rules"])
    item = body["rules"][0]["rule"].split(",")[0].lstrip("{")
    filtered = client.get(f"/v1/rules?item={item}")
    assert filtered.json()["count"] >= 1
    bad = client.get("/v1/rules?order_by=evil")
    assert bad.status_code == 400


def test_service_stats(client, core):
    _submit(client)
    core.jobs.process_pending()
    stats = client.get("/v1/service").json()
    assert stats["datasets"] == ["small"]
    assert stats["jobs"]["executed"] == 1
    assert stats["store"]["artifacts"] == 1


def test_auth_required_when_token_set():
    service = ServiceCore(ServiceConfig(workers=0, token="sekret"))
    try:
        service.registry.register("small", small_dataset())
        app = builtin_asgi_app(service)
        anonymous = make_client(app)
        assert anonymous.get("/health").status_code == 200
        denied = anonymous.get("/v1/datasets")
        assert denied.status_code == 401
        assert denied.json()["error"]["type"] == "Unauthorized"
        wrong = make_client(app, token="wrong")
        assert wrong.get("/v1/datasets").status_code == 401
        right = make_client(app, token="sekret")
        assert right.get("/v1/datasets").status_code == 200
    finally:
        service.close()


def test_response_json_is_deterministic(client, core):
    """Sorted keys: two textually identical requests produce
    byte-identical response bodies (cached-vs-fresh diffing in CI
    depends on this)."""
    job_id = _submit(client)
    core.jobs.process_pending()
    first = client.get(f"/v1/jobs/{job_id}/result")
    second = client.get(f"/v1/jobs/{job_id}/result")
    assert first.text == second.text
    parsed = json.loads(first.text)
    assert list(parsed) == sorted(parsed)


def test_fastapi_adapter_closes_core_in_lifespan(monkeypatch):
    """The FastAPI adapter closes its core from the app's lifespan
    handler, not from the deprecated ``on_event`` hook. A stub
    ``fastapi`` module stands in for the framework, so this runs
    whether or not FastAPI is installed."""
    import asyncio
    import sys
    import types

    from repro.service.app import _fastapi_app

    class StubFastAPI:
        def __init__(self, **kwargs):
            self.kwargs = kwargs

        def on_event(self, event):
            raise AssertionError("on_event is deprecated in FastAPI")

        def api_route(self, path, methods):
            return lambda handler: handler

    stub = types.ModuleType("fastapi")
    stub.FastAPI = StubFastAPI
    stub.Request = stub.Response = object
    monkeypatch.setitem(sys.modules, "fastapi", stub)

    class RecordingCore:
        closed = 0

        def close(self):
            self.closed += 1

    core = RecordingCore()
    app = _fastapi_app(core)
    assert app.core is core and app.framework == "fastapi"

    async def run_lifespan():
        async with app.kwargs["lifespan"](app):
            assert core.closed == 0
        assert core.closed == 1

    asyncio.run(run_lifespan())
