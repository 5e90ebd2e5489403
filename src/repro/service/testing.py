"""In-repo ASGI test client.

Drives any ASGI application — in practice the builtin app — through a
real ASGI ``scope``/``receive``/``send`` cycle, the protocol every ASGI
server speaks, so end-to-end tests exercise the app's own request
path with the standard library alone.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import urlsplit

__all__ = ["Response", "ServiceClient"]


@dataclass
class Response:
    """What one request produced."""

    status_code: int
    headers: Dict[str, str] = field(default_factory=dict)
    content: bytes = b""

    @property
    def text(self) -> str:
        return self.content.decode("utf-8")

    def json(self):
        return json.loads(self.content.decode("utf-8"))


class ServiceClient:
    """Synchronous client over an ASGI callable."""

    def __init__(self, app, token: Optional[str] = None) -> None:
        self.app = app
        self.token = token

    # -- convenience verbs ------------------------------------------------

    def get(self, url: str, headers: Optional[Dict[str, str]] = None,
            ) -> Response:
        return self.request("GET", url, headers=headers)

    def post(self, url: str, json_body=None,
             headers: Optional[Dict[str, str]] = None) -> Response:
        body = (json.dumps(json_body).encode("utf-8")
                if json_body is not None else b"")
        return self.request("POST", url, body=body, headers=headers)

    def delete(self, url: str,
               headers: Optional[Dict[str, str]] = None) -> Response:
        return self.request("DELETE", url, headers=headers)

    # -- the ASGI cycle ---------------------------------------------------

    def request(self, method: str, url: str, body: bytes = b"",
                headers: Optional[Dict[str, str]] = None) -> Response:
        split = urlsplit(url)
        header_map = dict(headers or {})
        if self.token is not None and "Authorization" not in header_map:
            header_map["Authorization"] = f"Bearer {self.token}"
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": method.upper(),
            "scheme": "http",
            "path": split.path or "/",
            "raw_path": (split.path or "/").encode("latin-1"),
            "query_string": split.query.encode("latin-1"),
            "root_path": "",
            "headers": [(key.lower().encode("latin-1"),
                         value.encode("latin-1"))
                        for key, value in header_map.items()],
            "client": ("testclient", 50000),
            "server": ("testserver", 80),
        }
        return asyncio.run(self._run(scope, body))

    async def _run(self, scope, body: bytes) -> Response:
        sent = False
        response = Response(status_code=500)
        chunks = []

        async def receive():
            nonlocal sent
            if sent:
                return {"type": "http.disconnect"}
            sent = True
            return {"type": "http.request", "body": body,
                    "more_body": False}

        async def send(message):
            if message["type"] == "http.response.start":
                response.status_code = message["status"]
                response.headers = {
                    key.decode("latin-1"): value.decode("latin-1")
                    for key, value in message.get("headers", [])}
            elif message["type"] == "http.response.body":
                chunks.append(message.get("body", b""))

        await self.app(scope, receive, send)
        response.content = b"".join(chunks)
        return response
