"""Running the service on the stdlib threaded HTTP server.

:func:`serve` is what ``python -m repro serve`` calls. It runs a
stdlib ``ThreadingHTTPServer`` that calls the
:meth:`~repro.service.app.ServiceCore.dispatch` table directly, so the
full API needs no third-party package, with the same routes and
payload bytes as the ASGI app.

Shutdown is graceful on ``SIGTERM`` as well as ``SIGINT``: the
listener stops accepting, in-flight jobs drain (the
:meth:`~repro.service.jobs.JobManager.close` contract), the job
journal records where everything stood, and the process exits 0 — so
an orchestrator's routine ``SIGTERM`` never loses a job. Only a hard
kill (``SIGKILL``) skips the drain, and then the journal replay at
next boot picks up the pieces (see ``docs/resilience.md``).
"""

from __future__ import annotations

import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import urlsplit

from .app import ServiceConfig, ServiceCore, _flatten_query, create_app

__all__ = ["serve", "make_stdlib_server"]


def make_stdlib_server(core: ServiceCore, host: str, port: int,
                       ) -> ThreadingHTTPServer:
    """A stdlib threaded HTTP server over ``core`` (not yet serving)."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _respond(self, method: str) -> None:
            split = urlsplit(self.path)
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            status, payload, content_type = core.dispatch(
                method, split.path, _flatten_query(split.query),
                dict(self.headers.items()), body)
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self._respond("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._respond("POST")

        def do_DELETE(self) -> None:  # noqa: N802
            self._respond("DELETE")

        def log_message(self, format, *args) -> None:  # noqa: A002
            pass  # quiet by default

    return ThreadingHTTPServer((host, port), Handler)


def serve(config: Optional[ServiceConfig] = None,
          host: str = "127.0.0.1", port: int = 8765,
          out=None, app=None) -> int:
    """Run the service until interrupted; returns an exit code.

    ``app`` lets callers pass a pre-built application (e.g. with
    datasets already registered — the CLI's ``--dataset`` flags);
    otherwise one is created from ``config``.
    """
    import sys

    out = out or sys.stdout
    if app is None:
        app = create_app(config)
    core = app.core
    server = make_stdlib_server(core, host, port)
    print(f"serving repro on http://{host}:{port} via the stdlib "
          f"threaded server", file=out)

    def _drain(signum, frame) -> None:
        # Runs on the main thread; shutdown() must come from another
        # thread or serve_forever deadlocks waiting on itself.
        threading.Thread(target=server.shutdown,
                         name="repro-serve-drain",
                         daemon=True).start()

    installed = False
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _drain)
        installed = True
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if installed:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
        server.server_close()
        core.close()
    print("repro service drained cleanly", file=out)
    return 0
