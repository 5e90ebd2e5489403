"""Mining-as-a-service: job orchestration, dataset registry, cache.

The long-running front of the library (the ROADMAP's "heavy traffic
from millions of users" pillar): a dataset registry keyed by content
fingerprints (:meth:`repro.data.dataset.Dataset.fingerprint`), an
async job orchestrator with submit/poll/result/cancel endpoints for
``mine``/``holdout``/``experiment`` jobs, and a memoized artifact
store (SQLite, WAL mode) keyed by ``(dataset fingerprint, miner,
correction, params)`` so a repeated significance query is
served from storage — byte-identical to the uncached
:meth:`~repro.core.pipeline.Pipeline.run` — instead of re-mined.

The HTTP surface is one dispatch table behind two stdlib transports:
a dependency-free ASGI application (:func:`create_app`) and the
threaded HTTP server (:func:`repro.service.server.serve`), with the
same routes and payloads. Start it with ``python -m repro serve``; see
``docs/service.md``.
"""

from .app import ServiceConfig, ServiceCore, create_app
from .jobs import Job, JobManager, JOB_KINDS, JOB_STATES
from .registry import DatasetRegistry, RegisteredDataset
from .store import ArtifactStore, CachedArtifact

__all__ = [
    "ArtifactStore",
    "CachedArtifact",
    "DatasetRegistry",
    "Job",
    "JobManager",
    "JOB_KINDS",
    "JOB_STATES",
    "RegisteredDataset",
    "ServiceConfig",
    "ServiceCore",
    "create_app",
]
