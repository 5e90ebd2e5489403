"""Shared parallel execution subsystem.

One :class:`Executor` interface (``map_shards``) over three pluggable
backends (``serial``, ``threads``, ``processes``), plus the
deterministic shard-seeding helpers that keep results bit-identical at
any worker count. Used by the permutation engine
(:mod:`repro.corrections.permutation`), the pipeline
(:mod:`repro.core.pipeline`) and the experiment runner
(:mod:`repro.evaluation.runner`); see ``docs/parallel.md``.
"""

from .executor import (
    BACKENDS,
    Executor,
    RetryExhausted,
    WorkerError,
    get_executor,
    validate_backend,
    validate_n_jobs,
)
from .resilience import (
    DEGRADATION_ORDER,
    CircuitBreaker,
    DeadlineExceeded,
    RetryPolicy,
    TransientError,
    global_breaker,
    is_transient,
)
from .seeding import (
    root_sequence,
    shard_slices,
    slice_sequences,
    spawn_sequences,
)

__all__ = [
    "BACKENDS",
    "DEGRADATION_ORDER",
    "CircuitBreaker",
    "DeadlineExceeded",
    "Executor",
    "RetryExhausted",
    "RetryPolicy",
    "TransientError",
    "WorkerError",
    "get_executor",
    "global_breaker",
    "is_transient",
    "root_sequence",
    "shard_slices",
    "slice_sequences",
    "spawn_sequences",
    "validate_backend",
    "validate_n_jobs",
]
