"""Built-in rules: importing this package registers all of them.

Each module guards one layer's contracts (see the module docstrings
and ``docs/static-analysis.md`` for the catalog):

========================  =========================================
module                    rules
========================  =========================================
:mod:`.rng`               no-stdlib-rng, no-global-numpy-rng
:mod:`.substrate`         uint64-dtype-promotion
:mod:`.concurrency`       unlocked-shared-state, pickle-unsafe-worker
:mod:`.determinism`       float-equality-in-stats,
                          unordered-iteration-to-output
:mod:`.robustness`        swallowed-worker-exception
:mod:`.lifetime`          arena-lifetime
========================  =========================================
"""

from __future__ import annotations

from . import concurrency, determinism, lifetime, rng, robustness, \
    substrate  # noqa: F401

__all__ = ["concurrency", "determinism", "lifetime", "rng",
           "robustness", "substrate"]
