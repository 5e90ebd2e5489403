"""Chaos: the C toolchain disappears.

``native-compile-failure`` makes :func:`repro._native.load_suite`
behave as if every compiler invocation failed. The contract is the
numpy-fallback equivalence the kernel suite has guaranteed since it
landed: the served CSV must be byte-identical whether the native
kernels loaded or not, and ``native_status`` must say *why* they
did not.
"""

from __future__ import annotations

import pytest

import repro._native as native
from repro.testing import faults

from .conftest import make_manager, run_mine

pytestmark = [pytest.mark.chaos]


@pytest.fixture
def _fresh_kernel_memo():
    """Reset load_suite's memo so the fault point is reachable, and
    restore whatever was loaded afterwards."""
    saved = native._kernel, native._status
    native._kernel, native._status = "unset", "not loaded"
    yield
    native._kernel, native._status = saved


def test_numpy_fallback_serves_identical_bytes(_fresh_kernel_memo,
                                              monkeypatch):
    baseline_manager = make_manager()
    baseline_csv = baseline_manager.result_csv(
        run_mine(baseline_manager).job_id)
    baseline_manager.close()

    # Under REPRO_NATIVE=0, load_suite would stop before the compile.
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    faults.arm("native-compile-failure:1.0")
    native._kernel, native._status = "unset", "not loaded"
    assert native.load_suite() is None
    assert "fallback" in native.native_status()

    manager = make_manager()
    job = run_mine(manager)
    assert job.state == "done", job.error
    assert manager.result_csv(job.job_id) == baseline_csv
    manager.close()
