"""Suite-wide fixtures.

``sanitize_all_traces`` sets :data:`repro.gpusim.engine.TRACE_CHECK`, the
check inside the one pricing entry point
(:func:`~repro.gpusim.engine.price_trace`), to
:func:`repro.analyze.sanitize_trace`.  Every execution priced anywhere in
the test suite — whichever module priced it, and however it imported
``estimate_trace_us`` — then runs through the trace sanitizer, the
launch-level dependence/liveness analyzer and the latency
cross-validation: a structurally invalid launch, a use-before-def, a
leaked or under-accounted workspace buffer, an unordered conflicting
write, or a serialized latency below its own dependence critical path
fails the test that produced it.

The check is handed the priced execution (``check(priced, device,
precision)``): its price vector, which the latency bounds read instead of
pricing again, and on several streams the schedule it was priced with,
which the happens-before race detector verifies: every dependence edge
must be ordered by stream program order plus explicit sync events.
Single-stream executions are cross-checked against a fresh two-stream
schedule.
"""

from __future__ import annotations

import pytest

from repro.analyze import sanitize_trace
from repro.gpusim import engine as _engine
from tests import serving_batches as _serving


@pytest.fixture(autouse=True)
def sanitize_all_traces(monkeypatch):
    monkeypatch.setattr(_engine, "TRACE_CHECK", sanitize_trace)
    yield


@pytest.fixture(scope="session", autouse=True)
def cache_key_soundness():
    """Audit + fuzz every registered cache site once per test session.

    Runs before the function-scoped trace check is set (session scope),
    so the probes observe unchecked pricing.  Model lint and
    serving admission never run these audits; this fixture and
    ``repro keycheck`` are where they run.
    """
    from repro.analyze.provenance import audit_cache_sites, fuzz_all

    audits = audit_cache_sites()
    unsound = {
        site: list(audit.unkeyed)
        for site, audit in audits.items()
        if audit.unkeyed
    }
    assert not unsound, f"unkeyed cache-site reads: {unsound}"
    reports = fuzz_all(seed=0)
    failed = {
        site: list(report.failures)
        for site, report in reports.items()
        if report.failures
    }
    assert not failed, f"cache differential fuzzing failed: {failed}"
    yield


@pytest.fixture(scope="session")
def serving_batches():
    """Every trace a short 4-stream serving run schedules, per workload."""
    return _serving.per_workload_batches()


@pytest.fixture(scope="session")
def mixed_serving_batches():
    """Every trace a 4-stream run serving the SK-M-0.5 + NS-M-1f mix at
    scene scale 0.1 schedules."""
    return _serving.mixed_batches()
