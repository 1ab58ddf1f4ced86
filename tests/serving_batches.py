"""Capture the launch traces a multi-stream serving run schedules.

Shared by the scheduler's fast-path tests and the serving-batch schedule
golden: both read the batches that :func:`repro.opt.schedule.best_schedule`
sees when :class:`~repro.serve.ServingRuntime` serves on four GPU
streams.  Two runs are captured:

* :func:`per_workload_batches`: one short run per workload (SK-M-0.5 and
  NS-M-1f, scene scale 0.05) on an rtx3090;
* :func:`mixed_batches`: one run serving the SK-M-0.5 + NS-M-1f mix at
  scene scale 0.1 on an a100, as the ``serve-multistream`` benchmark
  workload does.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.gpusim.trace import KernelLaunch
from repro.opt import schedule as opt_schedule
from repro.serve import (
    ServeConfig,
    ServingRuntime,
    generate_requests,
    generate_traffic_requests,
    parse_tenants,
    parse_traffic,
)

SERVE_STREAMS = 4
MIX = ("SK-M-0.5", "NS-M-1f")


def _capture(runtime: ServingRuntime, requests) -> List[List[KernelLaunch]]:
    """Serve ``requests`` and return every trace scheduled on 4 streams."""
    traces: List[List[KernelLaunch]] = []
    real = opt_schedule.best_schedule

    def capture(trace, device, streams, graph, prices):
        if streams == SERVE_STREAMS:
            traces.append(list(trace))
        return real(trace, device, streams, graph, prices)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(opt_schedule, "best_schedule", capture)
        runtime.serve(requests)
    return traces


def per_workload_batches() -> Dict[str, List[List[KernelLaunch]]]:
    """Every trace a 4-stream serving run schedules, per workload."""
    captured = {}
    for workload in MIX:
        requests = generate_requests(
            workload, parse_traffic("steady:rate=40", seed=0),
            count=4, num_streams=2, deadline_ms=300.0,
        )
        runtime = ServingRuntime(ServeConfig(
            device="rtx3090", precision="fp16", scene_scale=0.05,
            queue_depth=16, gpu_streams=SERVE_STREAMS,
        ))
        runtime.warm_policy(workload)
        captured[workload] = _capture(runtime, requests)
        assert captured[workload], (
            f"{workload}: no multi-stream batch was scheduled"
        )
    return captured


def mixed_batches() -> List[List[KernelLaunch]]:
    """Every trace one 4-stream run serving the SK-M-0.5 + NS-M-1f mix at
    scene scale 0.1 schedules: a burst of 36 requests, batched as the
    ``serve-multistream`` benchmark workload batches them."""
    tenants = parse_tenants(f"default:mix={'+'.join(MIX)},streams=4")
    runtime = ServingRuntime(ServeConfig(
        device="a100", precision="fp16", scene_scale=0.1, queue_depth=64,
        gpu_streams=SERVE_STREAMS, tenants=tuple(tenants), slo_ms=50.0,
    ))
    for workload in MIX:
        runtime.warm_policy(workload)
    requests = generate_traffic_requests(
        parse_traffic("steady:rate=5000", seed=0), count=36,
        tenants=tenants, scene_seed_base=2, seed=0,
    )
    traces = _capture(runtime, requests)
    assert traces, "the mixed run scheduled no multi-stream batch"
    return traces
