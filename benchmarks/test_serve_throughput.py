"""Serving-runtime benchmark: sustained scenes/sec across devices and
arrival rates, warm-vs-cold policy caches, and overload behaviour.

Not a paper figure — this exercises the `repro.serve` subsystem the way the
paper's deployment story implies (tune once, serve a stream of scenes).
Shape claims asserted:

* warm policy cache beats cold cache on p50 latency (same schedule);
* sustained throughput under overload follows device capability;
* overload never grows the queue beyond its bound: excess is shed.
"""

from __future__ import annotations

import pytest

from repro.serve import (
    ServeConfig,
    ServingRuntime,
    generate_requests,
    parse_traffic,
)
from repro.utils.format import format_table

WORKLOAD = "SK-M-0.5"  # SemanticKITTI MinkUNet
SCALE = 0.12
DEVICES = ("rtx3090", "a100", "orin")
RATES = (20.0, 60.0, 5000.0)
REQUESTS = 40


def run_cell(device: str, rate: float, warm: bool):
    config = ServeConfig(
        device=device, precision="fp16", scene_scale=SCALE, queue_depth=16,
    )
    runtime = ServingRuntime(config)
    if warm:
        runtime.warm_policy(WORKLOAD)
    requests = generate_requests(
        WORKLOAD, parse_traffic(f"steady:rate={rate}", seed=0),
        count=REQUESTS, num_streams=3, deadline_ms=300.0,
    )
    return runtime.serve(requests)


@pytest.fixture(scope="module")
def grid():
    out = {}
    for device in DEVICES:
        for rate in RATES:
            out[(device, rate)] = run_cell(device, rate, warm=True)
    out[("rtx3090", RATES[0], "cold")] = run_cell(
        "rtx3090", RATES[0], warm=False
    )
    return out


def grid_table(grid) -> str:
    rows = []
    for (key, result) in sorted(grid.items(), key=lambda kv: str(kv[0])):
        device, rate = key[0], key[1]
        cache = "cold" if len(key) == 3 else "warm"
        m = result.metrics
        rows.append([
            device, f"{rate:g}", cache,
            f"{m.throughput_rps:.1f}",
            f"{m.latency_p50_ms:.2f}", f"{m.latency_p95_ms:.2f}",
            f"{m.latency_p99_ms:.2f}",
            str(m.shed), str(m.degraded), str(m.queue_depth_max),
            f"{100 * m.kmap_hit_rate:.0f}%",
        ])
    return format_table(
        ["device", "rate/s", "policy", "req/s", "p50 ms", "p95 ms",
         "p99 ms", "shed", "degraded", "max depth", "kmap hits"],
        rows,
        title=(
            f"serve-bench: {WORKLOAD} fp16, {REQUESTS} requests, "
            f"Poisson arrivals (scale {SCALE:g})"
        ),
    )


def test_serve_throughput_grid(benchmark, grid, record_table):
    table = benchmark.pedantic(
        lambda: grid_table(grid), iterations=1, rounds=1
    )
    record_table("serve", table + "\n")
    assert WORKLOAD in table


def test_warm_cache_beats_cold_p50(grid):
    warm = grid[("rtx3090", RATES[0])].metrics
    cold = grid[("rtx3090", RATES[0], "cold")].metrics
    assert warm.latency_p50_ms < cold.latency_p50_ms
    assert warm.degraded == 0 and cold.degraded == REQUESTS


def test_sustained_throughput_follows_device_capability(grid):
    overload = RATES[-1]
    a100 = grid[("a100", overload)].metrics.throughput_rps
    orin = grid[("orin", overload)].metrics.throughput_rps
    assert a100 > orin


def test_throughput_saturates_with_rate(grid):
    per_rate = [grid[("rtx3090", r)].metrics.throughput_rps for r in RATES]
    assert per_rate[0] < per_rate[-1]  # higher offered load, higher carried
    # Carried load never exceeds offered load.
    for rate, carried in zip(RATES, per_rate):
        assert carried <= rate * 1.05


def test_overload_sheds_but_queue_stays_bounded(grid):
    for device in DEVICES:
        m = grid[(device, RATES[-1])].metrics
        assert m.queue_depth_max <= 16
        assert m.shed + m.completed == REQUESTS
        assert m.shed > 0  # 5000/s is far above sustainable


def test_all_runs_complete_requests(grid):
    for result in grid.values():
        assert result.metrics.completed > 0
        assert result.metrics.latency_p99_ms >= result.metrics.latency_p50_ms
