"""Cluster-scheduling benchmark: load balancers under skew and faults.

Not a paper figure — this exercises the `repro.serve` cluster layer the
way a deployment would: N replicas, one of them a straggler, transient
batch failures absorbed by retries.  Every balancer serves the identical
request schedule and fault trace, so the grid isolates the scheduling
policy.  Shape claims asserted:

* least-loaded and cache-affinity beat round-robin p99 on the skewed
  (slow-replica) workload;
* cache-affinity sustains the highest kmap hit rate when the per-replica
  caches are too small to hold every stream;
* under injected faults with retries enabled, every balancer completes
  all non-shed requests;
* hedging trims round-robin's p99 on the skewed cluster.
"""

from __future__ import annotations

import pytest

from repro.serve import (
    FaultPlan,
    ServeConfig,
    ServingRuntime,
    generate_requests,
    parse_traffic,
)
from repro.serve.balancer import BALANCERS
from repro.utils.format import format_table

WORKLOAD = "SK-M-0.5"
SCALE = 0.12
REQUESTS = 36
REPLICAS = 3
STREAMS = 4

#: The two cluster conditions of the grid: a straggler replica running at
#: 4x service time under load heavy enough that work stacks up behind it
#: (round-robin keeps feeding it blindly), and a healthy-speed cluster
#: with transient batch failures absorbed by retries.
CONDITIONS = {
    "skewed": dict(
        rate_per_s=400.0,
        config=dict(faults=FaultPlan.parse("skew=4", seed=0), max_retries=0),
    ),
    "faulty": dict(
        rate_per_s=90.0,
        config=dict(
            faults=FaultPlan.parse("fail=0.2", seed=0),
            max_retries=4,
            retry_backoff_ms=2.0,
        ),
    ),
}


def run_cell(balancer: str, condition: str, hedge_ms: float = 0.0):
    config = ServeConfig(
        device="rtx3090",
        precision="fp16",
        scene_scale=SCALE,
        queue_depth=48,
        replicas=REPLICAS,
        balancer=balancer,
        replica_queue_depth=2,
        max_batch_requests=1,
        kmap_cache_size=2,
        hedge_ms=hedge_ms,
        **CONDITIONS[condition]["config"],
    )
    requests = generate_requests(
        WORKLOAD,
        parse_traffic(
            f"steady:rate={CONDITIONS[condition]['rate_per_s']}", seed=0
        ),
        count=REQUESTS, num_streams=STREAMS, deadline_ms=1000.0,
    )
    return ServingRuntime(config).serve(requests)


@pytest.fixture(scope="module")
def grid():
    out = {}
    for condition in CONDITIONS:
        for balancer in BALANCERS:
            out[(condition, balancer)] = run_cell(balancer, condition)
    # Healthy batches run ~2-3 ms at this scale, the straggler ~3x that:
    # a 4 ms threshold hedges exactly the batches the skew slows down.
    out[("skewed", "round_robin", "hedged")] = run_cell(
        "round_robin", "skewed", hedge_ms=4.0
    )
    return out


def grid_table(grid) -> str:
    rows = []
    for key, result in sorted(grid.items(), key=lambda kv: str(kv[0])):
        condition, balancer = key[0], key[1]
        label = balancer + ("+hedge" if len(key) == 3 else "")
        m = result.metrics
        rows.append([
            condition, label,
            f"{m.latency_p50_ms:.2f}", f"{m.latency_p99_ms:.2f}",
            f"{m.throughput_rps:.1f}",
            str(m.retries), str(m.hedges), str(m.failed),
            f"{100 * m.kmap_hit_rate:.0f}%",
            f"{max(r['utilization'] for r in m.per_replica):.2f}",
        ])
    return format_table(
        ["condition", "balancer", "p50 ms", "p99 ms", "req/s",
         "retries", "hedges", "failed", "kmap hits", "max util"],
        rows,
        title=(
            f"serve balancers: {WORKLOAD} fp16, {REQUESTS} requests, "
            f"{REPLICAS} replicas (scale {SCALE:g})"
        ),
    )


def test_serve_balancer_grid(benchmark, grid, record_table):
    table = benchmark.pedantic(
        lambda: grid_table(grid), iterations=1, rounds=1
    )
    record_table("serve_balancers", table + "\n")
    assert WORKLOAD in table


def test_load_aware_balancers_beat_round_robin_p99_under_skew(grid):
    rr = grid[("skewed", "round_robin")].metrics
    ll = grid[("skewed", "least_loaded")].metrics
    affinity = grid[("skewed", "cache_affinity")].metrics
    assert ll.latency_p99_ms < rr.latency_p99_ms
    assert affinity.latency_p99_ms < rr.latency_p99_ms


def test_cache_affinity_has_best_kmap_hit_rate(grid):
    hit_rates = {
        balancer: grid[("skewed", balancer)].metrics.kmap_hit_rate
        for balancer in BALANCERS
    }
    best = max(hit_rates, key=hit_rates.get)
    assert best == "cache_affinity"
    assert hit_rates["cache_affinity"] > hit_rates["round_robin"]


def test_retries_absorb_faults_for_every_balancer(grid):
    for balancer in BALANCERS:
        m = grid[("faulty", balancer)].metrics
        assert m.batch_failures > 0
        assert m.retries > 0
        assert m.failed == 0
        assert m.completed + m.shed == REQUESTS


def test_hedging_trims_round_robin_tail_under_skew(grid):
    plain = grid[("skewed", "round_robin")].metrics
    hedged = grid[("skewed", "round_robin", "hedged")].metrics
    assert hedged.hedges > 0
    assert hedged.latency_p99_ms < plain.latency_p99_ms


def test_grid_is_deterministic(grid):
    rerun = run_cell("least_loaded", "faulty")
    assert rerun.metrics.to_json() == (
        grid[("faulty", "least_loaded")].metrics.to_json()
    )
