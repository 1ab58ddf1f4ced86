"""Tests for the fault-tolerant multi-replica serving cluster: load
balancers, fault injection, retries/backoff, timeouts, hedging, and the
byte-identical determinism of faulty runs (the golden contract)."""

import json

import pytest

from repro.errors import ConfigError
from repro.serve import (
    BALANCERS,
    DeviceReplica,
    FaultInjector,
    FaultPlan,
    InferenceRequest,
    KmapCache,
    RequestStatus,
    ServeConfig,
    ServingRuntime,
    generate_requests,
    get_balancer,
    parse_traffic,
)

WORKLOAD = "SK-M-0.5"
HEAVY_WORKLOAD = "SK-M-1.0"
SCALE = 0.1


def make_replica(index, busy_ms=0.0, inflight=0, free_at_ms=0.0, cache=None):
    return DeviceReplica(
        index=index,
        busy_ms=busy_ms,
        inflight=inflight,
        free_at_ms=free_at_ms,
        kmap_cache=KmapCache() if cache is None else cache,
    )


def make_request(i, arrival_ms=0.0, workload=WORKLOAD, stream=0,
                 deadline_ms=500.0):
    return InferenceRequest(
        request_id=i,
        workload_id=workload,
        stream_id=stream,
        frame_index=i,
        scene_seed=stream,
        arrival_ms=arrival_ms,
        deadline_ms=deadline_ms,
    )


def cluster_config(**overrides):
    base = dict(
        device="rtx3090", precision="fp16", scene_scale=SCALE,
        queue_depth=64,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestBalancers:
    def test_registry_and_unknown_name(self):
        assert set(BALANCERS) == {
            "round_robin", "least_loaded", "jsq", "cache_affinity"
        }
        with pytest.raises(ConfigError, match="least_loaded"):
            get_balancer("fastest_finger")
        with pytest.raises(ConfigError, match="known balancers"):
            ServeConfig(balancer="nope")

    def test_round_robin_cycles_indices(self):
        balancer = get_balancer("round_robin")
        replicas = [make_replica(i) for i in range(3)]
        picks = [balancer.select(replicas, [], 0.0).index for _ in range(5)]
        assert picks == [0, 1, 2, 0, 1]

    def test_round_robin_skips_missing_candidates(self):
        balancer = get_balancer("round_robin")
        replicas = [make_replica(i) for i in range(3)]
        assert balancer.select(replicas, [], 0.0).index == 0
        # Replica 1 unavailable: the cursor moves on to 2, then wraps.
        assert balancer.select([replicas[0], replicas[2]], [], 0.0).index == 2
        assert balancer.select(replicas, [], 0.0).index == 0

    def test_least_loaded_prefers_least_outstanding_then_busy(self):
        balancer = get_balancer("least_loaded")
        idle_fresh = make_replica(0, busy_ms=5.0)
        idle_veteran = make_replica(1, busy_ms=50.0)
        backed_up = make_replica(2, free_at_ms=40.0, inflight=1)
        chosen = balancer.select(
            [backed_up, idle_veteran, idle_fresh], [], now_ms=10.0
        )
        assert chosen.index == 0  # no outstanding work, least lifetime busy

    def test_jsq_prefers_fewest_inflight(self):
        balancer = get_balancer("jsq")
        deep = make_replica(0, inflight=2, free_at_ms=5.0)
        shallow = make_replica(1, inflight=1, free_at_ms=90.0)
        assert balancer.select([deep, shallow], [], 0.0).index == 1

    def test_cache_affinity_steers_to_warm_replica(self):
        from repro.serve import KmapEntry

        balancer = get_balancer("cache_affinity")
        warm_cache = KmapCache(capacity=4)
        request = make_request(0, stream=7)
        warm_cache.put(request.scene_key, KmapEntry(charge_keys=frozenset()))
        cold = make_replica(0, cache=KmapCache(capacity=4))
        warm = make_replica(1, cache=warm_cache)
        assert balancer.select([cold, warm], [request], 0.0).index == 1
        # Nobody warm for an unseen stream: least-loaded order wins.
        other = make_request(1, stream=9)
        assert balancer.select([cold, warm], [other], 0.0).index == 0

    def test_affinity_score_does_not_perturb_hit_accounting(self):
        cache = KmapCache(capacity=2)
        assert ("x",) not in cache
        assert cache.hits == 0 and cache.misses == 0


class TestFaultModel:
    def test_parse_spec(self):
        plan = FaultPlan.parse("stall=2, fail=0.1, skew=3", seed=7)
        assert plan.stall_rate_per_s == 2.0
        assert plan.fail_rate == 0.1
        assert plan.skew_factor == 3.0
        assert plan.seed == 7
        assert plan.active

    def test_parse_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(ConfigError, match="unknown fault key"):
            FaultPlan.parse("explode=1")
        with pytest.raises(ConfigError, match="bad fault value"):
            FaultPlan.parse("fail=lots")
        with pytest.raises(ConfigError, match="key=value"):
            FaultPlan.parse("stall")
        with pytest.raises(ConfigError):
            FaultPlan(fail_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(skew_factor=0.5)

    def test_skew_defaults_to_last_replica(self):
        injector = FaultInjector(FaultPlan.parse("skew=2"), replicas=3)
        assert injector.slow_factor(0) == 1.0
        assert injector.slow_factor(1) == 1.0
        assert injector.slow_factor(2) == 2.0
        pinned = FaultInjector(
            FaultPlan.parse("skew=2,skew_replica=0"), replicas=3
        )
        assert pinned.slow_factor(0) == 2.0 and pinned.slow_factor(2) == 1.0

    def test_skew_replica_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            FaultInjector(
                FaultPlan.parse("skew=2,skew_replica=5"), replicas=2
            )

    def test_batch_failures_deterministic_and_order_free(self):
        plan = FaultPlan.parse("fail=0.3", seed=1)
        a = FaultInjector(plan, replicas=1)
        b = FaultInjector(plan, replicas=1)
        draws_a = [a.batch_fails(i) for i in range(50)]
        draws_b = [b.batch_fails(i) for i in reversed(range(50))]
        assert draws_a == draws_b[::-1]
        assert any(draws_a) and not all(draws_a)
        assert a.batch_failures == sum(draws_a)

    def test_stall_windows_deterministic(self):
        plan = FaultPlan.parse("stall=10,stall_ms=20", seed=3)
        a = FaultInjector(plan, replicas=2)
        b = FaultInjector(plan, replicas=2)
        probes = [float(t) for t in range(0, 2000, 50)]
        trace_a = [(a.stalled_until(0, t), a.stalled_until(1, t))
                   for t in probes]
        trace_b = [(b.stalled_until(0, t), b.stalled_until(1, t))
                   for t in probes]
        assert trace_a == trace_b
        # Replicas get independent streams; at 10 windows/s some probe
        # lands inside a window.
        assert any(u is not None for u, _ in trace_a)
        assert trace_a != [(v, u) for u, v in trace_a]
        assert a.stall_windows > 0
        assert a.stalls_for(0) + a.stalls_for(1) == a.stall_windows


@pytest.fixture(scope="module")
def faulty_schedule():
    return generate_requests(
        WORKLOAD, parse_traffic("steady:rate=150", seed=4),
        count=16, num_streams=3, deadline_ms=500.0,
    )


class TestFaultyServing:
    def test_retries_recover_all_requests(self, faulty_schedule):
        config = cluster_config(
            replicas=2,
            faults=FaultPlan.parse("fail=0.3", seed=2),
            max_retries=4,
            retry_backoff_ms=2.0,
        )
        result = ServingRuntime(config).serve(faulty_schedule)
        m = result.metrics
        assert m.shed == 0 and m.failed == 0 and m.timed_out == 0
        assert m.completed == len(faulty_schedule)
        assert m.batch_failures > 0
        assert m.retries > 0
        retried = [o for o in result.outcomes if o.attempts > 1]
        assert retried
        for outcome in retried:
            assert outcome.completed
            assert outcome.finish_ms > outcome.request.arrival_ms

    def test_exhausted_retries_fail_requests(self, faulty_schedule):
        config = cluster_config(
            replicas=2,
            faults=FaultPlan.parse("fail=0.3", seed=2),
            max_retries=0,
        )
        m = ServingRuntime(config).serve(faulty_schedule).metrics
        assert m.failed > 0
        assert m.failed + m.completed + m.shed == m.requests
        assert m.retries == 0

    def test_backoff_spaces_out_retries(self, faulty_schedule):
        slow_backoff = cluster_config(
            replicas=2,
            faults=FaultPlan.parse("fail=0.3", seed=2),
            max_retries=4,
            retry_backoff_ms=200.0,
        )
        fast_backoff = dataclasses_replace(slow_backoff, retry_backoff_ms=1.0)
        slow = ServingRuntime(slow_backoff).serve(faulty_schedule).metrics
        fast = ServingRuntime(fast_backoff).serve(faulty_schedule).metrics
        assert slow.retries > 0 and fast.retries > 0
        assert slow.latency_p99_ms > fast.latency_p99_ms

    def test_stalled_cluster_drains_and_recovers(self):
        requests = generate_requests(
            WORKLOAD, parse_traffic("steady:rate=100", seed=5),
            count=12, num_streams=2, deadline_ms=1000.0,
        )
        config = cluster_config(
            replicas=2,
            faults=FaultPlan.parse("stall=40,stall_ms=30", seed=1),
        )
        result = ServingRuntime(config).serve(requests)
        m = result.metrics
        assert m.completed + m.shed == len(requests)
        assert m.replica_stalls > 0
        healthy = ServingRuntime(cluster_config(replicas=2)).serve(requests)
        assert m.makespan_ms >= healthy.metrics.makespan_ms

    def test_timeout_drops_stale_queued_requests(self):
        requests = generate_requests(
            WORKLOAD, parse_traffic("steady:rate=3000", seed=6),
            count=24, num_streams=2, deadline_ms=1000.0,
        )
        config = cluster_config(queue_depth=64, timeout_ms=15.0)
        result = ServingRuntime(config).serve(requests)
        m = result.metrics
        assert m.timed_out > 0
        assert m.timed_out + m.completed + m.shed == m.requests
        for outcome in result.outcomes:
            if outcome.status is RequestStatus.TIMED_OUT:
                assert outcome.start_ms is None and outcome.finish_ms is None

    def test_hedging_duplicates_slow_batches_and_cuts_tail(self):
        requests = generate_requests(
            WORKLOAD, parse_traffic("steady:rate=60", seed=7),
            count=16, num_streams=2, deadline_ms=1000.0,
        )
        skew = FaultPlan.parse("skew=4,skew_replica=0", seed=0)
        base = cluster_config(
            replicas=2, balancer="round_robin", faults=skew,
        )
        hedged_config = dataclasses_replace(base, hedge_ms=1.0)
        plain = ServingRuntime(base).serve(requests).metrics
        hedged = ServingRuntime(hedged_config).serve(requests).metrics
        assert hedged.hedges > 0
        assert hedged.hedge_wins > 0
        assert hedged.latency_p99_ms < plain.latency_p99_ms
        assert hedged.completed == plain.completed == len(requests)


class TestBalancedScheduling:
    def test_least_loaded_beats_round_robin_on_skewed_scene_sizes(self):
        # Alternating heavy/light scenes; round-robin blindly stacks the
        # heavy ones onto one replica, least-loaded levels the work.  This
        # is the regression test for the old hardcoded index-order
        # selection (which behaved like round-robin).
        requests = [
            make_request(
                i,
                arrival_ms=0.0,
                workload=HEAVY_WORKLOAD if i % 2 == 0 else WORKLOAD,
                stream=i % 2,
            )
            for i in range(8)
        ]
        def run(balancer):
            config = cluster_config(
                replicas=2,
                balancer=balancer,
                replica_queue_depth=2,
                max_batch_requests=1,
                batch_window_ms=0.0,
            )
            return ServingRuntime(config).serve(requests).metrics

        rr = run("round_robin")
        ll = run("least_loaded")
        assert ll.latency_p99_ms < rr.latency_p99_ms

        def busy_spread(metrics):
            busy = [r["busy_ms"] for r in metrics.per_replica]
            return max(busy) - min(busy)

        assert busy_spread(ll) < busy_spread(rr)

    def test_cache_affinity_partitions_streams(self):
        # 4 streams over 3 replicas with room for only 2 warm scenes per
        # replica: round-robin routing thrashes every cache, affinity
        # pins each stream to one replica and keeps it warm.
        requests = generate_requests(
            WORKLOAD, parse_traffic("steady:rate=25", seed=8),
            count=24, num_streams=4, deadline_ms=1000.0,
        )
        def run(balancer):
            config = cluster_config(
                replicas=3,
                balancer=balancer,
                kmap_cache_size=2,
                max_batch_requests=1,
            )
            return ServingRuntime(config).serve(requests).metrics

        rr = run("round_robin")
        affinity = run("cache_affinity")
        assert affinity.kmap_hit_rate > rr.kmap_hit_rate
        assert affinity.latency_p99_ms < rr.latency_p99_ms

    def test_jsq_spreads_inflight_batches(self):
        requests = generate_requests(
            WORKLOAD, parse_traffic("steady:rate=400", seed=9),
            count=16, num_streams=2, deadline_ms=1000.0,
        )
        config = cluster_config(
            replicas=3, balancer="jsq", replica_queue_depth=2,
            max_batch_requests=2,
        )
        m = ServingRuntime(config).serve(requests).metrics
        assert m.completed == len(requests)
        busy = [r["batches"] for r in m.per_replica]
        assert max(busy) - min(busy) <= 2  # no replica starves

    def test_cluster_table_renders_per_replica_rows(self, faulty_schedule):
        config = cluster_config(replicas=2, balancer="least_loaded")
        result = ServingRuntime(config).serve(faulty_schedule)
        table = result.metrics.cluster_table()
        assert "cluster summary (least_loaded balancer)" in table
        assert len(result.metrics.per_replica) == 2
        text = result.describe()
        assert "cluster summary" in text and "retries" in text


class TestGoldenDeterminism:
    def _serve_bench_json(self, tmp_path, name):
        from repro.cli import main

        out = tmp_path / name
        code = main([
            "serve-bench", "--device", "rtx3090", "--workload", "sk-m-0.5x",
            "--requests", "12", "--scale", "0.1", "--rate", "150",
            "--replicas", "2", "--balancer", "least_loaded",
            "--faults", "fail=0.25,skew=2", "--retries", "3",
            "--hedge-ms", "30", "--seed", "11",
            "--json", str(out),
        ])
        assert code == 0
        return out.read_bytes()

    def test_faulty_serve_bench_is_byte_identical(self, tmp_path):
        first = self._serve_bench_json(tmp_path, "run1.json")
        second = self._serve_bench_json(tmp_path, "run2.json")
        assert first == second
        payload = json.loads(first)
        assert payload["batch_failures"] > 0
        assert payload["retries"] == json.loads(second)["retries"]
        assert payload["failed"] == 0  # retries absorb every injected fault
        assert payload["completed"] + payload["shed"] == payload["requests"]

    def test_clean_and_faulty_runs_share_accounting(self, faulty_schedule):
        config = cluster_config(
            replicas=2,
            faults=FaultPlan.parse("fail=0.3", seed=2),
            max_retries=4,
        )
        a = ServingRuntime(config).serve(faulty_schedule)
        b = ServingRuntime(config).serve(faulty_schedule)
        assert a.metrics.to_json() == b.metrics.to_json()
        for x, y in zip(a.outcomes, b.outcomes):
            assert x.attempts == y.attempts
            assert x.hedged == y.hedged
            assert x.replica == y.replica


class TestCliFlags:
    def test_unknown_balancer_exits_2_with_choices(self, capsys):
        from repro.cli import main

        assert main(["serve-bench", "--balancer", "random"]) == 2
        err = capsys.readouterr().err
        assert "unknown balancer" in err and "cache_affinity" in err

    def test_bad_fault_spec_exits_2(self, capsys):
        from repro.cli import main

        assert main(["serve-bench", "--faults", "explode=1"]) == 2
        assert "unknown fault key" in capsys.readouterr().err


def dataclasses_replace(config, **changes):
    import dataclasses

    return dataclasses.replace(config, **changes)
