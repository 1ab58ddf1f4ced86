"""Tests for the serving runtime: arrivals, batching, caches, scheduling,
admission control and the warm-vs-cold latency contract."""

import random

import numpy as np
import pytest

from repro.serve import (
    DynamicBatcher,
    InferenceRequest,
    KmapCache,
    KmapEntry,
    PolicyCache,
    RequestQueue,
    RequestStatus,
    ServeConfig,
    ServingRuntime,
    generate_requests,
    parse_traffic,
)

WORKLOAD = "SK-M-0.5"
#: Tiny scenes keep the suite fast; simulated comparisons hold at any scale.
SCALE = 0.1


def make_request(i, arrival_ms, points_seed=0, workload=WORKLOAD,
                 deadline_ms=200.0):
    return InferenceRequest(
        request_id=i,
        workload_id=workload,
        stream_id=i % 2,
        frame_index=i // 2,
        scene_seed=points_seed,
        arrival_ms=arrival_ms,
        deadline_ms=deadline_ms,
    )


def poisson_times(rate_per_s, seed, count):
    """The fixed-rate Poisson sampler the ``steady`` preset replaced."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1000.0 / rate_per_s, size=count)).tolist()


def on_off_times(base, peak, period_ms, fraction, seed, count):
    """The on/off sampler the ``bursty`` preset replaced: each gap is drawn
    at the rate in effect at the previous arrival."""
    rng = np.random.default_rng(seed)
    times, t = [], 0.0
    for _ in range(count):
        burst = (t % period_ms) / period_ms < fraction
        t += rng.exponential(1000.0 / (peak if burst else base))
        times.append(t)
    return times


class TestArrivals:
    def test_poisson_deterministic_and_sorted(self):
        a = parse_traffic("steady:rate=50", seed=3)
        t1, t2 = a.times_ms(100), a.times_ms(100)
        assert t1 == t2
        assert t1 == sorted(t1)

    def test_poisson_mean_rate(self):
        times = parse_traffic("steady:rate=100", seed=0).times_ms(2000)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(10.0, rel=0.1)  # 100/s = 10 ms

    def test_bursty_denser_in_burst_phase(self):
        a = parse_traffic("bursty:base=20,peak=400,on=250,off=750", seed=1)
        times = np.asarray(a.times_ms(800))
        phases = (times % 1000.0) / 1000.0
        in_burst = np.count_nonzero(phases < 0.25)
        # 25% of the time carries far more than 25% of the arrivals.
        assert in_burst > 0.5 * len(times)

    @pytest.mark.parametrize("rate", [0.5, 7.0, 30.0, 123.25, 2000.0, 5000.0])
    @pytest.mark.parametrize("seed", [0, 1, 5, 17])
    def test_steady_preset_is_the_poisson_sampler(self, rate, seed):
        trace = parse_traffic(f"steady:rate={rate}", seed=seed)
        assert trace.times_ms(300) == poisson_times(rate, seed, 300)

    @pytest.mark.parametrize(
        "period,fraction", [(1000.0, 0.25), (400.0, 0.5), (2000.0, 0.125)]
    )
    @pytest.mark.parametrize("base,peak", [(30.0, 120.0), (5.0, 400.0)])
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_bursty_preset_is_the_on_off_sampler(
        self, period, fraction, base, peak, seed
    ):
        on = period * fraction
        trace = parse_traffic(
            f"bursty:base={base},peak={peak},on={on},off={period - on}",
            seed=seed,
        )
        expected = on_off_times(base, peak, period, fraction, seed, 300)
        assert trace.times_ms(300) == expected

    def test_bursty_defaults_are_the_cli_defaults(self):
        # serve-bench --arrivals bursty at the default --rate 30.
        assert parse_traffic("bursty", seed=4).times_ms(200) == on_off_times(
            30.0, 120.0, 1000.0, 0.25, 4, 200
        )

    def test_generate_requests_streams_share_scene_seed(self):
        reqs = generate_requests(
            WORKLOAD, parse_traffic("steady:rate=10", seed=0),
            count=12, num_streams=3,
        )
        assert len(reqs) == 12
        by_stream = {}
        for r in reqs:
            by_stream.setdefault(r.stream_id, set()).add(r.scene_seed)
        assert set(by_stream) == {0, 1, 2}
        for seeds in by_stream.values():
            assert len(seeds) == 1  # one geometry per stream
        assert [r.request_id for r in reqs] == list(range(12))

    def test_generate_requests_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            generate_requests(WORKLOAD, parse_traffic("steady"), count=0)
        with pytest.raises(ConfigError):
            parse_traffic("steady:rate=-1")
        for deadline in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="deadline_ms"):
                generate_requests(
                    WORKLOAD, parse_traffic("steady"), count=4,
                    deadline_ms=deadline,
                )


class TestCaches:
    def test_policy_cache_hit_miss_accounting(self):
        cache = PolicyCache()
        key = PolicyCache.make_key("SK-M-0.5", "RTX 3090", "fp16")
        assert cache.get(key) is None
        from repro.nn.context import GroupPolicy

        cache.put(key, GroupPolicy({}))
        assert cache.get(key) is not None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_kmap_cache_lru_eviction(self):
        cache = KmapCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.put((key,), KmapEntry(charge_keys=frozenset()))
        assert cache.evictions == 1
        assert ("a",) not in cache and ("c",) in cache
        # Touching "b" makes "c" the LRU victim.
        assert cache.get(("b",)) is not None
        cache.put(("d",), KmapEntry(charge_keys=frozenset()))
        assert ("c",) not in cache and ("b",) in cache
        assert cache.get(("c",)) is None  # evicted -> miss
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)


class TestBatcher:
    def test_queue_sheds_when_full(self):
        queue = RequestQueue(max_depth=2)
        assert queue.admit(make_request(0, 0.0))
        assert queue.admit(make_request(1, 1.0))
        assert not queue.admit(make_request(2, 2.0))
        assert queue.shed_count == 1 and len(queue) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_single_class_queue_matches_a_fifo_list(self, seed):
        # One priority class: the (priority, seq)-ordered queue must act as
        # a plain FIFO list with retries at the head.
        rng = random.Random(seed)
        queue = RequestQueue(max_depth=6)
        ref, shed, now = [], 0, 0.0
        for i in range(400):
            now += rng.random()
            op = rng.choice(
                ("admit", "admit_displacing", "requeue", "expire", "take")
            )
            if op in ("admit", "admit_displacing"):
                request = make_request(i, now)
                room = len(ref) < queue.max_depth
                if op == "admit":
                    assert queue.admit(request) is room
                else:
                    victim = queue.admit_displacing(request)
                    assert victim is (None if room else request)
                if room:
                    ref.append(request)
                else:
                    shed += 1
            elif op == "requeue":
                request = make_request(i, now - 5.0 * rng.random())
                queue.requeue(request)
                ref.insert(0, request)
            elif op == "expire":
                timeout = rng.uniform(1.0, 10.0)
                gone = [r for r in ref if now - r.arrival_ms >= timeout]
                assert queue.expire(now, timeout) == gone
                ref = [r for r in ref if r not in gone]
            else:
                taken = rng.sample(ref, rng.randint(0, len(ref)))
                queue.take(taken)
                ref = [r for r in ref if r not in taken]
            assert [r.request_id for r in queue.peek()] == [
                r.request_id for r in ref
            ]
            assert queue.oldest is (ref[0] if ref else None)
            assert queue.shed_count == shed and len(queue) == len(ref)

    def test_batch_respects_point_budget(self):
        queue = RequestQueue(max_depth=8)
        for i in range(4):
            queue.admit(make_request(i, float(i)))
        batcher = DynamicBatcher(
            point_budget=250, max_batch_requests=8, window_ms=5.0,
            scene_points=lambda r: 100,
        )
        batch = batcher.form_batch(queue, now_ms=10.0)
        assert len(batch) == 2  # 3rd request would exceed 250 points
        assert len(queue) == 2

    def test_batch_respects_request_cap_and_single_oversized(self):
        queue = RequestQueue(max_depth=8)
        for i in range(5):
            queue.admit(make_request(i, float(i)))
        batcher = DynamicBatcher(
            point_budget=10**9, max_batch_requests=3, window_ms=5.0,
            scene_points=lambda r: 100,
        )
        assert len(batcher.form_batch(queue, 10.0)) == 3
        # A single scene above the budget still forms a batch of one.
        big = DynamicBatcher(point_budget=10, scene_points=lambda r: 999)
        assert len(big.form_batch(queue, 10.0)) == 1

    def test_batch_never_mixes_workloads(self):
        queue = RequestQueue(max_depth=8)
        queue.admit(make_request(0, 0.0))
        queue.admit(make_request(1, 1.0, workload="WM-C-1f"))
        queue.admit(make_request(2, 2.0))
        batcher = DynamicBatcher(scene_points=lambda r: 1)
        batch = batcher.form_batch(queue, 20.0)
        assert [r.request_id for r in batch] == [0, 2]
        assert [r.request_id for r in queue.peek()] == [1]

    def test_ready_waits_for_window_when_arrivals_pending(self):
        queue = RequestQueue(max_depth=8)
        queue.admit(make_request(0, 0.0))
        batcher = DynamicBatcher(window_ms=10.0, scene_points=lambda r: 1)
        assert not batcher.ready(queue, now_ms=5.0, more_arrivals=True)
        assert batcher.ready(queue, now_ms=10.0, more_arrivals=True)
        assert batcher.ready(queue, now_ms=5.0, more_arrivals=False)
        assert batcher.next_decision_ms(queue) == pytest.approx(10.0)


@pytest.fixture(scope="module")
def small_schedule():
    return generate_requests(
        WORKLOAD, parse_traffic("steady:rate=40", seed=0),
        count=10, num_streams=2, deadline_ms=300.0,
    )


def small_config(**overrides):
    base = dict(
        device="rtx3090", precision="fp16", scene_scale=SCALE,
        queue_depth=16,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestRuntime:
    def test_serves_all_requests_deterministically(self, small_schedule):
        results = [
            ServingRuntime(small_config()).serve(small_schedule)
            for _ in range(2)
        ]
        for result in results:
            assert result.metrics.completed == len(small_schedule)
            assert result.metrics.shed == 0
            assert result.metrics.latency_p50_ms > 0
            for outcome in result.outcomes:
                assert outcome.completed
                assert outcome.finish_ms > outcome.start_ms
                assert outcome.start_ms >= outcome.request.arrival_ms
        assert results[0].metrics.to_json() == results[1].metrics.to_json()

    def test_kmap_cache_reuses_stream_geometry(self, small_schedule):
        result = ServingRuntime(small_config()).serve(small_schedule)
        # 2 streams -> 2 cold scenes, the other 8 requests hit.
        hits = sum(1 for o in result.outcomes if o.kmap_hit)
        assert hits == len(small_schedule) - 2
        assert result.metrics.kmap_hit_rate == pytest.approx(0.8)

    def test_kmap_hits_skip_mapping_charges(self, small_schedule):
        result = ServingRuntime(small_config()).serve(small_schedule)
        cold = [o for o in result.outcomes
                if not o.kmap_hit and o.batch_size == 1]
        warm = [o for o in result.outcomes
                if o.kmap_hit and o.batch_size == 1]
        if cold and warm:  # batching may group everything; guard, not skip
            assert min(o.service_ms for o in warm) < max(
                o.service_ms for o in cold
            )

    def test_cold_runs_degrade_warm_runs_do_not(self, small_schedule):
        cold = ServingRuntime(small_config()).serve(small_schedule)
        assert cold.metrics.degraded == len(small_schedule)
        assert all(
            o.status is RequestStatus.DEGRADED for o in cold.outcomes
        )
        runtime = ServingRuntime(small_config())
        runtime.warm_policy(WORKLOAD)
        warm = runtime.serve(small_schedule)
        assert warm.metrics.degraded == 0
        assert warm.metrics.policy_hit_rate == 1.0

    def test_warm_policy_p50_strictly_below_cold(self, small_schedule):
        cold = ServingRuntime(small_config()).serve(small_schedule)
        runtime = ServingRuntime(small_config())
        runtime.warm_policy(WORKLOAD)
        warm = runtime.serve(small_schedule)
        assert warm.metrics.latency_p50_ms < cold.metrics.latency_p50_ms

    def test_overload_sheds_and_bounds_queue(self):
        requests = generate_requests(
            WORKLOAD, parse_traffic("steady:rate=2000", seed=1),
            count=40, num_streams=2, deadline_ms=100.0,
        )
        config = small_config(queue_depth=8)
        result = ServingRuntime(config).serve(requests)
        assert result.metrics.shed > 0
        assert result.metrics.queue_depth_max <= config.queue_depth
        assert result.metrics.shed + result.metrics.completed == 40

    def test_more_replicas_cut_tail_latency_under_load(self):
        requests = generate_requests(
            WORKLOAD, parse_traffic("steady:rate=2000", seed=2),
            count=24, num_streams=2, deadline_ms=500.0,
        )
        one = ServingRuntime(
            small_config(queue_depth=64, replicas=1)
        ).serve(requests)
        four = ServingRuntime(
            small_config(queue_depth=64, replicas=4)
        ).serve(requests)
        assert four.metrics.latency_p95_ms < one.metrics.latency_p95_ms
        assert four.metrics.shed == 0

    def test_report_renders(self, small_schedule):
        result = ServingRuntime(small_config()).serve(small_schedule)
        text = result.describe()
        assert "throughput" in text and "latency p50" in text
        assert "stage" in text
        payload = result.metrics.to_json()
        import json

        data = json.loads(payload)
        assert data["completed"] == len(small_schedule)
        assert "latency_p99_ms" in data

    def test_empty_schedule_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ServingRuntime(small_config()).serve([])


class TestLintAdmission:
    def test_broken_model_rejected_at_admission(self):
        from repro.errors import AdmissionError
        from tests.broken_models import BrokenSkipNet

        runtime = ServingRuntime(small_config())
        with pytest.raises(AdmissionError, match="stride-mismatch"):
            runtime.register_model("broken", BrokenSkipNet(), in_channels=4)
        assert "broken" not in runtime._models

    @pytest.mark.parametrize("workload_id", ["SK-M-0.5", "broken"])
    def test_admission_traces_once_and_lints_like_lint_model(
        self, workload_id, monkeypatch
    ):
        import repro.analyze as analyze
        from repro.errors import AdmissionError
        from repro.models import get_workload
        from tests.broken_models import build_broken

        traced, linted = [], []
        real_trace, real_lint = analyze.trace_model, analyze.lint_model

        def tracing(*args, **kwargs):
            traced.append(1)
            return real_trace(*args, **kwargs)

        def linting(*args, **kwargs):
            linted.append(real_lint(*args, **kwargs))
            return linted[-1]

        monkeypatch.setattr(analyze, "trace_model", tracing)
        monkeypatch.setattr(analyze, "lint_model", linting)
        runtime = ServingRuntime(small_config())
        if workload_id == "broken":
            model, in_channels = build_broken(), 4
            with pytest.raises(AdmissionError, match="stride-mismatch"):
                runtime.register_model(workload_id, model, in_channels)
        else:
            model = runtime.model(workload_id)
            in_channels = get_workload(workload_id).dataset_config.in_channels
        monkeypatch.undo()
        assert len(traced) == 1
        assert linted == [
            analyze.lint_model(
                model, in_channels=in_channels, device=runtime.device,
                precision=runtime.precision, collect_trace=True,
            )
        ]

    def test_admission_can_be_disabled(self):
        from tests.broken_models import BrokenSkipNet

        runtime = ServingRuntime(small_config(lint_admission=False))
        model = runtime.register_model(
            "broken", BrokenSkipNet(), in_channels=4
        )
        assert runtime.model("broken") is model

    def test_bundled_workload_admitted(self, small_schedule):
        # Admission runs on the lazy build path too; the bundled MinkUNet
        # must clear it and serving must proceed normally.
        result = ServingRuntime(small_config()).serve(small_schedule)
        assert result.metrics.completed == len(small_schedule)
