"""Tests for trace-driven traffic programs and multi-tenant request
generation (:mod:`repro.serve.traffic`) and the tenant admission
primitives (:mod:`repro.serve.admission`)."""

import pytest

from repro.errors import ConfigError
from repro.serve import (
    InferenceRequest,
    RetryBudget,
    TenantSpec,
    TokenBucket,
    TrafficSegment,
    TrafficTrace,
    generate_traffic_requests,
    parse_traffic,
    parse_tenants,
)
from repro.serve.batcher import RequestQueue
from repro.serve.traffic import TRAFFIC_PRESETS


def make_request(i, arrival_ms=0.0, priority=0, tenant="default",
                 deadline_ms=500.0):
    return InferenceRequest(
        request_id=i, workload_id="SK-M-0.5", stream_id=0, frame_index=i,
        scene_seed=0, arrival_ms=arrival_ms, deadline_ms=deadline_ms,
        tenant=tenant, priority=priority,
    )


class TestSegmentsAndTrace:
    def test_const_segment_rate(self):
        seg = TrafficSegment(duration_ms=100.0, start_rate=30.0)
        assert seg.rate_at(0.0) == seg.rate_at(99.0) == 30.0

    def test_linear_ramp_interpolates(self):
        seg = TrafficSegment(
            duration_ms=100.0, start_rate=10.0, end_rate=110.0, shape="linear"
        )
        assert seg.rate_at(0.0) == pytest.approx(10.0)
        assert seg.rate_at(50.0) == pytest.approx(60.0)
        assert seg.rate_at(100.0) == pytest.approx(110.0)

    def test_sine_eases_through_midpoint(self):
        seg = TrafficSegment(
            duration_ms=100.0, start_rate=10.0, end_rate=110.0, shape="sine"
        )
        assert seg.rate_at(0.0) == pytest.approx(10.0)
        assert seg.rate_at(50.0) == pytest.approx(60.0)
        assert seg.rate_at(100.0) == pytest.approx(110.0)
        # Ease-in: the first quarter is below the linear interpolant.
        assert seg.rate_at(25.0) < 35.0

    def test_segment_validation(self):
        with pytest.raises(ConfigError, match="duration"):
            TrafficSegment(duration_ms=0.0, start_rate=10.0)
        with pytest.raises(ConfigError, match="rate"):
            TrafficSegment(duration_ms=10.0, start_rate=0.0)
        with pytest.raises(ConfigError, match="shape"):
            TrafficSegment(duration_ms=10.0, start_rate=1.0, shape="square")

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("duration_ms", dict(duration_ms=float("inf"), start_rate=1.0)),
            ("start_rate", dict(duration_ms=10.0, start_rate=float("nan"))),
            ("end_rate", dict(
                duration_ms=10.0, start_rate=1.0, end_rate=float("nan"),
                shape="linear",
            )),
        ],
    )
    def test_segment_rejects_non_finite_values(self, field, kwargs):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            TrafficSegment(**kwargs)

    def test_trace_cycles_over_period(self):
        trace = TrafficTrace(segments=(
            TrafficSegment(duration_ms=100.0, start_rate=10.0),
            TrafficSegment(duration_ms=100.0, start_rate=50.0),
        ))
        assert trace.period_ms == 200.0
        assert trace.rate_at(50.0) == 10.0
        assert trace.rate_at(150.0) == 50.0
        assert trace.rate_at(250.0) == 10.0  # second cycle

    def test_tiny_rate_is_served_as_asked(self):
        trace = parse_traffic("steady:rate=0.0001")
        assert trace.rate_at(0.0) == 0.0001
        assert trace.rate_at(1e9) == 0.0001

    def test_rate_whose_arrivals_overflow_is_rejected(self):
        with pytest.raises(ConfigError, match="too low"):
            parse_traffic("steady:rate=1e-310").times_ms(2)

    def test_times_are_deterministic_and_monotone(self):
        trace = parse_traffic("flash", seed=3)
        a = trace.times_ms(200)
        b = parse_traffic("flash", seed=3).times_ms(200)
        assert a == b
        assert all(x < y for x, y in zip(a, b[1:]))
        assert parse_traffic("flash", seed=4).times_ms(200) != a

    def test_flash_crowd_concentrates_arrivals(self):
        # During the peak phase the arrival density must far exceed the
        # base phase: that is the whole point of a flash crowd.
        trace = parse_traffic(
            "flash:base=10,peak=200,warm=500,ramp=100,hold=1000", seed=0
        )
        times = [t for t in trace.times_ms(400) if t < trace.period_ms]
        warm = sum(1 for t in times if t < 500.0)
        hold = sum(1 for t in times if 600.0 <= t < 1600.0)
        assert hold > 5 * warm

    def test_mean_rate_between_extremes(self):
        trace = parse_traffic("diurnal:base=10,peak=60")
        assert 10.0 < trace.mean_rate_per_s() < 60.0


class TestParseTraffic:
    def test_presets_parse_with_defaults(self):
        for preset in TRAFFIC_PRESETS:
            assert parse_traffic(preset).period_ms > 0

    def test_bursty_is_peak_then_base(self):
        trace = parse_traffic("bursty:base=10,peak=90,on=100,off=300")
        assert trace.period_ms == 400.0
        assert trace.rate_at(50.0) == 90.0 and trace.rate_at(150.0) == 10.0
        assert trace.rate_at(450.0) == 90.0  # cycles

    def test_override_keys(self):
        trace = parse_traffic("steady:rate=77,period=500")
        assert trace.rate_at(0.0) == 77.0
        assert trace.period_ms == 500.0

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ConfigError, match="diurnal"):
            parse_traffic("tsunami")

    def test_unknown_key_names_token(self):
        with pytest.raises(ConfigError, match="'slope'"):
            parse_traffic("flash:slope=3")

    def test_junk_value_and_missing_equals(self):
        with pytest.raises(ConfigError, match="'fast'"):
            parse_traffic("flash:peak=fast")
        with pytest.raises(ConfigError, match="key=value"):
            parse_traffic("flash:peak")

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_traffic("flash:peak=-5")


class TestTenantRoster:
    def test_parse_tenants_roundtrip(self):
        roster = parse_tenants(
            "gold:prio=0,share=3,rps=50,deadline=400;bronze:prio=2,share=1"
        )
        assert [t.name for t in roster] == ["gold", "bronze"]
        gold = roster[0]
        assert gold.priority == 0
        assert gold.share == 3.0
        assert gold.quota_rps == 50.0
        assert gold.deadline_ms == 400.0
        assert roster[1].priority == 2

    def test_parse_tenants_rejects_unknown_key_and_duplicates(self):
        with pytest.raises(ConfigError, match="unknown tenant key"):
            parse_tenants("gold:color=1")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_tenants("gold:prio=0;gold:prio=1")

    def test_generation_assigns_tenants_share_weighted(self):
        tenants = parse_tenants("big:share=9;small:share=1")
        requests = generate_traffic_requests(
            parse_traffic("steady", seed=1), count=600, tenants=tenants,
        )
        counts = {"big": 0, "small": 0}
        for r in requests:
            counts[r.tenant] += 1
        assert counts["big"] > 5 * counts["small"]

    def test_generation_is_deterministic(self):
        tenants = parse_tenants("a:share=1;b:share=1")
        make = lambda: generate_traffic_requests(
            parse_traffic("flash", seed=5), count=100, tenants=tenants,
        )
        assert make() == make()

    def test_streams_are_tenant_private(self):
        tenants = parse_tenants("a:streams=2;b:streams=2")
        requests = generate_traffic_requests(
            parse_traffic("steady", seed=2), count=200, tenants=tenants,
        )
        scenes = {"a": set(), "b": set()}
        for r in requests:
            scenes[r.tenant].add(r.scene_key)
        assert scenes["a"].isdisjoint(scenes["b"])

    def test_priority_and_deadline_flow_to_requests(self):
        tenants = parse_tenants("slow:prio=3,deadline=900")
        requests = generate_traffic_requests(
            parse_traffic("steady"), count=10, tenants=tenants,
        )
        assert all(r.priority == 3 and r.deadline_ms == 900.0 for r in requests)


class TestAdmissionPrimitives:
    def test_token_bucket_sheds_over_rate(self):
        bucket = TokenBucket(rate_per_s=10.0, capacity=2.0)
        taken = sum(1 for _ in range(10) if bucket.take(0.0))
        assert taken == 2  # burst capacity only: no time has passed
        assert bucket.denied == 8
        assert bucket.take(100.0)  # 100 ms refills one token at 10/s

    def test_token_bucket_zero_rate_is_unlimited(self):
        bucket = TokenBucket(rate_per_s=0.0)
        assert all(bucket.take(0.0) for _ in range(100))
        assert bucket.denied == 0

    def test_retry_budget_spends_against_successes(self):
        budget = RetryBudget(ratio=0.1)
        # The floor lets a cold tenant retry a few times...
        assert all(budget.allow() for _ in range(3))
        # ...then denies until successes accrue.
        assert not budget.allow()
        assert budget.exhausted == 1
        for _ in range(20):
            budget.record_success()
        assert budget.allow()

    def test_retry_budget_negative_ratio_disables(self):
        budget = RetryBudget(ratio=-1.0)
        assert not budget.enabled
        assert all(budget.allow() for _ in range(100))

    def test_priority_queue_sheds_lowest_priority_first(self):
        queue = RequestQueue(max_depth=2)
        low = make_request(1, priority=5)
        mid = make_request(2, priority=2)
        high = make_request(3, priority=0)
        assert queue.admit_displacing(low) is None
        assert queue.admit_displacing(mid) is None
        # Full: the high-priority arrival displaces the priority-5 entry.
        victim = queue.admit_displacing(high)
        assert victim is low
        # A new low-priority arrival bounces off a full queue of betters.
        lower = make_request(4, priority=9)
        assert queue.admit_displacing(lower) is lower
        assert queue.shed_count == 2

    def test_priority_queue_orders_by_class_then_fifo(self):
        queue = RequestQueue(max_depth=8)
        first_low = make_request(1, arrival_ms=0.0, priority=4)
        late_high = make_request(2, arrival_ms=5.0, priority=0)
        later_high = make_request(3, arrival_ms=9.0, priority=0)
        for r in (first_low, late_high, later_high):
            queue.admit_displacing(r)
        assert [r.request_id for r in queue._items] == [2, 3, 1]
        # Retries re-enter at the head of their class, not the queue head.
        retried_low = make_request(4, priority=4)
        queue.requeue(retried_low)
        assert [r.request_id for r in queue._items] == [2, 3, 4, 1]
