"""Overload-robustness tests: tenant quotas, priority shedding, retry
budgets, circuit breakers, the SLO-driven autoscaler, per-sample memo
composition, and the determinism of flash-crowd runs.

The counterfactual test at the bottom is the PR's acceptance contract:
the same flash-crowd trace must measurably violate the SLO when the
robustness mechanisms (priority shedding + autoscaler) are turned off.
"""

import pytest

from repro.serve import (
    AutoscalePolicy,
    Autoscaler,
    BreakerState,
    CircuitBreaker,
    FaultPlan,
    RequestStatus,
    ServeConfig,
    ServingRuntime,
    generate_requests,
    generate_traffic_requests,
    parse_tenants,
    parse_traffic,
)

SCALE = 0.1
WORKLOAD = "SK-M-0.5"


def overload_requests(count=300, seed=3, peak=300.0, tenants=None,
                      deadline_ms=400.0):
    trace = parse_traffic(f"flash:base=30,peak={peak}", seed=seed)
    roster = tenants if tenants is not None else parse_tenants(
        f"gold:prio=0,share=3,mix={WORKLOAD},streams=2;"
        f"bronze:prio=2,share=1,mix={WORKLOAD},streams=2"
    )
    return roster, generate_traffic_requests(
        trace, count=count, tenants=roster, seed=seed,
        deadline_ms=deadline_ms,
    )


def overload_config(tenants, **overrides):
    base = dict(
        device="rtx3090", precision="fp16", scene_scale=SCALE,
        replicas=2, tenants=tenants, queue_depth=16, slo_ms=350.0,
        max_retries=2,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_and_probes_closed(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_ms=100.0)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allows(50.0)  # still cooling down
        assert breaker.allows(150.0)  # half-open: one probe allowed
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.on_dispatch()
        assert not breaker.allows(151.0)  # probe in flight: nobody else
        breaker.record_success(200.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.closes == 1

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=50.0)
        breaker.record_failure(0.0)
        assert breaker.allows(60.0)
        breaker.on_dispatch()
        breaker.record_failure(70.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allows(100.0)  # new cooldown from the re-open

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ms=50.0)
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        breaker.record_failure(2.0)
        assert breaker.state is BreakerState.CLOSED

    def test_runtime_opens_breakers_under_persistent_failures(self):
        tenants, requests = overload_requests(count=120)
        config = overload_config(
            tenants,
            breaker_failures=2,
            faults=FaultPlan(fail_rate=0.6, seed=5),
            max_retries=3,
        )
        metrics = ServingRuntime(config).serve(requests).metrics
        assert metrics.breaker_opens > 0
        assert metrics.breaker_probes > 0
        # Per-replica accounting surfaces in the cluster rows.
        assert sum(
            int(r.get("breaker_opens", 0)) for r in metrics.per_replica
        ) == metrics.breaker_opens


class TestAutoscaler:
    def test_scale_up_on_slo_miss_and_cooldown(self):
        policy = AutoscalePolicy(
            slo_ms=100.0, window_ms=1000.0, cooldown_ms=500.0, max_replicas=4
        )
        scaler = Autoscaler(policy)
        for i in range(30):
            scaler.observe(
                finish_ms=float(i * 10), latency_ms=300.0, priority=0,
                slo_missed=True,
            )
        assert scaler.decide(300.0, replicas=1, queue_depth=0,
                             utilization=0.9) == "up"
        # Cooldown: an immediate second tick holds.
        assert scaler.decide(400.0, replicas=2, queue_depth=0,
                             utilization=0.9) is None

    def test_queue_pressure_is_a_leading_signal(self):
        scaler = Autoscaler(AutoscalePolicy(slo_ms=100.0))
        assert scaler.decide(0.0, replicas=1, queue_depth=50,
                             utilization=0.2, batch_capacity=8) == "up"

    def test_scale_down_only_when_idle_and_healthy(self):
        policy = AutoscalePolicy(slo_ms=100.0, scale_down_util=0.5,
                                 cooldown_ms=0.0)
        scaler = Autoscaler(policy)
        for i in range(20):
            scaler.observe(float(i), 10.0, 0, False)
        assert scaler.decide(20.0, replicas=3, queue_depth=0,
                             utilization=0.1) == "down"
        assert scaler.decide(21.0, replicas=1, queue_depth=0,
                             utilization=0.0) is None  # at min_replicas

    def test_runtime_scales_up_under_flash_crowd(self):
        tenants, requests = overload_requests(count=260, peak=1500.0)
        config = overload_config(
            tenants,
            replicas=1,
            max_batch_requests=2,
            autoscale=AutoscalePolicy(
                slo_ms=150.0, min_replicas=1, max_replicas=4,
                interval_ms=50.0, window_ms=500.0, cooldown_ms=100.0,
                warmup_ms=50.0,
            ),
        )
        metrics = ServingRuntime(config).serve(requests).metrics
        assert metrics.scale_ups > 0
        assert metrics.replicas_peak > 1
        assert metrics.provisioned_ms > 0
        assert metrics.cost_per_million > 0

    def test_warmup_delays_new_replica(self):
        tenants, requests = overload_requests(count=150, peak=1500.0)
        config = overload_config(
            tenants,
            replicas=1,
            max_batch_requests=2,
            autoscale=AutoscalePolicy(
                slo_ms=150.0, min_replicas=1, max_replicas=2,
                interval_ms=50.0, window_ms=500.0, cooldown_ms=100.0,
                warmup_ms=100.0,
            ),
        )
        result = ServingRuntime(config).serve(requests)
        assert result.metrics.scale_ups > 0
        # The scaled-up replica (index 1) must not have started a batch
        # before its warmup elapsed.
        starts = [
            o.start_ms for o in result.outcomes
            if o.replica == 1 and o.start_ms is not None
        ]
        assert starts, "scaled-up replica never served"


class TestTenantIsolation:
    def test_quota_sheds_at_arrival(self):
        tenants, requests = overload_requests(
            count=200,
            tenants=parse_tenants(
                f"gold:prio=0,share=1,mix={WORKLOAD};"
                f"capped:prio=1,share=3,rps=5,burst=2,mix={WORKLOAD}"
            ),
        )
        metrics = ServingRuntime(
            overload_config(tenants)
        ).serve(requests).metrics
        assert metrics.quota_denied > 0
        capped = next(
            r for r in metrics.per_tenant if r["tenant"] == "capped"
        )
        assert capped["quota_denied"] == metrics.quota_denied
        gold = next(r for r in metrics.per_tenant if r["tenant"] == "gold")
        assert gold["quota_denied"] == 0

    def test_priority_shedding_protects_top_class(self):
        tenants, requests = overload_requests(count=300, peak=600.0)
        config = overload_config(tenants, queue_depth=8, replicas=1)
        metrics = ServingRuntime(config).serve(requests).metrics
        gold = next(r for r in metrics.per_tenant if r["tenant"] == "gold")
        bronze = next(
            r for r in metrics.per_tenant if r["tenant"] == "bronze"
        )
        assert metrics.shed > 0
        # Lowest-priority-first: bronze absorbs the shedding.
        assert bronze["shed"] > 0
        assert gold["shed"] * bronze["requests"] <= (
            bronze["shed"] * gold["requests"]
        )

    def test_retry_budget_caps_retry_storm(self):
        tenants, requests = overload_requests(count=150)
        storm = FaultPlan(fail_rate=0.5, seed=9)
        unbounded = ServingRuntime(overload_config(
            tenants, faults=storm, max_retries=3,
        )).serve(requests).metrics
        budgeted = ServingRuntime(overload_config(
            tenants, faults=storm, max_retries=3, retry_budget=0.05,
        )).serve(requests).metrics
        assert budgeted.retry_budget_exhausted > 0
        assert budgeted.retries < unbounded.retries
        # Budget-denied requests resolve FAILED with the flag set.
        assert budgeted.failed >= budgeted.retry_budget_exhausted


class TestSampleMemo:
    def test_memo_matches_unmemoized_metrics(self, monkeypatch):
        """Batch costs composed from per-sample memo entries agree with
        the cold path, which simulates every batch whole (the reference)."""
        tenants, requests = overload_requests(count=120)
        faults = FaultPlan(fail_rate=0.1, oom_rate=0.02, seed=4)

        def run():
            runtime = ServingRuntime(overload_config(tenants, faults=faults))
            return runtime, runtime.serve(requests).metrics

        composed_runtime, with_memo = run()
        monkeypatch.setattr(
            ServingRuntime, "_compose_cost", lambda self, *args: None
        )
        cold_runtime, without = run()
        assert composed_runtime._sample_memo
        assert not cold_runtime._sample_memo
        # Integer fields agree exactly; float fields to summation-order
        # precision (composition sums per-sample, the cold path sums the
        # shared trace).
        assert with_memo.completed == without.completed
        assert with_memo.failed == without.failed
        assert with_memo.shed == without.shed
        assert with_memo.retries == without.retries
        assert with_memo.oom_events == without.oom_events
        assert with_memo.batches == without.batches
        assert with_memo.kmap_hit_rate == pytest.approx(without.kmap_hit_rate)
        assert with_memo.latency_p99_ms == pytest.approx(
            without.latency_p99_ms, rel=1e-9
        )
        assert with_memo.makespan_ms == pytest.approx(
            without.makespan_ms, rel=1e-9
        )

    def test_memo_populates_and_reuses(self):
        tenants, requests = overload_requests(count=120)
        runtime = ServingRuntime(overload_config(tenants))
        metrics = runtime.serve(requests).metrics
        assert runtime._sample_memo
        # Far fewer sample simulations than batches served.
        assert len(runtime._sample_memo) * 4 < metrics.batches


class TestCliSpecErrors:
    """Every malformed ``serve-bench`` spec exits 2 with a message that
    names the offending key and lists the valid ones — never a traceback."""

    def _run(self, capsys, *argv):
        from repro.cli import main

        code = main(["serve-bench", *argv])
        return code, capsys.readouterr().err

    def test_unknown_fault_key_lists_valid_keys(self, capsys):
        code, err = self._run(capsys, "--faults", "fail_rate=0.1")
        assert code == 2
        assert "unknown fault key" in err
        assert "'fail'" in err and "'oom'" in err and "'stall_ms'" in err

    def test_bad_fault_value_names_key(self, capsys):
        code, err = self._run(capsys, "--faults", "fail=lots")
        assert code == 2
        assert "bad fault value 'lots' for key 'fail'" in err

    def test_unknown_tenant_key_lists_valid_keys(self, capsys):
        code, err = self._run(capsys, "--tenants", "gold:quota=5")
        assert code == 2
        assert "unknown tenant key 'quota'" in err
        assert "'rps'" in err and "'prio'" in err and "'share'" in err

    def test_bad_tenant_value_names_tenant(self, capsys):
        code, err = self._run(capsys, "--tenants", "gold:prio=high")
        assert code == 2
        assert "bad tenant value 'high' for key 'prio'" in err
        assert "gold" in err

    @pytest.mark.parametrize(
        "item",
        ["prio=inf", "streams=nan", "share=nan", "rps=inf", "deadline=-inf"],
    )
    def test_non_finite_tenant_value_names_tenant_and_key(
        self, capsys, item
    ):
        code, err = self._run(capsys, "--tenants", f"gold:{item}")
        assert code == 2
        key = item.partition("=")[0]
        assert "non-finite tenant value" in err
        assert f"for key {key!r}" in err
        assert "tenant 'gold'" in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("--rate", "nan"), "'rate'"),
            (("--rate", "inf"), "'rate'"),
            (("--traffic", "steady:rate=nan"), "'rate'"),
            (("--traffic", "flash:peak=inf"), "'peak'"),
            (("--traffic", "diurnal:period=nan"), "'period'"),
            (("--arrivals", "bursty", "--burst-rate", "nan"), "'peak'"),
            (("--timeout-ms", "nan"), "timeout_ms"),
            (("--hedge-ms", "nan"), "hedge_ms"),
            (("--window-ms", "nan"), "batch_window_ms"),
            (("--slo-ms", "nan"), "slo_ms"),
            (("--retry-backoff-ms", "nan"), "retry_backoff_ms"),
            (("--retry-budget", "nan"), "retry_budget"),
            (("--deadline-ms", "nan"), "deadline_ms"),
            (("--deadline-ms", "inf"), "deadline_ms"),
        ],
    )
    def test_non_finite_serving_value_names_key_or_field(
        self, capsys, argv, name
    ):
        code, err = self._run(
            capsys, "--requests", "2", "--scale", "0.05", *argv
        )
        assert code == 2
        assert name in err and "finite" in err
        assert "Traceback" not in err

    def test_zero_burst_rate_exits_2(self, capsys):
        code, err = self._run(
            capsys, "--requests", "2", "--scale", "0.05",
            "--arrivals", "bursty", "--burst-rate", "0",
        )
        assert code == 2
        assert "traffic key 'peak' must be positive" in err

    @pytest.mark.parametrize("rate", ["nan", "-0.5"])
    def test_bad_oom_rate_exits_2(self, capsys, rate):
        code, err = self._run(
            capsys, "--requests", "2", "--scale", "0.05", "--oom-rate", rate
        )
        assert code == 2
        assert "oom_rate must be in [0, 1)" in err

    def test_unknown_traffic_preset_lists_presets(self, capsys):
        code, err = self._run(capsys, "--traffic", "tsunami")
        assert code == 2
        assert "unknown traffic preset 'tsunami'" in err
        assert "flash" in err and "diurnal" in err and "steady" in err

    def test_nonpositive_traffic_value_exits_2(self, capsys):
        code, err = self._run(capsys, "--traffic", "flash:peak=-5")
        assert code == 2
        assert "must be positive" in err

    @pytest.mark.parametrize(
        "argv", [("--rate", "0"), ("--traffic", "steady:rate=0")]
    )
    def test_zero_rate_exits_2_naming_the_field(self, capsys, argv):
        code, err = self._run(capsys, "--requests", "2", *argv)
        assert code == 2
        assert "traffic key 'rate' must be positive" in err
        assert "Traceback" not in err


class TestDeterminismAndCounterfactual:
    def test_flash_crowd_run_is_byte_identical(self):
        tenants, requests = overload_requests(count=200, peak=400.0)

        def run():
            config = overload_config(
                tenants,
                replicas=1,
                breaker_failures=3,
                faults=FaultPlan(fail_rate=0.1, oom_rate=0.01, seed=11),
                autoscale=AutoscalePolicy(
                    slo_ms=200.0, min_replicas=1, max_replicas=3,
                    interval_ms=50.0, window_ms=500.0, cooldown_ms=200.0,
                ),
            )
            return ServingRuntime(config).serve(requests).metrics.to_json()

        assert run() == run()

    def test_robustness_off_violates_slo(self):
        """The acceptance counterfactual: with the autoscaler and priority
        shedding disabled, the same flash crowd measurably degrades the
        top class; with them on, the top class holds its SLO."""
        tenants, requests = overload_requests(
            count=300, peak=1500.0, deadline_ms=5000.0,
        )

        def run(robust):
            config = overload_config(
                tenants,
                replicas=1,
                queue_depth=12,
                max_batch_requests=2,
                slo_ms=300.0,
                priority_shedding=robust,
                autoscale=AutoscalePolicy(
                    slo_ms=300.0, min_replicas=1, max_replicas=4,
                    interval_ms=50.0, window_ms=500.0, cooldown_ms=100.0,
                    warmup_ms=50.0,
                ) if robust else None,
            )
            metrics = ServingRuntime(config).serve(requests).metrics
            return metrics

        hardened = run(True)
        naive = run(False)
        assert hardened.scale_ups > 0
        assert hardened.slo_attainment_top > naive.slo_attainment_top
        assert naive.slo_attainment_top < 0.95
