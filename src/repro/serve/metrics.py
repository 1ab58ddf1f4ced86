"""Serving metrics: latency percentiles, throughput, queue depth, caches.

Everything is computed from the simulated clock, so a fixed-seed run always
reports the same numbers.  Rendering follows the repository's report idiom
(:func:`repro.utils.format.format_table`); :meth:`ServingMetrics.to_json`
exports the same data for machine consumption.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.request import RequestOutcome, RequestStatus
from repro.utils.format import format_table


def percentile_ms(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclasses.dataclass
class ServingMetrics:
    """Summary of one serving run.

    The cluster fields (``failed`` onward) were added with the
    fault-tolerant scale-out: retry / hedge / timeout counters, injected
    fault accounting and a per-replica breakdown rendered by
    :meth:`cluster_table`.
    """

    requests: int
    completed: int
    degraded: int
    shed: int
    deadline_misses: int
    makespan_ms: float
    throughput_rps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    queue_wait_mean_ms: float
    service_mean_ms: float
    queue_depth_max: int
    queue_depth_mean: float
    policy_hit_rate: float
    kmap_hit_rate: float
    kmap_evictions: int
    batches: int
    mean_batch_size: float
    replica_utilization: float
    stage_us_per_request: Dict[str, float]
    failed: int = 0
    timed_out: int = 0
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    replica_stalls: int = 0
    batch_failures: int = 0
    oom_events: int = 0
    ladder_steps: int = 0
    oom_degraded: int = 0
    balancer: str = "round_robin"
    tuning_db_hits: int = 0
    tuning_db_misses: int = 0
    background_tunes: int = 0
    #: Virtual time at which the first batch was served with a *tuned*
    #: policy; -1 when no batch ever was.  The warm-vs-cold amortization
    #: signal: a pre-warmed policy store pulls it toward the first arrival.
    time_to_first_tuned_ms: float = -1.0
    #: Total cross-stream sync events charged across all executed batches
    #: (0 when ``gpu_streams == 1``: serialized runs need no events).
    sync_events: int = 0
    #: Overload / multi-tenancy counters (PR 9): arrivals denied by their
    #: tenant's token bucket, retries denied by an exhausted retry budget,
    #: circuit-breaker transitions, and autoscaler actions.
    quota_denied: int = 0
    retry_budget_exhausted: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    breaker_probes: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    replicas_final: int = 0
    replicas_peak: int = 0
    #: Total replica-provisioned virtual time (fleet-seconds paid for),
    #: and the headline efficiency figure derived from it: replica-hours
    #: per million completed requests.
    provisioned_ms: float = 0.0
    cost_per_million: float = 0.0
    #: The SLO the run was judged against (0 = per-request deadlines) and
    #: the fraction of requests that met it, overall and for the top
    #: (numerically lowest) priority class.
    slo_ms: float = 0.0
    slo_attainment: float = 0.0
    slo_attainment_top: float = 0.0
    per_replica: List[Dict[str, float]] = dataclasses.field(
        default_factory=list
    )
    #: Per-tenant breakdown rendered by :meth:`tenant_table`; one row per
    #: tenant, keyed "tenant" (name) plus numeric counters.
    per_tenant: List[Dict[str, object]] = dataclasses.field(
        default_factory=list
    )

    # ------------------------------------------------------------------ #
    def to_table(self) -> str:
        rows = [
            ["requests", str(self.requests)],
            ["completed", str(self.completed)],
            ["degraded", str(self.degraded)],
            ["shed", str(self.shed)],
            ["failed", str(self.failed)],
            ["timed out", str(self.timed_out)],
            ["retries", str(self.retries)],
            ["hedges", f"{self.hedges} ({self.hedge_wins} won)"],
            ["replica stalls", str(self.replica_stalls)],
            ["batch failures", str(self.batch_failures)],
            ["oom events", str(self.oom_events)],
            ["ladder steps taken", str(self.ladder_steps)],
            ["oom-degraded requests", str(self.oom_degraded)],
            ["balancer", self.balancer],
            ["deadline misses", str(self.deadline_misses)],
            ["makespan", f"{self.makespan_ms:.1f} ms"],
            ["throughput", f"{self.throughput_rps:.2f} req/s"],
            ["latency p50", f"{self.latency_p50_ms:.2f} ms"],
            ["latency p95", f"{self.latency_p95_ms:.2f} ms"],
            ["latency p99", f"{self.latency_p99_ms:.2f} ms"],
            ["latency mean", f"{self.latency_mean_ms:.2f} ms"],
            ["queue wait mean", f"{self.queue_wait_mean_ms:.2f} ms"],
            ["service mean", f"{self.service_mean_ms:.2f} ms"],
            ["queue depth max", str(self.queue_depth_max)],
            ["queue depth mean", f"{self.queue_depth_mean:.2f}"],
            ["policy cache hit rate", f"{100 * self.policy_hit_rate:.1f}%"],
            ["tuning db hits / misses",
             f"{self.tuning_db_hits} / {self.tuning_db_misses}"],
            ["background tunes", str(self.background_tunes)],
            ["time to first tuned",
             (f"{self.time_to_first_tuned_ms:.1f} ms"
              if self.time_to_first_tuned_ms >= 0 else "never")],
            ["kmap cache hit rate", f"{100 * self.kmap_hit_rate:.1f}%"],
            ["kmap evictions", str(self.kmap_evictions)],
            ["batches", str(self.batches)],
            ["mean batch size", f"{self.mean_batch_size:.2f}"],
            ["replica utilization", f"{100 * self.replica_utilization:.1f}%"],
            ["gpu sync events", str(self.sync_events)],
            ["quota denied", str(self.quota_denied)],
            ["retry budget exhausted", str(self.retry_budget_exhausted)],
            ["breaker opens / closes / probes",
             f"{self.breaker_opens} / {self.breaker_closes} / "
             f"{self.breaker_probes}"],
            ["scale ups / downs", f"{self.scale_ups} / {self.scale_downs}"],
            ["replicas final / peak",
             f"{self.replicas_final} / {self.replicas_peak}"],
            ["provisioned", f"{self.provisioned_ms:.1f} replica-ms"],
            ["cost / 1M requests",
             f"{self.cost_per_million:.3f} replica-hours"],
            ["slo target",
             f"{self.slo_ms:.1f} ms" if self.slo_ms > 0 else "deadline"],
            ["slo attainment", f"{100 * self.slo_attainment:.2f}%"],
            ["slo attainment (top class)",
             f"{100 * self.slo_attainment_top:.2f}%"],
        ]
        return format_table(["metric", "value"], rows, title="serving summary")

    def stage_table(self) -> str:
        total = sum(self.stage_us_per_request.values()) or 1.0
        rows = [
            [stage, f"{us:.1f}", f"{100 * us / total:.1f}%"]
            for stage, us in sorted(
                self.stage_us_per_request.items(), key=lambda kv: -kv[1]
            )
        ]
        return format_table(
            ["stage", "us/request", "share"], rows,
            title="per-request stage breakdown (simulated)",
        )

    def cluster_table(self) -> str:
        """Per-replica utilization / fault summary (the cluster view)."""
        rows = [
            [
                str(int(r["replica"])),
                str(int(r["batches"])),
                f"{r['busy_ms']:.1f}",
                f"{100 * r['utilization']:.1f}%",
                f"{100 * r['kmap_hit_rate']:.1f}%",
                str(int(r["stalls"])),
                str(int(r["failures"])),
                str(int(r.get("ooms", 0))),
                str(int(r["retries_served"])),
                str(int(r["hedges_served"])),
                (f"{int(r.get('breaker_opens', 0))}/"
                 f"{int(r.get('breaker_closes', 0))}"),
                f"{r.get('provisioned_ms', 0.0):.1f}",
            ]
            for r in self.per_replica
        ]
        return format_table(
            ["replica", "batches", "busy ms", "util", "kmap hits",
             "stalls", "failures", "ooms", "retries", "hedges",
             "brk o/c", "prov ms"],
            rows,
            title=f"cluster summary ({self.balancer} balancer)",
        )

    def tenant_table(self) -> str:
        """Per-tenant admission / outcome / SLO summary."""
        rows = [
            [
                str(r["tenant"]),
                str(int(r["priority"])),
                str(int(r["requests"])),
                str(int(r["completed"])),
                str(int(r["degraded"])),
                str(int(r["shed"])),
                str(int(r["quota_denied"])),
                str(int(r["timed_out"])),
                str(int(r["failed"])),
                str(int(r["retries"])),
                str(int(r["budget_exhausted"])),
                str(int(r["deadline_misses"])),
                f"{r['latency_p99_ms']:.2f}",
                f"{100 * r['slo_attainment']:.2f}%",
            ]
            for r in self.per_tenant
        ]
        return format_table(
            ["tenant", "prio", "reqs", "done", "degr", "shed", "quota",
             "t/o", "fail", "retry", "budget", "miss", "p99 ms", "slo"],
            rows,
            title="per-tenant summary",
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServingMetrics":
        """Inverse of :meth:`to_json` (every field is JSON-native)."""
        payload = json.loads(text)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown ServingMetrics fields in JSON: {sorted(unknown)}"
            )
        return cls(**payload)


def _slo_met(outcome: RequestOutcome, slo_ms: float) -> bool:
    """Did one request meet the run's SLO?

    ``slo_ms > 0`` judges end-to-end latency against that fixed target;
    ``slo_ms == 0`` falls back to the request's own deadline.  Requests
    that never completed (shed / timed out / failed) always miss.
    """
    if not outcome.completed:
        return False
    if slo_ms > 0:
        return outcome.latency_ms <= slo_ms
    return not outcome.deadline_missed


def _tenant_rows(
    outcomes: Sequence[RequestOutcome], slo_ms: float
) -> List[Dict[str, object]]:
    """One summary row per tenant, ordered by (priority, name)."""
    by_tenant: Dict[str, List[RequestOutcome]] = {}
    for o in outcomes:
        by_tenant.setdefault(o.request.tenant, []).append(o)
    rows: List[Dict[str, object]] = []
    for name, group in by_tenant.items():
        served = [o for o in group if o.completed]
        latencies = [o.latency_ms for o in served]
        rows.append({
            "tenant": name,
            "priority": min(o.request.priority for o in group),
            "requests": len(group),
            "completed": len(served),
            "degraded": sum(1 for o in group if o.degraded),
            "shed": sum(
                1 for o in group if o.status is RequestStatus.SHED
            ),
            "quota_denied": sum(1 for o in group if o.quota_denied),
            "timed_out": sum(
                1 for o in group if o.status is RequestStatus.TIMED_OUT
            ),
            "failed": sum(
                1 for o in group if o.status is RequestStatus.FAILED
            ),
            "retries": sum(max(o.attempts - 1, 0) for o in group),
            "budget_exhausted": sum(
                1 for o in group if o.budget_exhausted
            ),
            "deadline_misses": sum(1 for o in served if o.deadline_missed),
            "latency_p99_ms": percentile_ms(latencies, 99),
            "slo_attainment": (
                sum(1 for o in group if _slo_met(o, slo_ms)) / len(group)
            ),
        })
    rows.sort(key=lambda r: (r["priority"], r["tenant"]))  # type: ignore[arg-type, return-value]
    return rows


def compute_metrics(
    outcomes: Sequence[RequestOutcome],
    depth_samples: Sequence[Tuple[float, int]],
    policy_hit_rate: float,
    kmap_hit_rate: float,
    kmap_evictions: int,
    batches: int,
    replica_busy_ms: float,
    replicas: int,
    stage_us_totals: Optional[Dict[str, float]] = None,
    replica_stalls: int = 0,
    batch_failures: int = 0,
    oom_events: int = 0,
    ladder_steps: int = 0,
    balancer: str = "round_robin",
    tuning_db_hits: int = 0,
    tuning_db_misses: int = 0,
    background_tunes: int = 0,
    time_to_first_tuned_ms: float = -1.0,
    sync_events: int = 0,
    per_replica: Optional[List[Dict[str, float]]] = None,
    quota_denied: int = 0,
    retry_budget_exhausted: int = 0,
    breaker_opens: int = 0,
    breaker_closes: int = 0,
    breaker_probes: int = 0,
    scale_ups: int = 0,
    scale_downs: int = 0,
    replicas_peak: int = 0,
    provisioned_ms: float = 0.0,
    slo_ms: float = 0.0,
) -> ServingMetrics:
    """Fold raw run records into a :class:`ServingMetrics`."""
    served = [o for o in outcomes if o.completed]
    latencies = [o.latency_ms for o in served]
    queue_waits = [o.queue_ms for o in served]
    services = [o.service_ms for o in served]
    finish = max((o.finish_ms for o in served), default=0.0)
    first_arrival = min(
        (o.request.arrival_ms for o in outcomes), default=0.0
    )
    makespan = max(finish - first_arrival, 0.0)
    depths = [d for _, d in depth_samples]
    stage_totals = stage_us_totals or {}
    per_request = {
        stage: us / max(len(served), 1) for stage, us in stage_totals.items()
    }
    replica_rows = []
    for row in per_replica or []:
        row = dict(row)
        # An autoscaled replica is only accountable for the window it was
        # provisioned; fall back to the run makespan for static fleets.
        horizon = row.get("provisioned_ms", 0.0) or makespan
        row["utilization"] = row["busy_ms"] / horizon if horizon else 0.0
        replica_rows.append(row)
    # Fleet-level capacity actually paid for: the sum of per-replica
    # provisioned windows when autoscaling tracked them, else the static
    # fleet for the whole makespan.
    fleet_ms = provisioned_ms or replicas * makespan
    slo_met = sum(1 for o in outcomes if _slo_met(o, slo_ms))
    top = min((o.request.priority for o in outcomes), default=0)
    top_group = [o for o in outcomes if o.request.priority == top]
    top_met = sum(1 for o in top_group if _slo_met(o, slo_ms))
    return ServingMetrics(
        requests=len(outcomes),
        completed=len(served),
        degraded=sum(1 for o in outcomes if o.status is RequestStatus.DEGRADED),
        shed=sum(1 for o in outcomes if o.status is RequestStatus.SHED),
        deadline_misses=sum(1 for o in served if o.deadline_missed),
        makespan_ms=makespan,
        throughput_rps=(1000.0 * len(served) / makespan) if makespan else 0.0,
        latency_p50_ms=percentile_ms(latencies, 50),
        latency_p95_ms=percentile_ms(latencies, 95),
        latency_p99_ms=percentile_ms(latencies, 99),
        latency_mean_ms=float(np.mean(latencies)) if latencies else 0.0,
        queue_wait_mean_ms=float(np.mean(queue_waits)) if queue_waits else 0.0,
        service_mean_ms=float(np.mean(services)) if services else 0.0,
        queue_depth_max=max(depths) if depths else 0,
        queue_depth_mean=float(np.mean(depths)) if depths else 0.0,
        policy_hit_rate=policy_hit_rate,
        kmap_hit_rate=kmap_hit_rate,
        kmap_evictions=kmap_evictions,
        batches=batches,
        mean_batch_size=(len(served) / batches) if batches else 0.0,
        replica_utilization=(
            replica_busy_ms / fleet_ms if fleet_ms else 0.0
        ),
        stage_us_per_request=per_request,
        failed=sum(1 for o in outcomes if o.status is RequestStatus.FAILED),
        timed_out=sum(
            1 for o in outcomes if o.status is RequestStatus.TIMED_OUT
        ),
        retries=sum(max(o.attempts - 1, 0) for o in outcomes),
        hedges=sum(1 for o in outcomes if o.hedged),
        hedge_wins=sum(1 for o in outcomes if o.hedge_won),
        replica_stalls=replica_stalls,
        batch_failures=batch_failures,
        oom_events=oom_events,
        ladder_steps=ladder_steps,
        oom_degraded=sum(1 for o in outcomes if o.ladder),
        balancer=balancer,
        tuning_db_hits=tuning_db_hits,
        tuning_db_misses=tuning_db_misses,
        background_tunes=background_tunes,
        time_to_first_tuned_ms=time_to_first_tuned_ms,
        sync_events=sync_events,
        quota_denied=quota_denied,
        retry_budget_exhausted=retry_budget_exhausted,
        breaker_opens=breaker_opens,
        breaker_closes=breaker_closes,
        breaker_probes=breaker_probes,
        scale_ups=scale_ups,
        scale_downs=scale_downs,
        replicas_final=replicas,
        replicas_peak=replicas_peak or replicas,
        provisioned_ms=fleet_ms,
        cost_per_million=(
            fleet_ms / len(served) * 1e6 / 3.6e6 if served else 0.0
        ),
        slo_ms=slo_ms,
        slo_attainment=slo_met / len(outcomes) if outcomes else 0.0,
        slo_attainment_top=(
            top_met / len(top_group) if top_group else 0.0
        ),
        per_replica=replica_rows,
        per_tenant=_tenant_rows(outcomes, slo_ms),
    )
