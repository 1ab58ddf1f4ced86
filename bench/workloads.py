"""The benchmark's four workloads.

Every workload has the same shape:

* ``setup(seed)`` builds what a deployment builds once — models, tuned
  policies, a serving runtime with admission and warm policies.  Its
  wall time is ``setup_s``.
* ``inputs(state, seed)`` makes the run's inputs from the seed: scene
  seeds, traffic, faults.  Models, engines and configs do not depend on
  the seed.
* ``fresh(state, inputs)`` returns the state one pass starts from, so
  every pass repeats identical work.
* ``run(state)`` is the timed region.
* ``outputs(raw)`` turns a pass's raw results into the checked outputs,
  outside the timed region.

The program is called through module attributes (``datasets.make_sample``,
not a name imported at load time), so the tracer's rebinding sees every
call.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
from typing import Dict, List, Tuple

import numpy as np

from repro.baselines import engines
from repro.data import datasets
from repro.gpusim import engine as gpusim
from repro.hw.specs import get_device
from repro.models.registry import get_workload
from repro.precision import Precision
from repro.serve import (
    AutoscalePolicy,
    FaultInjector,
    FaultPlan,
    RequestStatus,
    ServeConfig,
    ServingRuntime,
    generate_traffic_requests,
    parse_tenants,
    parse_traffic,
)
from repro.sparse.tensor import batch_sparse_tensors

DEVICE = "a100"
PRECISION = "fp16"
ENGINE = "torchsparse++"
#: The seven Section 5.1 presets (Fig. 14).
PRESETS = ("SK-M-0.5", "SK-M-1.0", "NS-M-1f", "NS-M-3f", "NS-C-10f",
           "WM-C-1f", "WM-C-3f")
#: The two Fig. 15 training presets.
TRAIN_PRESETS = ("SK-M-0.5", "WM-C-1f")
#: Scene seed of every preset's held-out tuning scene; fixed, so set-up
#: does not depend on the benchmark seed.
HELD_OUT_SEED = 9_000_000
#: A measured scene is kept only when it has at least this share of the
#: held-out scene's voxels.  About one generated scene in eight puts the
#: sensor inside or against a parked car and returns almost nothing; such
#: scans are not driving data, and one of them in a pass would move host
#: time and memory by more than any bound could absorb.
MIN_SCENE_SHARE = 0.9
#: Serving mix shared by both serving workloads.
SERVE_MIX = ("SK-M-0.5", "NS-M-1f")
#: Serving requests take their tenant, workload and stream from a fixed
#: assignment seed, and their scenes from a fixed scene-seed base; the
#: benchmark seed moves arrival times and fault draws.  A request of
#: SK-M-0.5 costs the host about four times one of NS-M-1f, so a mix or
#: scene set that moved with the seed would make host throughput a
#: property of the seed.  Every stream scene on this base keeps at least
#: MIN_SCENE_SHARE of the held-out scene's voxels (checked in
#: test_bench.py).
SERVE_ASSIGN_SEED = 0
SERVE_SCENE_BASE = 2
#: The fault seed is the first candidate from the benchmark seed whose
#: plan injects a simulated OOM into the first dispatch and into none of
#: the next FAULT_HORIZON, and at least one transient failure into the
#: first FAULT_EARLY.  Every run then exercises both recovery paths, and
#: the one OOM recovery (which costs the host as much as forty ordinary
#: requests) always lands on the same first batch.
FAULT_HORIZON = 200
FAULT_EARLY = 16
#: A simulated tail percentile is reported only with at least this many
#: served requests above it; fewer fails the run's validity check.
TAIL_BEYOND = 12

KINDS = ("gemm", "mapping", "memory", "reduction")
#: Simulated per-layer counters of a serving run: metric -> ServingMetrics
#: field.
SERVE_COUNTERS = {
    "serve.batches": "batches",
    "serve.mean_batch_size": "mean_batch_size",
    "serve.queue_wait_ms_mean": "queue_wait_mean_ms",
    "serve.kmap_hit_rate": "kmap_hit_rate",
    "serve.policy_hit_rate": "policy_hit_rate",
    "serve.replica_utilization": "replica_utilization",
    "admission.shed": "shed",
    "admission.retries": "retries",
    "breaker.opens": "breaker_opens",
    "autoscale.scale_ups": "scale_ups",
    "autoscale.scale_downs": "scale_downs",
    "resilience.oom_events": "oom_events",
    "resilience.ladder_steps": "ladder_steps",
    "opt.sync_events": "sync_events",
}
#: Every simulated per-layer metric; a workload reports 0 for the ones it
#: does not exercise.
SIM_LAYERS = (
    *(f"sim.kind_us.{kind}" for kind in KINDS), "sim.launches",
    *SERVE_COUNTERS,
)


@dataclasses.dataclass
class Outputs:
    """What one pass produced, as checked and reported."""

    items: int
    #: Simulated latency per served item, ms.
    latencies_ms: List[float]
    #: Deterministic document compared against the committed golden.
    golden: dict
    #: Items the program did not serve (shed, failed, timed out).
    not_served: int = 0
    #: Workload-specific end-to-end metrics on the simulated clock.
    sim: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Simulated per-layer counters.
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Violated validity guards and consistency checks.
    problems: List[str] = dataclasses.field(default_factory=list)


def _scene(workload, seed: int, scale: float):
    return datasets.make_sample(
        workload.dataset, frames=workload.frames, seed=seed, scale=scale
    )


def _scene_seeds(workload, seed: int, count: int, scale: float,
                 reference_points: int) -> List[int]:
    """The first ``count`` scene seeds of this benchmark seed whose scans
    keep :data:`MIN_SCENE_SHARE` of the reference scene's voxels."""
    kept: List[int] = []
    candidate = seed * 1000
    while len(kept) < count:
        points = _scene(workload, candidate, scale).num_points
        if points >= MIN_SCENE_SHARE * reference_points:
            kept.append(candidate)
        candidate += 1
    return kept


def _fault_seed(seed: int, faults: dict) -> int:
    """See :data:`FAULT_HORIZON`."""
    candidate = seed * 100_000
    while True:
        injector = FaultInjector(FaultPlan(seed=candidate, **faults), 1)
        if (
            injector.batch_ooms(0)
            and not any(
                injector.batch_ooms(b) for b in range(1, FAULT_HORIZON)
            )
            and any(injector.batch_fails(b) for b in range(FAULT_EARLY))
        ):
            return candidate
        candidate += 1


def _launch_prices(trace) -> List[Tuple[str, str, float]]:
    """(kind, layer prefix, µs) per launch, priced one launch at a time
    with ``estimate_launch_us`` — independent of the trace-level path
    that produced ``ctx.latency_ms()``."""
    device = get_device(DEVICE)
    precision = Precision.parse(PRECISION)
    return [
        (
            launch.kind.value,
            launch.name.split("/", 1)[0],
            gpusim.estimate_launch_us(launch, device, precision),
        )
        for launch in trace
    ]


def _offline_outputs(raw, per_layer: bool) -> Outputs:
    items, kind_us, layer_us, problems = [], {}, {}, []
    kind_total: Dict[str, float] = {}
    launches = 0
    for preset, scene_seed, points, latency_ms, trace in raw:
        prices = _launch_prices(trace)
        launches += len(prices)
        total_us = sum(us for _, _, us in prices)
        if abs(total_us - latency_ms * 1e3) > 1e-9 * max(total_us, 1.0):
            problems.append(
                f"{preset} scene {scene_seed}: latency_ms {latency_ms!r} "
                f"!= sum of launch prices {total_us / 1e3!r}"
            )
        items.append([preset, scene_seed, points, round(latency_ms, 6)])
        kinds = kind_us.setdefault(preset, {})
        layers = layer_us.setdefault(preset, {})
        for kind, layer, us in prices:
            kinds[kind] = kinds.get(kind, 0.0) + us
            layers[layer] = layers.get(layer, 0.0) + us
            kind_total[kind] = kind_total.get(kind, 0.0) + us
    golden = {"items": items, "kind_us": _rounded(kind_us)}
    if per_layer:
        golden["layer_us"] = _rounded(layer_us)
    n = len(raw)
    sim_layers = dict.fromkeys(SIM_LAYERS, 0.0)
    for kind in KINDS:
        sim_layers[f"sim.kind_us.{kind}"] = kind_total.get(kind, 0.0) / n
    sim_layers["sim.launches"] = launches / n
    return Outputs(
        items=n,
        latencies_ms=[latency for _, _, _, latency, _ in raw],
        golden=golden,
        layers=sim_layers,
        problems=problems,
    )


def _rounded(table: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """µs to 1e-3 µs (1e-6 ms), keys sorted for a stable document."""
    return {
        outer: {k: round(v, 3) for k, v in sorted(inner.items())}
        for outer, inner in sorted(table.items())
    }


class OfflineInfer:
    """Fig. 14 single-scene inference over all seven presets.  Geometry is
    new on every scene, so scene generation and kmap build dominate; no
    serving, no scheduler."""

    name = "offline-infer"
    scale = 0.05
    scenes_per_preset = 1

    def setup(self, seed: int):
        prepared = []
        for preset in PRESETS:
            workload = get_workload(preset)
            model = workload.build_model()
            model.eval()
            engine = engines.get_engine(ENGINE)
            held_out = _scene(workload, HELD_OUT_SEED, self.scale)
            engine.prepare(model, [held_out], DEVICE, PRECISION)
            prepared.append((workload, model, engine, held_out.num_points))
        return prepared

    def inputs(self, state, seed: int):
        return [
            (workload, model, engine, scene_seed)
            for workload, model, engine, points in state
            for scene_seed in _scene_seeds(
                workload, seed, self.scenes_per_preset, self.scale, points
            )
        ]

    def fresh(self, state, inputs):
        return inputs

    def run(self, items):
        raw = []
        for workload, model, engine, scene_seed in items:
            x = _scene(workload, scene_seed, self.scale)
            ctx = engine.make_context(DEVICE, PRECISION)
            ctx.simulate_only = True
            model(x, ctx)
            raw.append(
                (workload.id, scene_seed, x.num_points, ctx.latency_ms(),
                 ctx.trace)
            )
        return raw

    def outputs(self, raw) -> Outputs:
        return _offline_outputs(raw, per_layer=True)


class OfflineTrain:
    """Fig. 15 training steps at batch 2.  The same layers run dgrad over
    transposed maps, wgrad and saved activations, so a forward-only gain
    that costs backward shows up here."""

    name = "offline-train"
    scale = 0.05
    steps = 3

    def setup(self, seed: int):
        prepared = []
        for preset in TRAIN_PRESETS:
            workload = get_workload(preset)
            model = workload.build_model()
            model.train()
            engine = engines.get_engine(ENGINE)
            held_out = _scene(workload, HELD_OUT_SEED, self.scale)
            engine.prepare(
                model, [batch_sparse_tensors([held_out, held_out])],
                DEVICE, PRECISION, training=True,
            )
            prepared.append((workload, model, engine, held_out.num_points))
        return prepared

    def inputs(self, state, seed: int):
        return [
            (workload, model, engine, scene_seed,
             _scene(workload, scene_seed, self.scale))
            for workload, model, engine, points in state
            for scene_seed in _scene_seeds(
                workload, seed, self.steps, self.scale, points
            )
        ]

    def fresh(self, state, inputs):
        # A new batch tensor per pass: its kernel-map cache starts empty.
        return [
            (workload, model, engine, scene_seed,
             batch_sparse_tensors([sample, sample]))
            for workload, model, engine, scene_seed, sample in inputs
        ]

    def run(self, items):
        raw = []
        for workload, model, engine, scene_seed, batch in items:
            ctx = engine.make_context(DEVICE, PRECISION, training=True)
            ctx.simulate_only = True
            out = model(batch, ctx)
            model.backward(
                np.zeros(out.feats.shape, dtype=ctx.precision.dtype), ctx
            )
            model.zero_grad()
            raw.append(
                (workload.id, scene_seed, batch.num_points, ctx.latency_ms(),
                 ctx.trace)
            )
        return raw

    def outputs(self, raw) -> Outputs:
        return _offline_outputs(raw, per_layer=False)


class Serving:
    """Open-loop serving on the simulated clock: arrivals come from the
    seeded traffic trace, independent of service, so they cannot run
    late."""

    def __init__(self, name: str, traffic: str, tenants: str, count: int,
                 config: dict, faults: dict, required: tuple, tail: float):
        self.name = name
        self.traffic = traffic
        self.tenants = tenants
        self.count = count
        self.config = config
        self.faults = faults
        #: Counters that must be positive, or the workload measured
        #: nothing of what it exists for.
        self.required = required
        #: Percentile reported as ``sim_latency_ms_tail``: the highest
        #: that keeps TAIL_BEYOND served requests above it on every seed.
        self.tail = tail

    def setup(self, seed: int):
        config = dict(self.config)
        if self.faults:
            config["faults"] = FaultPlan(
                seed=_fault_seed(seed, self.faults), **self.faults
            )
        runtime = ServingRuntime(ServeConfig(
            device=DEVICE, precision=PRECISION,
            tenants=tuple(parse_tenants(self.tenants)), **config,
        ))
        for workload in SERVE_MIX:
            runtime.model(workload)
            runtime.warm_policy(workload)
        return runtime

    def inputs(self, runtime, seed: int):
        return generate_traffic_requests(
            parse_traffic(self.traffic, seed=seed),
            count=self.count,
            tenants=parse_tenants(self.tenants),
            scene_seed_base=SERVE_SCENE_BASE,
            seed=SERVE_ASSIGN_SEED,
        )

    def fresh(self, runtime, requests):
        # Serving mutates the runtime's caches and memos; the models it
        # holds are only read, so the copy shares them.
        models = [runtime.model(w) for w in SERVE_MIX]
        return copy.deepcopy(runtime, {id(m): m for m in models}), requests

    def run(self, state):
        runtime, requests = state
        return requests, runtime.serve(requests)

    def outputs(self, raw) -> Outputs:
        requests, result = raw
        metrics = result.metrics
        outcomes = result.outcomes
        problems = _serving_invariants(requests, result)
        served = [o for o in outcomes if o.completed]
        lines = []
        for o in outcomes:
            latency = (
                f"{o.finish_ms - o.request.arrival_ms:.6f}"
                if o.finish_ms is not None else "-"
            )
            lines.append(f"{o.request.request_id},{o.status.value},{latency}")
        counters = {
            name: getattr(metrics, name) for name in (
                "requests", "completed", "degraded", "shed", "failed",
                "timed_out", "retries", "batches", "oom_events",
                "ladder_steps", "breaker_opens", "scale_ups", "scale_downs",
                "sync_events",
            )
        }
        for name in ("slo_attainment", "cost_per_million"):
            counters[name] = round(getattr(metrics, name), 9)
        golden = {
            "outcomes_sha256": hashlib.sha256(
                "\n".join(lines).encode()
            ).hexdigest(),
            "counters": counters,
        }
        for counter in self.required:
            if counters[counter] <= 0:
                problems.append(f"validity: {counter} is 0")
        policy_degraded = sum(
            1 for o in outcomes
            if o.status is RequestStatus.DEGRADED and not o.ladder
        )
        if policy_degraded:
            problems.append(
                f"validity: {policy_degraded} request(s) DEGRADED without "
                f"a warmed policy"
            )
        latencies = [o.finish_ms - o.request.arrival_ms for o in served]
        tail_ms = float(np.percentile(latencies, self.tail))
        beyond = sum(1 for latency in latencies if latency > tail_ms)
        if beyond < TAIL_BEYOND:
            problems.append(
                f"validity: {beyond} served request(s) above p{self.tail}, "
                f"fewer than {TAIL_BEYOND}"
            )
        met = metrics.slo_attainment * metrics.requests
        # The runtime keeps no launch trace, so sim.launches stays 0 here;
        # per-kind time comes from its per-request stage attribution,
        # which a later change may replace (then they read 0).
        layers = dict.fromkeys(SIM_LAYERS, 0.0)
        stages = getattr(metrics, "stage_us_per_request", None) or {}
        for kind in KINDS:
            layers[f"sim.kind_us.{kind}"] = stages.get(kind, 0.0)
        for name, field in SERVE_COUNTERS.items():
            layers[name] = float(getattr(metrics, field))
        sim = {
            "sim_latency_ms_tail": tail_ms,
            "slo_attainment": metrics.slo_attainment,
            "sim_goodput_rps": met / (metrics.makespan_ms / 1e3),
        }
        if "autoscale" in self.config:
            sim["cost_per_million"] = metrics.cost_per_million
        return Outputs(
            items=len(requests),
            latencies_ms=latencies,
            golden=golden,
            not_served=len(requests) - len(served),
            sim=sim,
            layers=layers,
            problems=problems,
        )


def _serving_invariants(requests, result) -> List[str]:
    """Checks that hold for every correct serving run, whatever the seed."""
    problems = []
    outcomes = result.outcomes
    metrics = result.metrics
    if [o.request.request_id for o in outcomes] != [
        r.request_id for r in requests
    ]:
        problems.append("outcomes do not map one to one onto requests")
    by_status: Dict[RequestStatus, int] = {}
    for o in outcomes:
        by_status[o.status] = by_status.get(o.status, 0) + 1
        if o.completed and not (
            o.request.arrival_ms <= o.start_ms <= o.finish_ms
        ):
            problems.append(
                f"request {o.request.request_id}: arrival/start/finish "
                f"out of order"
            )
    served = sum(1 for o in outcomes if o.completed)
    if served != metrics.completed:
        problems.append(
            f"metrics.completed {metrics.completed} != served {served}"
        )
    if sum(by_status.values()) != metrics.requests:
        problems.append("statuses do not partition the requests")
    slo = metrics.slo_ms
    met = sum(
        1 for o in outcomes
        if o.completed and o.finish_ms - o.request.arrival_ms <= slo
    )
    if abs(met / len(outcomes) - metrics.slo_attainment) > 1e-12:
        problems.append(
            f"slo_attainment {metrics.slo_attainment!r} != recomputed "
            f"{met / len(outcomes)!r}"
        )
    return problems


#: Every batch takes the cold multi-stream path (ordered fingerprints
#: bypass per-sample composition), so the 4-stream scheduler and model
#: forward do the work; kmaps mostly hit.
SERVE_MULTISTREAM = Serving(
    name="serve-multistream",
    # The whole burst arrives before the first batch completes, so batch
    # composition, and with it the host work, is the same on every seed;
    # the seed moves arrival times and so queueing on the simulated clock.
    traffic="steady:rate=5000",
    tenants="default:mix=SK-M-0.5+NS-M-1f,streams=4",
    count=36,
    config=dict(replicas=1, gpu_streams=4, scene_scale=0.1, slo_ms=50.0,
                queue_depth=64),
    faults={},
    required=("sync_events",),
    # 36 requests, none shed: 13 above p65.
    tail=65,
)

#: A flash crowd served on one GPU stream: admission, shedding, retries,
#: breakers, the autoscaler and the OOM ladder are all active, and
#: per-sample memo composition carries the work; the scheduler never runs.
SERVE_OVERLOAD = Serving(
    name="serve-overload",
    traffic=("flash:base=150,peak=2000,warm=20,ramp=20,hold=40,"
             "decay=20,tail=200"),
    tenants=("gold:prio=0,share=3,mix=SK-M-0.5+NS-M-1f,streams=3,"
             "deadline=200;bronze:prio=2,share=1,mix=SK-M-0.5+NS-M-1f,"
             "streams=3,deadline=200"),
    count=160,
    config=dict(
        replicas=1, gpu_streams=1, scene_scale=0.1, slo_ms=50.0,
        max_batch_requests=4, queue_depth=16, breaker_failures=4,
        max_retries=3,
        # No batching window: a free replica dispatches what is queued,
        # so the first dispatch, which takes the one injected OOM, is
        # always the first request alone.
        batch_window_ms=0.0,
        autoscale=AutoscalePolicy(
            slo_ms=50.0, min_replicas=1, max_replicas=4, interval_ms=10.0,
            window_ms=60.0, cooldown_ms=40.0, warmup_ms=20.0,
        ),
    ),
    faults=dict(fail_rate=0.05, oom_rate=0.005),
    required=("shed", "scale_ups", "scale_downs", "retries", "oom_events"),
    # 160 requests, 10-50 of them shed: 16 or more above p85.
    tail=85,
)

WORKLOADS = {
    w.name: w
    for w in (OfflineInfer(), OfflineTrain(), SERVE_MULTISTREAM,
              SERVE_OVERLOAD)
}
