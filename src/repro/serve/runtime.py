"""The serving runtime: a deterministic, simulated-clock inference cluster.

Architecture (one `serve()` call = one serving run):

* a precomputed **request schedule** (from :mod:`repro.serve.traffic`)
  drives a discrete-event loop (:class:`_ServeLoop`) — events are request
  arrivals, device completions, batching-window and recovery timers,
  retry re-admissions and autoscaler ticks, all on one virtual clock;
* a bounded :class:`~repro.serve.batcher.RequestQueue`, ordered by
  priority class then admission order, applies admission control
  (overflowing arrivals are shed, lowest priority first; optionally,
  queued requests older than ``timeout_ms`` are dropped), and a
  :class:`~repro.serve.batcher.DynamicBatcher` groups queued requests
  under a point budget and deadline window;
* **N device replicas** (:class:`DeviceReplica`) serve batches; a pluggable
  :class:`~repro.serve.balancer.LoadBalancer` decides which replica a batch
  lands on (round-robin, least-loaded, join-shortest-queue, or
  cache-affinity routing onto warm kernel-map state).  Each batch executes
  the workload's model through an
  :class:`~repro.nn.context.ExecutionContext` in ``simulate_only`` mode,
  and :mod:`repro.gpusim` turns the trace into the batch's service time;
* a deterministic **fault model** (:mod:`repro.serve.faults`) may stall
  replicas (they drain in-flight work and rejoin on recovery), fail
  batches transiently, and skew per-replica speed; failed requests are
  retried with exponential backoff up to ``max_retries`` and batches
  predicted to run long can be **hedged** onto a second replica, taking
  whichever copy finishes first;
* a cluster-global :class:`~repro.serve.cache.PolicyCache` holds tuned
  :class:`~repro.nn.context.GroupPolicy` objects (pre-warmed from
  ``python -m repro tune`` output, or read from and tuned in the
  background into a persistent :class:`~repro.tune.cache.PolicyStore`),
  while each replica owns a private
  :class:`~repro.serve.cache.KmapCache` — warm map state lives in one
  device's memory, which is what cache-affinity routing exploits;
* when the policy cache misses, the batch is served with the untuned
  default :class:`LayerConfig` instead of waiting for a tuner run —
  graceful degradation, counted and reported.

Nothing reads a wall clock, and every fault decision is a seeded pure
function of the schedule: a fixed configuration yields bit-identical
metrics on every run, faults included.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import random
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import AdmissionError, ConfigError, SimulatedOOMError
from repro.gpusim.engine import (
    enforce_memory_budget,
    launch_kind,
    memory_budget_bytes,
)
from repro.hw.specs import DeviceSpec, get_device
from repro.models.registry import Workload, get_workload
from repro.nn.context import ExecutionContext, FixedPolicy, GroupPolicy, LayerConfig
from repro.nn.module import Module
from repro.precision import Precision
from repro.serve.admission import RetryBudget, TenantSpec, TokenBucket
from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.balancer import BALANCERS, get_balancer
from repro.serve.batcher import DynamicBatcher, RequestQueue
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import KmapCache, KmapEntry, PolicyCache, PolicyKey
from repro.serve.faults import NO_FAULTS, FaultInjector, FaultPlan
from repro.serve.metrics import ServingMetrics, compute_metrics
from repro.serve.request import InferenceRequest, RequestOutcome, RequestStatus
from repro.resilience import (
    DegradationLadder,
    ExecState,
    ladder_footprint,
    model_weight_bytes,
)
from repro.sparse.tensor import SparseTensor
from repro.tune.cache import PolicyStore, StoreEntry
from repro.tune.tuner import SparseAutotuner, TuningReport


def tuning_samples(
    workload: Workload, scale: float, scenes: int = 1, seed_base: int = 9000
) -> List[SparseTensor]:
    """The scenes a serving tuner run tunes on: ``scenes`` samples of
    ``workload`` at ``scale``, seeded ``seed_base`` upwards."""
    from repro.data.datasets import make_sample

    return [
        make_sample(
            workload.dataset, frames=workload.frames, seed=seed_base + i,
            scale=scale,
        )
        for i in range(scenes)
    ]


#: Fixed host-side cost per batch dispatch (scheduler decision, output
#: routing), in us.
DISPATCH_OVERHEAD_US = 150.0
#: Per-request voxelization/feature cost, in us per scene point.
PREPROCESS_US_PER_POINT = 0.002
#: Simulated latency of one background tuner run on a worker thread; the
#: tuned policy installs once the virtual clock passes it.
BACKGROUND_TUNE_MS = 25.0
#: Sample scenes per tuner run (warm-up or background), generated from
#: seed 9000 upwards.
TUNE_SCENES = 1


#: :class:`ServeConfig` fields that must be ``>= 0``.
_NON_NEGATIVE_FIELDS = frozenset({
    "max_retries", "retry_backoff_ms", "timeout_ms", "hedge_ms",
    "breaker_failures", "slo_ms",
})


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Configuration of one serving runtime.

    Attributes:
        device / precision: the simulated GPU replicas and numeric
            precision every batch runs at.
        replicas: number of identical device replicas.
        balancer: replica-selection policy; one of
            :data:`repro.serve.balancer.BALANCERS` (``round_robin``,
            ``least_loaded``, ``jsq``, ``cache_affinity``).
        replica_queue_depth: in-flight batches one replica may hold; 1
            dispatches only to idle replicas, >1 lets load-aware balancers
            pipeline work behind busy replicas.
        queue_depth: admission-control bound; arrivals past it are shed.
        point_budget / max_batch_requests / batch_window_ms: dynamic
            batching knobs (see :class:`DynamicBatcher`).
        kmap_cache_size: LRU capacity of each replica's kernel-map reuse
            cache, in scenes.
        scene_scale: azimuth-resolution scale of generated scenes — a
            wall-clock knob only (simulated numbers scale with it but
            stay internally consistent; comparisons hold at any scale).
        faults: injected failure model (:class:`FaultPlan`); None serves
            a healthy cluster.
        max_retries: re-dispatches granted to a request whose batch fails
            transiently; past it the request's status is ``FAILED``.
        retry_backoff_ms: base of the exponential retry backoff — attempt
            ``k`` waits ``retry_backoff_ms * 2**(k-1)`` after the failure.
        timeout_ms: drop queued requests older than this (``TIMED_OUT``);
            0 disables timeouts.  In-flight requests always resolve.
        hedge_ms: duplicate a batch onto a second replica when its
            predicted service time exceeds this (tail-latency hedging;
            the earlier copy wins); 0 disables hedging.
        tuning_db: path to a persistent policy store
            (:class:`repro.tune.cache.PolicyStore`), keyed like the
            policy cache.  When set, a policy-cache miss looks the key up
            in the store: a stored policy serves the batch tuned at
            once; on a store miss the runtime runs the same
            :class:`~repro.tune.SparseAutotuner` call as
            :meth:`ServingRuntime.warm_policy`, banks the result in the
            store, and serves degraded until the tuned policy installs
            :data:`BACKGROUND_TUNE_MS` later on the virtual clock.  The path
            need not exist yet (a cold replica starts empty); use
            :meth:`ServingRuntime.save_tuning_db` to persist what was
            learned.
        lint_admission: statically lint every model at admission
            (:func:`repro.analyze.lint_model`) and reject models with
            error-level findings (:class:`~repro.errors.AdmissionError`)
            before any replica accepts traffic for them.  Only the
            per-model rules run here; cache-key audits are global and
            run in ``repro keycheck``.
        gpu_streams: virtual GPU streams each replica overlaps
            independent kernel launches on; ``> 1`` prices every batch
            with the dependence-aware multi-stream scheduler
            (:mod:`repro.opt.schedule`) instead of serializing launches,
            and simulates every batch whole; on one stream batch costs
            compose from per-sample memo entries.
        mem_headroom: fraction of each replica's DRAM reserved for what
            the simulator does not trace (CUDA context, fragmentation);
            the usable budget is ``dram_bytes * (1 - mem_headroom)``.  A
            batch whose modeled peak exceeds its replica's budget raises
            a simulated OOM and is recovered in place via the degradation
            ladder (:mod:`repro.resilience`); admission rejects models
            whose static weight footprint alone exceeds the smallest
            replica budget.
        tenants: the tenant roster (:class:`TenantSpec`); empty serves a
            single implicit ``"default"`` tenant.  Tenants bring per-tenant
            quotas (token buckets), priority classes and retry budgets.
        priority_shedding: shed lowest-priority-first under queue
            pressure (an arriving higher-class request displaces the
            youngest worst-class queued request) instead of dropping
            arrivals FIFO-style.  Only takes effect when the schedule
            actually carries more than one priority class.
        retry_jitter: multiply every retry backoff by a seeded factor in
            ``[0.5, 1.5)`` so synchronized failures do not re-arrive as a
            synchronized retry wave.  Deterministic per (seed, request,
            attempt); disable for the legacy fixed-backoff behaviour.
        retry_budget: default retries-per-success ratio of every tenant
            that does not set its own; negative disables retry budgets.
        breaker_failures: consecutive batch failures that open a
            replica's circuit breaker (balancers then skip it for
            ``breaker_cooldown_ms``, after which one half-open probe
            decides re-close vs re-open); 0 disables breakers.
        breaker_cooldown_ms: OPEN-state duration before the probe.
        autoscale: SLO-driven autoscaling policy
            (:class:`~repro.serve.autoscale.AutoscalePolicy`); None keeps
            the fleet static at ``replicas``.
        slo_ms: latency target requests are judged against in the SLO
            attainment metrics (and by the autoscaler when active); 0
            judges each request against its own deadline.
    """

    device: str = "a100"
    precision: str = "fp16"
    replicas: int = 1
    balancer: str = "round_robin"
    replica_queue_depth: int = 1
    queue_depth: int = 32
    point_budget: int = 400_000
    max_batch_requests: int = 8
    batch_window_ms: float = 10.0
    kmap_cache_size: int = 16
    scene_scale: float = 0.25
    faults: Optional[FaultPlan] = None
    max_retries: int = 0
    retry_backoff_ms: float = 5.0
    timeout_ms: float = 0.0
    hedge_ms: float = 0.0
    tuning_db: Optional[str] = None
    lint_admission: bool = True
    mem_headroom: float = 0.1
    gpu_streams: int = 1
    tenants: Tuple[TenantSpec, ...] = ()
    priority_shedding: bool = True
    retry_jitter: bool = True
    retry_budget: float = -1.0
    breaker_failures: int = 0
    breaker_cooldown_ms: float = 250.0
    autoscale: Optional[AutoscalePolicy] = None
    slo_ms: float = 0.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
            if field.name in _NON_NEGATIVE_FIELDS and value < 0:
                raise ConfigError(f"{field.name} must be >= 0, got {value}")
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.gpu_streams < 1:
            raise ConfigError(
                f"gpu_streams must be >= 1, got {self.gpu_streams}"
            )
        if self.balancer not in BALANCERS:
            raise ConfigError(
                f"unknown balancer {self.balancer!r}; known balancers: "
                f"{', '.join(sorted(BALANCERS))}"
            )
        if self.replica_queue_depth < 1:
            raise ConfigError(
                f"replica_queue_depth must be >= 1, "
                f"got {self.replica_queue_depth}"
            )
        if self.tuning_db is not None and not str(self.tuning_db).strip():
            raise ConfigError("tuning_db path must be non-empty when set")
        if not 0.0 <= self.mem_headroom < 1.0:
            raise ConfigError(
                f"mem_headroom must be in [0, 1), got {self.mem_headroom}"
            )
        names = [t.name for t in self.tenants]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate tenant names in roster: {names}")
        if self.breaker_cooldown_ms <= 0:
            raise ConfigError(
                f"breaker_cooldown_ms must be positive, "
                f"got {self.breaker_cooldown_ms}"
            )


@dataclasses.dataclass
class DeviceReplica:
    """One simulated device with its own clock, queue and warm map cache.

    The lifecycle fields support autoscaling: ``provisioned_at_ms`` marks
    when the replica joined the fleet (0 for the static fleet), a
    draining replica accepts no new batches, and ``retired_at_ms`` is set
    once its in-flight work resolved and it left the fleet.  ``breaker``
    is the replica's circuit breaker when breakers are enabled.
    """

    index: int
    spec: DeviceSpec
    busy_ms: float = 0.0
    batches: int = 0
    inflight: int = 0
    free_at_ms: float = 0.0
    kmap_cache: KmapCache = dataclasses.field(default_factory=KmapCache)
    failures: int = 0
    retries_served: int = 0
    hedges_served: int = 0
    ooms: int = 0
    breaker: Optional[CircuitBreaker] = None
    provisioned_at_ms: float = 0.0
    draining: bool = False
    retired_at_ms: Optional[float] = None

    @property
    def retired(self) -> bool:
        return self.retired_at_ms is not None


@dataclasses.dataclass(frozen=True)
class _BatchCost:
    """Result of one batch's (simulated) model execution.

    Everything downstream of :meth:`ServingRuntime._execute`'s expensive
    portion — service time, stage breakdown, OOM/ladder outcome and the
    per-scene kernel-map charge keys — as a pure value, returned by both
    :meth:`ServingRuntime._compose_cost` and
    :meth:`ServingRuntime._execute_cold`.
    """

    service_ms: float  # model + ladder retry + preprocess (no dispatch)
    stages: Tuple[Tuple[str, float], ...]
    ladder: Tuple[str, ...]
    sync_events: int
    oomed: bool
    degraded: bool
    #: Charge keys of each scene the execution cold-filled, keyed by
    #: scene (a scene repeated in the batch fills once).
    charges: Tuple[Tuple[tuple, FrozenSet[tuple]], ...]


@dataclasses.dataclass(frozen=True)
class _BatchRun:
    """One batch served by :meth:`ServingRuntime._execute`."""

    service_ms: float  # including dispatch overhead
    policy_hit: bool
    degraded: bool
    kmap_hits: List[bool]  # per request, in batch order
    stages: Dict[str, float]  # stage breakdown in us
    ladder: Tuple[str, ...]  # degradation-ladder rungs taken
    sync_events: int


@dataclasses.dataclass(frozen=True)
class _SampleCost:
    """Memoized single-sample simulation at a fixed cache warmth.

    On one GPU stream the simulated trace serializes, so every batch
    quantity is a per-sample sum (latency, stage breakdown, preprocess,
    co-resident feature bytes) or max (liveness-aware peak workspace) —
    scene charge keys are per-kernel-map and disjoint across scenes, so
    a sample's cost is independent of its batchmates.  Batch costs
    compose from these (:meth:`ServingRuntime._compose_cost`), which
    collapses the memo space from "every distinct batch composition"
    to "every distinct (scene, warmth)".
    """

    latency_us: float
    stages: Tuple[Tuple[str, float], ...]
    preprocess_us: float
    feature_bytes: float
    peak_workspace_bytes: float
    charge: FrozenSet[tuple]  # keys a cold fill would record (empty if warm)


@dataclasses.dataclass
class _Attempt:
    """One dispatch of a batch onto one replica (primary or hedge copy)."""

    replica: DeviceReplica
    batch_id: int
    start_ms: float
    finish_ms: float
    service_ms: float
    failed: bool
    policy_hit: bool
    degraded: bool
    kmap_hits: List[bool]
    ladder: Tuple[str, ...] = ()


class SceneProvider:
    """Materialises (and memoises) request scenes.

    Frames of one stream share a ``scene_seed``, so they resolve to the
    *same* :class:`SparseTensor` — its ``MapCache`` then carries kernel
    maps across requests, mirroring an engine that keeps per-stream map
    state resident.
    """

    def __init__(self, scale: float):
        self.scale = scale
        self._samples: Dict[tuple, SparseTensor] = {}

    def sample(self, workload: Workload, request: InferenceRequest) -> SparseTensor:
        key = request.scene_key
        if key not in self._samples:
            from repro.data.datasets import make_sample

            self._samples[key] = make_sample(
                workload.dataset,
                frames=workload.frames,
                seed=request.scene_seed,
                scale=self.scale,
            )
        return self._samples[key]


@dataclasses.dataclass
class ServeResult:
    """Everything one serving run produced."""

    config: ServeConfig
    outcomes: List[RequestOutcome]
    metrics: ServingMetrics

    def describe(self) -> str:
        parts = [self.metrics.to_table(), self.metrics.stage_table()]
        if self.metrics.per_replica:
            parts.append(self.metrics.cluster_table())
        tenants = self.metrics.per_tenant
        if tenants and (
            len(tenants) > 1 or tenants[0].get("tenant") != "default"
        ):
            parts.append(self.metrics.tenant_table())
        return "\n\n".join(parts)


class ServingRuntime:
    """Request-driven serving over a cluster of simulated device replicas."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        policy_cache: Optional[PolicyCache] = None,
    ):
        self.config = config or ServeConfig()
        self.device = get_device(self.config.device)
        self.precision = Precision.parse(self.config.precision)
        self.policy_cache = policy_cache or PolicyCache()
        self.scenes = SceneProvider(scale=self.config.scene_scale)
        self.default_config = LayerConfig()
        self.ladder = DegradationLadder()
        self.memory_budget = memory_budget_bytes(
            self.device, self.config.mem_headroom
        )
        self._models: Dict[str, Module] = {}
        #: Persistent policy store (only when config.tuning_db is set).
        self.tuning_db: Optional[PolicyStore] = None
        if self.config.tuning_db is not None:
            self.tuning_db = PolicyStore.load_or_create(self.config.tuning_db)
        #: Pending background tunes: policy key -> (completes_at_ms, policy).
        self._bg_tunes: Dict[PolicyKey, Tuple[float, GroupPolicy]] = {}
        self.background_tunes = 0
        #: Virtual time the first batch was served with a tuned policy.
        self.first_tuned_ms: Optional[float] = None
        #: Per-workload reason the degradation ladder must not drop
        #: storage precision (static value-range pass), None when safe.
        self._precision_vetoes: Dict[str, Optional[str]] = {}
        #: Per-sample simulation memo backing :meth:`_compose_cost`:
        #: (workload, scene, warmth, policy version, degraded) ->
        #: :class:`_SampleCost`.
        self._sample_memo: Dict[tuple, _SampleCost] = {}
        #: Static weight footprint per admitted workload (:meth:`_admit`).
        self._weight_bytes: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    def _admit(self, workload_id: str, model: Module, in_channels: int) -> None:
        """Admission control: statically lint the model for this runtime's
        device/precision and reject error-level findings before any
        replica accepts traffic (the load-time check the static analyzer
        exists for — a bad model should fail admission, not crash
        mid-batch).  Memory-aware admission is unconditional: a model
        whose static weight footprint — a lower bound on any execution's
        resident memory, before a single feature is allocated — already
        exceeds the smallest replica budget can never be served, not even
        by the bottom of the degradation ladder."""
        weights = model_weight_bytes(model, self.precision)
        if weights > self.memory_budget:
            raise AdmissionError(
                f"model for {workload_id!r} rejected at admission: static "
                f"weight footprint {weights / (1 << 30):.3f} GiB exceeds "
                f"the replica memory budget "
                f"{self.memory_budget / (1 << 30):.3f} GiB on "
                f"{self.device.name} (headroom "
                f"{self.config.mem_headroom:.0%})"
            )
        self._weight_bytes[workload_id] = weights
        # Static value-range pass: decide once, at admission, whether the
        # degradation ladder may ever take its precision-drop rung for
        # this model (an unsafe drop would overflow fp16 features and
        # break the degraded-results error bound).
        from repro.analyze import precision_drop_veto, trace_model

        ir = None
        try:
            ir = trace_model(model, in_channels=in_channels)
            self._precision_vetoes[workload_id] = precision_drop_veto(ir)
        except Exception:
            # Untraceable model: be conservative, forbid the drop.
            self._precision_vetoes[workload_id] = (
                "value-range pass could not trace the model"
            )
        if not self.config.lint_admission:
            return
        from repro.analyze import Severity, lint_model

        findings = lint_model(
            model,
            in_channels=in_channels,
            device=self.device,
            precision=self.precision,
            collect_trace=True,
            ir=ir,
        )
        errors = [f for f in findings if f.severity is Severity.ERROR]
        if errors:
            details = "; ".join(
                f"{f.rule} at {f.path}: {f.message}" for f in errors[:3]
            )
            raise AdmissionError(
                f"model for {workload_id!r} rejected at admission with "
                f"{len(errors)} error-level lint finding(s): {details}"
            )

    def model(self, workload_id: str) -> Module:
        if workload_id not in self._models:
            workload = get_workload(workload_id)
            model = workload.build_model()
            model.eval()
            self._admit(
                workload_id, model, workload.dataset_config.in_channels
            )
            self._models[workload_id] = model
        return self._models[workload_id]

    def register_model(
        self, workload_id: str, model: Module, in_channels: int = 4
    ) -> Module:
        """Admit a caller-supplied model (serving stacks deploying custom
        networks); linted like any bundled workload."""
        model.eval()
        self._admit(workload_id, model, in_channels)
        self._models[workload_id] = model
        return model

    def policy_key(self, workload_id: str) -> PolicyKey:
        return PolicyCache.make_key(
            get_workload(workload_id).id, self.device.name, self.precision.value
        )

    def _tune(
        self, workload_id: str, seed_base: int = 9000
    ) -> Tuple[GroupPolicy, TuningReport]:
        """The runtime's one tuner call: :class:`SparseAutotuner` on
        :data:`TUNE_SCENES` scenes from ``seed_base``."""
        samples = tuning_samples(
            get_workload(workload_id),
            self.config.scene_scale,
            TUNE_SCENES,
            seed_base,
        )
        return SparseAutotuner().tune(
            self.model(workload_id), samples, self.device, self.precision
        )

    def warm_policy(self, workload_id: str, seed_base: int = 9000) -> GroupPolicy:
        """Tune the workload's model now and install the policy (offline
        pre-warming — the ``python -m repro tune`` path, inlined)."""
        policy, _ = self._tune(workload_id, seed_base)
        return self.policy_cache.put(self.policy_key(workload_id), policy)

    def warm_policy_from_file(self, workload_id: str, path) -> GroupPolicy:
        """Install a policy saved by ``python -m repro tune --output``."""
        return self.policy_cache.warm_from_file(self.policy_key(workload_id), path)

    def save_tuning_db(self, path=None) -> None:
        """Persist the policy store (atomic write)."""
        if self.tuning_db is None:
            raise ConfigError(
                "no policy store active; set ServeConfig.tuning_db"
            )
        target = path if path is not None else self.config.tuning_db
        self.tuning_db.save(target)

    # ------------------------------------------------------------------ #
    def _resolve_policy(
        self, batch: Sequence[InferenceRequest], now: float
    ) -> Tuple[object, bool, bool]:
        """Returns (policy, hit, degraded)."""
        workload_id = batch[0].workload_id
        key = self.policy_key(workload_id)
        # Background tunes whose virtual deadline has passed install first.
        for pending_key in list(self._bg_tunes):
            completes_at, tuned = self._bg_tunes[pending_key]
            if now >= completes_at:
                self.policy_cache.put(pending_key, tuned)
                del self._bg_tunes[pending_key]
        policy = self.policy_cache.get(key)
        if policy is not None:
            if self.first_tuned_ms is None:
                self.first_tuned_ms = now
            return policy, True, False
        if self.tuning_db is not None and key not in self._bg_tunes:
            entry = self.tuning_db.get(key)
            if entry is not None:
                # Store hit: the batch is served tuned with no tuning
                # latency at all.
                self.policy_cache.put(key, entry.policy)
                if self.first_tuned_ms is None:
                    self.first_tuned_ms = now
                return entry.policy, False, False
            # Store miss: tune now and bank the result, but model the
            # tuner as a background job — the policy installs after
            # BACKGROUND_TUNE_MS on the virtual clock; this batch degrades.
            tuned, report = self._tune(workload_id)
            self.tuning_db.put(key, StoreEntry(tuned, report.end_to_end_us))
            self.background_tunes += 1
            self._bg_tunes[key] = (
                now + BACKGROUND_TUNE_MS, tuned
            )
            return FixedPolicy(self.default_config), False, True
        # Graceful degradation: serve with the untuned default config.
        return FixedPolicy(self.default_config), False, True

    def _execute(
        self,
        batch: Sequence[InferenceRequest],
        now: float,
        replica: DeviceReplica,
        forced_oom: bool = False,
    ) -> _BatchRun:
        """Run one batch on ``replica``.

        Kernel-map reuse is against *the replica's own* cache: a stream's
        warm state helps only the replica that built it.

        Memory enforcement: the batch's modeled peak (resident weights and
        features plus the trace's liveness-aware peak workspace) is checked
        against the replica's budget.  On a simulated OOM — natural or
        injected via ``forced_oom`` — the batch is *recovered in place*:
        the degradation ladder plans a lower-footprint configuration
        (kernel maps stay warm across the retry) and the batch re-executes,
        its requests resolving DEGRADED instead of FAILED.
        """
        workload_id = batch[0].workload_id
        workload = get_workload(workload_id)
        model = self.model(workload_id)
        policy, policy_hit, degraded = self._resolve_policy(batch, now)
        kmap_cache = replica.kmap_cache
        samples = [self.scenes.sample(workload, r) for r in batch]
        # One GPU stream and no possible eviction: per-scene costs are
        # independent of batchmates and batch order, so the batch cost
        # composes from per-sample memo entries.  Pure — the get/put
        # sequence is replayed below from the recorded charge keys.
        cost: Optional[_BatchCost] = None
        if self.config.gpu_streams == 1 and not kmap_cache.may_evict(
            [r.scene_key for r in batch]
        ):
            cost = self._compose_cost(
                batch, samples, kmap_cache, model, workload_id, policy,
                degraded, replica.spec, forced_oom,
            )
        if cost is None:
            cost, kmap_hits = self._execute_cold(
                batch, samples, kmap_cache, model, workload_id, policy,
                degraded, replica.spec, forced_oom,
            )
        else:
            # Replay the cold execution's cache sequence (same gets, same
            # fills from the per-scene charge keys), so cache accounting
            # and future warmth match having simulated the batch whole.
            charge_by_scene = dict(cost.charges)
            kmap_hits = []
            for request, sample in zip(batch, samples):
                entry = kmap_cache.get(request.scene_key)
                hit = entry is not None
                kmap_hits.append(hit)
                if not hit:
                    kmap_cache.put(
                        request.scene_key,
                        KmapEntry(
                            sample=sample,
                            charge_keys=charge_by_scene.get(
                                request.scene_key, frozenset()
                            ),
                        ),
                    )
        if cost.oomed:
            replica.ooms += 1
        stages = dict(cost.stages)
        stages["host/dispatch"] = DISPATCH_OVERHEAD_US
        service_ms = cost.service_ms + DISPATCH_OVERHEAD_US / 1e3
        return _BatchRun(
            service_ms=service_ms,
            policy_hit=policy_hit,
            degraded=cost.degraded,
            kmap_hits=kmap_hits,
            stages=stages,
            ladder=cost.ladder,
            sync_events=cost.sync_events,
        )

    def _compose_cost(
        self,
        batch: Sequence[InferenceRequest],
        samples: List[SparseTensor],
        kmap_cache: KmapCache,
        model: Module,
        workload_id: str,
        policy: object,
        degraded: bool,
        spec: DeviceSpec,
        forced_oom: bool,
    ) -> Optional[_BatchCost]:
        """Compose a batch's :class:`_BatchCost` from per-sample memo
        entries (valid only on one GPU stream when no put in the batch
        can evict).  Pure — no cache mutation; the caller replays the
        get/put sequence.  Returns ``None`` when the batch needs the full
        path: an injected OOM, or a modeled peak over budget (the
        degradation ladder re-executes the whole batch).
        """
        if forced_oom:
            return None
        version = self.policy_cache.version
        filled: Dict[tuple, FrozenSet[tuple]] = {}
        charges: List[Tuple[tuple, FrozenSet[tuple]]] = []
        latency_us = 0.0
        stages: Dict[str, float] = {}
        preprocess_us = 0.0
        feature_bytes = 0.0
        peak_workspace = 0.0
        for request, sample in zip(batch, samples):
            key = request.scene_key
            entry = kmap_cache.peek(key)
            warmth = (
                entry.charge_keys if entry is not None else filled.get(key)
            )
            sample_key = (workload_id, key, warmth, version, degraded)
            cost = self._sample_memo.get(sample_key)
            if cost is None:
                cost = self._simulate_sample(
                    sample, model, policy, degraded, warmth
                )
                self._sample_memo[sample_key] = cost
            if entry is None and key not in filled:
                filled[key] = cost.charge
                charges.append((key, cost.charge))
            latency_us += cost.latency_us
            for stage, us in cost.stages:
                stages[stage] = stages.get(stage, 0.0) + us
            preprocess_us += cost.preprocess_us
            feature_bytes += cost.feature_bytes
            peak_workspace = max(peak_workspace, cost.peak_workspace_bytes)
        budget = memory_budget_bytes(spec, self.config.mem_headroom)
        resident = self._weight_bytes[workload_id] + feature_bytes
        if peak_workspace + resident > budget:
            return None
        stages["host/preprocess"] = preprocess_us
        return _BatchCost(
            service_ms=(latency_us + preprocess_us) / 1e3,
            stages=tuple(stages.items()),
            ladder=(),
            sync_events=0,
            oomed=False,
            degraded=degraded,
            charges=tuple(charges),
        )

    def _forward(
        self, model: Module, sample: SparseTensor, ctx: ExecutionContext
    ) -> float:
        """Run ``sample`` through ``model`` in ``ctx``; returns the
        sample's feature peak, the largest live (input + output)
        activation pair along the network."""
        start = len(ctx.layers)
        model(sample, ctx)
        itemsize = ctx.precision.itemsize
        return max(
            (record.feature_bytes(itemsize) for record in ctx.layers[start:]),
            default=0.0,
        )

    def _simulate_sample(
        self,
        sample: SparseTensor,
        model: Module,
        policy: object,
        degraded: bool,
        warmth: Optional[FrozenSet[tuple]],
    ) -> _SampleCost:
        """Simulate one sample in a fresh context at the given warmth.

        Scene charge keys are disjoint, so a fresh context pre-charged
        with the scene's own keys reproduces exactly the launches the
        sample would contribute to a shared batch context.
        """
        ctx = ExecutionContext(
            device=self.device,
            precision=self.precision,
            policy=policy,
            simulate_only=True,
            adaptive_tiling=not degraded,
            gpu_streams=self.config.gpu_streams,
        )
        if warmth:
            ctx.precharge(warmth)
        feature_bytes = self._forward(model, sample, ctx)
        run = ctx.execution()
        return _SampleCost(
            latency_us=run.latency_us,
            stages=tuple(run.split_us(launch_kind).items()),
            preprocess_us=PREPROCESS_US_PER_POINT * sample.num_points,
            feature_bytes=feature_bytes,
            peak_workspace_bytes=ctx.trace.summary().peak_workspace_bytes,
            charge=(
                frozenset() if warmth is not None
                else frozenset(ctx.charged_keys())
            ),
        )

    def _execute_cold(
        self,
        batch: Sequence[InferenceRequest],
        samples: List[SparseTensor],
        kmap_cache: KmapCache,
        model: Module,
        workload_id: str,
        policy: object,
        degraded: bool,
        spec: DeviceSpec,
        forced_oom: bool,
    ) -> Tuple[_BatchCost, List[bool]]:
        """Actually simulate one batch; returns (:class:`_BatchCost`,
        per-request kmap hits)."""
        ctx = ExecutionContext(
            device=self.device,
            precision=self.precision,
            policy=policy,
            simulate_only=True,
            adaptive_tiling=not degraded,
            gpu_streams=self.config.gpu_streams,
        )
        filled: Dict[tuple, FrozenSet[tuple]] = {}
        kmap_hits: List[bool] = []
        preprocess_us = 0.0
        feature_bytes = 0.0
        for request, sample in zip(batch, samples):
            key = request.scene_key
            entry = kmap_cache.get(key)
            hit = entry is not None
            kmap_hits.append(hit)
            if entry is not None:
                ctx.precharge(entry.charge_keys)
            before = ctx.charged_keys()
            sample_feature_bytes = self._forward(model, sample, ctx)
            if not hit:
                # A scene evicted and re-filled within this batch keeps
                # the charge its first fill recorded: the shared context
                # already paid those keys, so the difference is empty.
                charge = filled.setdefault(
                    key, frozenset(ctx.charged_keys() - before)
                )
                kmap_cache.put(
                    key, KmapEntry(sample=sample, charge_keys=charge)
                )
            preprocess_us += PREPROCESS_US_PER_POINT * sample.num_points
            feature_bytes += sample_feature_bytes  # batch members co-reside

        budget = memory_budget_bytes(spec, self.config.mem_headroom)
        resident = self._weight_bytes[workload_id] + feature_bytes
        ladder_taken: Tuple[str, ...] = ()
        retry_us = 0.0
        retry_sync_events = 0
        oomed = False
        try:
            peak = enforce_memory_budget(
                ctx.trace, spec,
                resident_bytes=resident, budget_bytes=budget,
            )
            if forced_oom:
                raise SimulatedOOMError(
                    f"injected OOM on {spec.name}",
                    peak_bytes=peak, budget_bytes=budget,
                )
        except SimulatedOOMError:
            oomed = True
            footprint = ladder_footprint(model, samples, spec)
            start = ExecState(
                config=self.default_config, precision=self.precision
            )
            effective = budget
            if forced_oom:
                # An injected fault must force real recovery even when the
                # true budget fits: cap it just under the start footprint
                # so at least one strictly-reducing rung is taken.
                effective = min(budget, footprint(start) * (1.0 - 1e-6))
            plan = self.ladder.plan(
                footprint,
                start,
                effective,
                precision_veto=self._precision_vetoes.get(workload_id),
            )
            ladder_taken = plan.taken
            retry = ExecutionContext(
                device=self.device,
                precision=plan.final.precision,
                policy=FixedPolicy(plan.final.config),
                simulate_only=True,
                gpu_streams=self.config.gpu_streams,
            )
            retry.precharge(ctx.charged_keys())  # maps survive the OOM
            for sample in samples:
                model(sample, retry)
            retry_run = retry.execution()
            retry_us = retry_run.latency_us
            retry_sync_events = retry_run.sync_events
            degraded = True

        run = ctx.execution()
        stages = run.split_us(launch_kind)
        stages["host/preprocess"] = preprocess_us
        if retry_us:
            stages["resilience/ladder"] = retry_us
        service_ms = (run.latency_us + retry_us + preprocess_us) / 1e3
        sync_events = run.sync_events + retry_sync_events
        return (
            _BatchCost(
                service_ms=service_ms,
                stages=tuple(stages.items()),
                ladder=ladder_taken,
                sync_events=sync_events,
                oomed=oomed,
                degraded=degraded,
                charges=tuple(filled.items()),
            ),
            kmap_hits,
        )

    # ------------------------------------------------------------------ #
    def serve(self, requests: Sequence[InferenceRequest]) -> ServeResult:
        """Run the discrete-event serving loop over ``requests``."""
        return _ServeLoop(self, requests).run()


#: Event kinds of :class:`_ServeLoop`, in handler-table order.
ARRIVAL, FREE, TIMER, RETRY, SCALE = range(5)


class _ServeLoop:
    """One serving run: the discrete-event loop behind
    :meth:`ServingRuntime.serve`.

    Events are ``(at, seq, kind, payload)`` heap entries on one virtual
    clock — request arrivals, replica completions (``FREE``), batching
    and recovery timers, retry re-admissions and autoscaler ticks — and
    ``seq`` (push order) breaks time ties, so a seeded run is
    byte-identical.  Each kind has a named handler; after every event the
    loop dispatches whatever queued work is ready.
    """

    def __init__(
        self, runtime: ServingRuntime, requests: Sequence[InferenceRequest]
    ):
        if not requests:
            raise ConfigError("serve() needs at least one request")
        config = runtime.config
        self.runtime = runtime
        self.config = config
        self.requests = requests
        self.balancer = get_balancer(config.balancer)
        self.plan = config.faults or NO_FAULTS
        self.first_arrival_ms = min(r.arrival_ms for r in requests)
        self.autoscaler = (
            Autoscaler(config.autoscale)
            if config.autoscale is not None else None
        )
        initial_replicas = config.replicas
        if config.autoscale is not None:
            initial_replicas = min(
                max(initial_replicas, config.autoscale.min_replicas),
                config.autoscale.max_replicas,
            )
        self.injector = FaultInjector(self.plan, initial_replicas)
        self.replicas: List[DeviceReplica] = []
        for _ in range(initial_replicas):
            self._add_replica(provisioned_at_ms=self.first_arrival_ms)
        self.replicas_peak = initial_replicas

        # Tenant state: roster (configured tenants plus any tenant names
        # the schedule carries that the roster does not), per-tenant token
        # buckets (only for metered tenants) and retry budgets.
        tenant_specs: Dict[str, TenantSpec] = {
            t.name: t for t in config.tenants
        }
        for request in requests:
            if request.tenant not in tenant_specs:
                tenant_specs[request.tenant] = TenantSpec(
                    name=request.tenant, priority=request.priority
                )
        self.buckets: Dict[str, TokenBucket] = {
            name: TokenBucket(spec.quota_rps, spec.quota_burst)
            for name, spec in tenant_specs.items()
            if spec.quota_rps > 0
        }
        self.budgets: Dict[str, RetryBudget] = {
            name: RetryBudget(
                spec.retry_budget if spec.retry_budget >= 0
                else config.retry_budget
            )
            for name, spec in tenant_specs.items()
        }

        self.queue = RequestQueue(max_depth=config.queue_depth)
        db = runtime.tuning_db
        self.db_hits_before = db.hits if db else 0
        self.db_misses_before = db.misses if db else 0
        self.bg_tunes_before = runtime.background_tunes
        self.batcher = DynamicBatcher(
            point_budget=config.point_budget,
            max_batch_requests=config.max_batch_requests,
            window_ms=config.batch_window_ms,
            scene_points=self._scene_points,
        )

        self.outcomes: Dict[int, RequestOutcome] = {}
        self.attempts: Dict[int, int] = {}
        self.depth_samples: List[Tuple[float, int]] = []
        self.stage_totals: Dict[str, float] = {}
        self.events: List[Tuple[float, int, int, Any]] = []
        self.timer_times: Set[float] = set()
        self.seq = 0
        for request in sorted(
            requests, key=lambda r: (r.arrival_ms, r.request_id)
        ):
            self._push(request.arrival_ms, ARRIVAL, request)
        self.arrivals_pending = len(requests)
        self.retries_pending = self.batch_counter = 0
        self.oom_events = self.ladder_steps = self.sync_events_total = 0
        self.end_ms = self.first_arrival_ms
        if config.autoscale is not None:
            self._push(
                self.first_arrival_ms + config.autoscale.interval_ms,
                SCALE, None,
            )

    # ------------------------------------------------------------------ #
    def run(self) -> ServeResult:
        handlers = (
            self._on_arrival, self._on_free, self._on_timer,
            self._on_retry, self._on_scale,
        )
        while self.events:
            now, _, kind, payload = heapq.heappop(self.events)
            self.end_ms = max(self.end_ms, now)
            handlers[kind](now, payload)
            self._try_dispatch(now)
        return self.result()

    def _push(self, at: float, kind: int, payload: Any) -> None:
        heapq.heappush(self.events, (at, self.seq, kind, payload))
        self.seq += 1

    def _push_timer(self, at: float) -> None:
        if at not in self.timer_times:
            self.timer_times.add(at)
            self._push(at, TIMER, None)

    def _add_replica(
        self, provisioned_at_ms: float, free_at_ms: float = 0.0
    ) -> None:
        config = self.config
        self.replicas.append(DeviceReplica(
            index=len(self.replicas),
            spec=self.runtime.device,
            kmap_cache=KmapCache(capacity=config.kmap_cache_size),
            breaker=(
                CircuitBreaker(
                    config.breaker_failures, config.breaker_cooldown_ms
                )
                if config.breaker_failures > 0 else None
            ),
            provisioned_at_ms=provisioned_at_ms,
            free_at_ms=free_at_ms,
        ))

    def _scene_points(self, request: InferenceRequest) -> int:
        workload = get_workload(request.workload_id)
        return self.runtime.scenes.sample(workload, request).num_points

    @property
    def _more_coming(self) -> bool:
        """Are arrivals or retries still scheduled?"""
        return self.arrivals_pending + self.retries_pending > 0

    # ------------------------------------------------------------------ #
    def _on_arrival(self, now: float, request: InferenceRequest) -> None:
        self.arrivals_pending -= 1
        bucket = self.buckets.get(request.tenant)
        if bucket is not None and not bucket.take(now):
            # Over quota: shed at arrival, before queue admission.
            self._resolve(RequestOutcome(
                request=request,
                status=RequestStatus.SHED,
                attempts=0,
                quota_denied=True,
            ))
        elif self.config.priority_shedding:
            victim = self.queue.admit_displacing(request)
            if victim is not None:
                self._resolve(RequestOutcome(
                    request=victim,
                    status=RequestStatus.SHED,
                    attempts=self.attempts.get(victim.request_id, 0),
                ))
        elif not self.queue.admit(request):
            self._resolve(RequestOutcome(
                request=request, status=RequestStatus.SHED, attempts=0
            ))
        self.depth_samples.append((now, len(self.queue)))

    def _on_free(self, now: float, payload: Tuple[int, bool]) -> None:
        replica_index, attempt_failed = payload
        freed = self.replicas[replica_index]
        freed.inflight -= 1
        if freed.breaker is not None:
            # Breakers observe at batch *resolution* time — when the
            # failure would actually surface to the router.
            if attempt_failed:
                freed.breaker.record_failure(now)
            else:
                freed.breaker.record_success(now)
        if freed.draining and freed.inflight == 0:
            freed.draining = False
            freed.retired_at_ms = now

    def _on_timer(self, now: float, payload: None) -> None:
        """A batching window or recovery time passed: the dispatch that
        follows every event is all a timer asks for.  Timers are pushed
        at or after the clock, so earlier times can no longer dedupe a
        push and are dropped."""
        self.timer_times = {t for t in self.timer_times if t >= now}

    def _on_retry(self, now: float, request: InferenceRequest) -> None:
        self.retries_pending -= 1
        timeout_ms = self.config.timeout_ms
        if timeout_ms > 0 and now - request.arrival_ms >= timeout_ms:
            self._resolve(RequestOutcome(
                request=request,
                status=RequestStatus.TIMED_OUT,
                attempts=self.attempts.get(request.request_id, 0),
            ))
        else:
            self.queue.requeue(request)
        self.depth_samples.append((now, len(self.queue)))

    def _on_scale(self, now: float, payload: None) -> None:
        policy, autoscaler = self.config.autoscale, self.autoscaler
        assert policy is not None and autoscaler is not None
        active = [
            r for r in self.replicas if not r.retired and not r.draining
        ]
        busy = sum(
            1 for r in active if r.inflight > 0 or r.free_at_ms > now
        )
        action = autoscaler.decide(
            now,
            replicas=len(active),
            queue_depth=len(self.queue),
            utilization=busy / len(active) if active else 1.0,
            batch_capacity=self.config.max_batch_requests,
        )
        if action == "up":
            # The new replica joins with cold kmap/policy warmth and is
            # unavailable for warmup_ms (model load, CUDA context); its
            # early batches pay cold-cache costs on top — warmup is real,
            # not free capacity.
            self._add_replica(
                provisioned_at_ms=now, free_at_ms=now + policy.warmup_ms
            )
            self.replicas_peak = max(self.replicas_peak, len(active) + 1)
        elif action == "down":
            # Drain the youngest replica (coldest caches on average); it
            # retires once in-flight work resolves.
            victim = max(
                active, key=lambda r: (r.provisioned_at_ms, r.index)
            )
            if victim.inflight == 0:
                victim.retired_at_ms = now
            else:
                victim.draining = True
        if (
            self._more_coming
            or len(self.queue) > 0
            or any(r.inflight for r in self.replicas)
        ):
            self._push(now + policy.interval_ms, SCALE, None)

    # ------------------------------------------------------------------ #
    def _slo_missed(self, outcome: RequestOutcome) -> bool:
        """Did the request miss the run's latency target?"""
        if not outcome.completed or outcome.finish_ms is None:
            return True
        target = (
            self.config.slo_ms if self.config.slo_ms > 0
            else outcome.request.deadline_ms
        )
        return outcome.finish_ms - outcome.request.arrival_ms > target

    def _resolve(self, outcome: RequestOutcome) -> None:
        """Record a terminal outcome; feeds the retry budget (each success
        accrues budget) and the autoscaler's window."""
        self.outcomes[outcome.request.request_id] = outcome
        if outcome.completed:
            budget = self.budgets.get(outcome.request.tenant)
            if budget is not None:
                budget.record_success()
        if self.autoscaler is not None and outcome.finish_ms is not None:
            self.autoscaler.observe(
                outcome.finish_ms,
                outcome.finish_ms - outcome.request.arrival_ms,
                outcome.request.priority,
                self._slo_missed(outcome),
            )

    def _candidates(
        self, now: float
    ) -> Tuple[List[DeviceReplica], Optional[float]]:
        """Replicas a batch may be dispatched to, and — when none are
        available — the earliest recovery time to retry at (a stall
        window's end or an open breaker's half-open probe time)."""
        out: List[DeviceReplica] = []
        recover: Optional[float] = None
        for replica in self.replicas:
            if replica.retired or replica.draining:
                continue
            until = self.injector.stalled_until(replica.index, now)
            if until is not None:  # draining: no new work until recovery
                recover = until if recover is None else min(recover, until)
                continue
            if replica.breaker is not None and not replica.breaker.allows(now):
                probe_at = replica.breaker.next_probe_at_ms()
                if probe_at is not None:
                    recover = (
                        probe_at if recover is None else min(recover, probe_at)
                    )
                continue
            if replica.inflight >= self.config.replica_queue_depth:
                continue
            out.append(replica)
        return out, recover

    def _run_attempt(
        self,
        batch: List[InferenceRequest],
        replica: DeviceReplica,
        now: float,
    ) -> _Attempt:
        """Occupy ``replica`` with one copy of ``batch``."""
        batch_id = self.batch_counter
        self.batch_counter += 1
        injector = self.injector
        ooms_before = replica.ooms
        run = self.runtime._execute(
            batch, now, replica, forced_oom=injector.batch_ooms(batch_id)
        )
        self.sync_events_total += run.sync_events
        if replica.ooms > ooms_before:
            self.oom_events += 1
            self.ladder_steps += len(run.ladder)
        service_ms = run.service_ms * injector.slow_factor(replica.index)
        failed = injector.batch_fails(batch_id)
        if failed:
            # The attempt errors out partway through; the replica still
            # burned a fraction of the batch's service time.
            service_ms *= self.plan.fail_cost_fraction
            replica.failures += 1
        start = max(now, replica.free_at_ms)
        finish = start + service_ms
        replica.free_at_ms = finish
        replica.busy_ms += service_ms
        replica.batches += 1
        replica.inflight += 1
        replica.retries_served += sum(
            1 for r in batch if self.attempts.get(r.request_id, 0) > 1
        )
        if replica.breaker is not None:
            replica.breaker.on_dispatch()
        for stage, us in run.stages.items():
            self.stage_totals[stage] = self.stage_totals.get(stage, 0.0) + us
        self._push(finish, FREE, (replica.index, failed))
        return _Attempt(
            replica=replica,
            batch_id=batch_id,
            start_ms=start,
            finish_ms=finish,
            service_ms=service_ms,
            failed=failed,
            policy_hit=run.policy_hit,
            degraded=run.degraded,
            kmap_hits=run.kmap_hits,
            ladder=run.ladder,
        )

    def _dispatch(self, batch: List[InferenceRequest], now: float) -> None:
        """Balance, optionally hedge, then resolve or schedule retries."""
        config = self.config
        attempts = self.attempts
        for request in batch:
            attempts[request.request_id] = (
                attempts.get(request.request_id, 0) + 1
            )
        cands, _ = self._candidates(now)
        primary = self.balancer.select(cands, batch, now)
        first = self._run_attempt(batch, primary, now)
        hedge: Optional[_Attempt] = None
        if config.hedge_ms > 0 and first.service_ms > config.hedge_ms:
            spare = [
                r for r in cands
                if r is not primary
                and r.inflight < config.replica_queue_depth
            ]
            if spare:
                second = min(
                    spare,
                    key=lambda r: (
                        max(r.free_at_ms - now, 0.0), r.busy_ms, r.index
                    ),
                )
                hedge = self._run_attempt(batch, second, now)
                second.hedges_served += 1

        tries = [a for a in (first, hedge) if a is not None]
        winners = [a for a in tries if not a.failed]
        if winners:
            winner = min(winners, key=lambda a: (a.finish_ms, a.batch_id))
            for request, kmap_hit in zip(batch, winner.kmap_hits):
                self._resolve(RequestOutcome(
                    request=request,
                    status=(
                        RequestStatus.DEGRADED
                        if winner.degraded
                        else RequestStatus.COMPLETED
                    ),
                    start_ms=winner.start_ms,
                    finish_ms=winner.finish_ms,
                    batch_id=winner.batch_id,
                    batch_size=len(batch),
                    replica=winner.replica.index,
                    policy_hit=winner.policy_hit,
                    kmap_hit=kmap_hit,
                    service_ms=winner.service_ms,
                    attempts=attempts[request.request_id],
                    hedged=hedge is not None,
                    hedge_won=hedge is not None and winner is hedge,
                    ladder=winner.ladder,
                ))
            return
        # Every copy failed: the error surfaces once the last copy
        # resolves; retry after exponential backoff — if the tenant's
        # retry budget grants one — or give up.
        resolved = max(a.finish_ms for a in tries)
        last = max(tries, key=lambda a: (a.finish_ms, a.batch_id))
        for request in batch:
            tried = attempts[request.request_id]
            budget_denied = False
            if tried <= config.max_retries:
                budget = self.budgets.get(request.tenant)
                if budget is None or budget.allow():
                    backoff = config.retry_backoff_ms * (2 ** (tried - 1))
                    if config.retry_jitter:
                        # Seeded per (request, attempt): spreads a failure
                        # wave's retries over [0.5, 1.5) of the base
                        # backoff without losing determinism.
                        backoff *= 0.5 + random.Random(
                            f"{self.plan.seed}/retryjitter/"
                            f"{request.request_id}/{tried}"
                        ).random()
                    self._push(resolved + backoff, RETRY, request)
                    self.retries_pending += 1
                    continue
                budget_denied = True
            self._resolve(RequestOutcome(
                request=request,
                status=RequestStatus.FAILED,
                start_ms=last.start_ms,
                finish_ms=resolved,
                batch_id=last.batch_id,
                batch_size=len(batch),
                replica=last.replica.index,
                service_ms=last.service_ms,
                attempts=tried,
                hedged=hedge is not None,
                budget_exhausted=budget_denied,
            ))

    def _try_dispatch(self, now: float) -> None:
        """Time out stale queued requests, dispatch every ready batch, and
        arm a timer for the next batching decision."""
        queue, batcher = self.queue, self.batcher
        if self.config.timeout_ms > 0:
            for request in queue.expire(now, self.config.timeout_ms):
                self._resolve(RequestOutcome(
                    request=request,
                    status=RequestStatus.TIMED_OUT,
                    attempts=self.attempts.get(request.request_id, 0),
                ))
        while queue:
            cands, recover = self._candidates(now)
            if not cands:
                if recover is not None and not any(
                    r.inflight for r in self.replicas
                ):
                    self._push_timer(recover)  # fully stalled: rejoin later
                break
            if not batcher.ready(queue, now, more_arrivals=self._more_coming):
                break
            batch = batcher.form_batch(queue, now)
            if not batch:
                break
            self._dispatch(batch, now)
            self.depth_samples.append((now, len(queue)))
        if queue and self._more_coming:
            decision = batcher.next_decision_ms(queue)
            if decision is not None and decision > now:
                self._push_timer(decision)

    # ------------------------------------------------------------------ #
    def result(self) -> ServeResult:
        """Roll the finished run up into a :class:`ServeResult`."""
        runtime, config = self.runtime, self.config
        replicas, injector = self.replicas, self.injector
        autoscaler, db = self.autoscaler, runtime.tuning_db
        ordered = [self.outcomes[r.request_id] for r in self.requests]
        kmap_hits = sum(r.kmap_cache.hits for r in replicas)
        kmap_total = kmap_hits + sum(r.kmap_cache.misses for r in replicas)
        autoscaled = autoscaler is not None
        spans = {
            r.index: max(
                (r.retired_at_ms if r.retired_at_ms is not None
                 else self.end_ms)
                - r.provisioned_at_ms,
                0.0,
            )
            for r in replicas
        }
        per_replica = [
            {
                "replica": float(r.index),
                "batches": float(r.batches),
                "busy_ms": r.busy_ms,
                "kmap_hit_rate": r.kmap_cache.hit_rate,
                "stalls": float(injector.stalls_for(r.index)),
                "failures": float(r.failures),
                "ooms": float(r.ooms),
                "retries_served": float(r.retries_served),
                "hedges_served": float(r.hedges_served),
                "breaker_opens": float(
                    r.breaker.opens if r.breaker is not None else 0
                ),
                "breaker_closes": float(
                    r.breaker.closes if r.breaker is not None else 0
                ),
                "provisioned_ms": spans[r.index] if autoscaled else 0.0,
            }
            for r in replicas
        ]
        breakers = [r.breaker for r in replicas if r.breaker is not None]
        metrics = compute_metrics(
            ordered,
            self.depth_samples,
            policy_hit_rate=runtime.policy_cache.hit_rate,
            kmap_hit_rate=kmap_hits / kmap_total if kmap_total else 0.0,
            kmap_evictions=sum(r.kmap_cache.evictions for r in replicas),
            batches=self.batch_counter,
            replica_busy_ms=sum(r.busy_ms for r in replicas),
            replicas=sum(1 for r in replicas if not r.retired),
            stage_us_totals=self.stage_totals,
            replica_stalls=injector.stall_windows,
            batch_failures=injector.batch_failures,
            oom_events=self.oom_events,
            ladder_steps=self.ladder_steps,
            balancer=config.balancer,
            tuning_db_hits=db.hits - self.db_hits_before if db else 0,
            tuning_db_misses=db.misses - self.db_misses_before if db else 0,
            background_tunes=runtime.background_tunes - self.bg_tunes_before,
            time_to_first_tuned_ms=(
                runtime.first_tuned_ms if runtime.first_tuned_ms is not None
                else -1.0
            ),
            sync_events=self.sync_events_total,
            per_replica=per_replica,
            quota_denied=sum(b.denied for b in self.buckets.values()),
            retry_budget_exhausted=sum(
                b.exhausted for b in self.budgets.values()
            ),
            breaker_opens=sum(b.opens for b in breakers),
            breaker_closes=sum(b.closes for b in breakers),
            breaker_probes=sum(b.probes for b in breakers),
            scale_ups=autoscaler.scale_ups if autoscaler is not None else 0,
            scale_downs=(
                autoscaler.scale_downs if autoscaler is not None else 0
            ),
            replicas_peak=self.replicas_peak,
            provisioned_ms=sum(spans.values()) if autoscaled else 0.0,
            slo_ms=config.slo_ms,
        )
        return ServeResult(config=config, outcomes=ordered, metrics=metrics)
