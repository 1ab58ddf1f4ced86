"""Request-driven inference serving runtime (``repro.serve``).

Turns the one-shot ``measure``/``tune`` machinery into a serving system:
synthetic LiDAR scenes arrive as a request stream drawn from a traffic
preset (steady, bursty, flash crowd, diurnal),
a dynamic batcher groups them under a point budget and deadline window,
and a cluster of N simulated device replicas serves batches behind a
pluggable load balancer (round-robin, least-loaded, join-shortest-queue,
cache-affinity).  Models are statically linted at admission
(:func:`repro.analyze.lint_model`): error-level findings raise
:class:`~repro.errors.AdmissionError` before any replica accepts traffic
for that model.  A deterministic fault model can stall replicas, fail
batches transiently and skew replica speed; requests retry with
exponential backoff (seeded jitter), long batches can hedge onto a second
replica, and queued requests can time out.  Warm caches carry tuned
policies (cluster-global) and kernel-map state (per replica) across
requests.  End-to-end latency comes from :mod:`repro.gpusim` on a virtual
clock, so every run — faulty or not — is byte-for-byte deterministic.

Overload robustness (multi-tenant serving) layers on top:

* **traffic programs** (:mod:`repro.serve.traffic`) — diurnal curves and
  flash crowds as composable rate segments, sampled into deterministic
  arrival schedules;
* **per-tenant admission** (:mod:`repro.serve.admission`) — priority
  classes with lowest-priority-first shedding, token-bucket rate quotas
  and retry budgets;
* **circuit breakers** (:mod:`repro.serve.breaker`) — replicas that keep
  failing batches are taken out of balancer rotation and probed back in;
* **SLO-driven autoscaling** (:mod:`repro.serve.autoscale`) — top-class
  p99 and error budget over a sliding window grow the fleet (cold caches,
  real warmup cost) and drain it when utilization falls.

Entry points: ``python -m repro serve-bench`` (CLI) or::

    from repro.serve import (
        FaultPlan, ServeConfig, ServingRuntime, generate_requests,
        parse_traffic,
    )

    runtime = ServingRuntime(ServeConfig(
        device="rtx3090", replicas=4, balancer="least_loaded",
        faults=FaultPlan.parse("fail=0.1,skew=2", seed=0), max_retries=3,
    ))
    runtime.warm_policy("SK-M-1.0")       # optional: pre-warm tuned policy
    requests = generate_requests(
        "SK-M-1.0", parse_traffic("steady:rate=30", seed=0), count=64
    )
    result = runtime.serve(requests)
    print(result.describe())
"""

from repro.serve.admission import (
    DEFAULT_TENANT,
    RetryBudget,
    TenantSpec,
    TokenBucket,
    parse_tenants,
)
from repro.serve.autoscale import AutoscalePolicy, Autoscaler, ScaleEvent
from repro.serve.balancer import (
    BALANCERS,
    CacheAffinityBalancer,
    JoinShortestQueueBalancer,
    LeastLoadedBalancer,
    LoadBalancer,
    RoundRobinBalancer,
    get_balancer,
)
from repro.serve.batcher import DynamicBatcher, RequestQueue
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.cache import KmapCache, KmapEntry, PolicyCache
from repro.serve.faults import NO_FAULTS, FaultInjector, FaultPlan
from repro.serve.metrics import ServingMetrics, compute_metrics, percentile_ms
from repro.serve.request import InferenceRequest, RequestOutcome, RequestStatus
from repro.serve.runtime import (
    DeviceReplica,
    SceneProvider,
    ServeConfig,
    ServeResult,
    ServingRuntime,
)
from repro.serve.traffic import (
    TRAFFIC_PRESETS,
    TrafficSegment,
    TrafficTrace,
    generate_requests,
    generate_traffic_requests,
    parse_traffic,
)

__all__ = [
    "DEFAULT_TENANT",
    "RetryBudget",
    "TenantSpec",
    "TokenBucket",
    "parse_tenants",
    "AutoscalePolicy",
    "Autoscaler",
    "ScaleEvent",
    "BALANCERS",
    "CacheAffinityBalancer",
    "JoinShortestQueueBalancer",
    "LeastLoadedBalancer",
    "LoadBalancer",
    "RoundRobinBalancer",
    "get_balancer",
    "DynamicBatcher",
    "RequestQueue",
    "BreakerState",
    "CircuitBreaker",
    "KmapCache",
    "KmapEntry",
    "PolicyCache",
    "NO_FAULTS",
    "FaultInjector",
    "FaultPlan",
    "ServingMetrics",
    "compute_metrics",
    "percentile_ms",
    "InferenceRequest",
    "RequestOutcome",
    "RequestStatus",
    "DeviceReplica",
    "SceneProvider",
    "ServeConfig",
    "ServeResult",
    "ServingRuntime",
    "TRAFFIC_PRESETS",
    "TrafficSegment",
    "TrafficTrace",
    "generate_requests",
    "generate_traffic_requests",
    "parse_traffic",
]
