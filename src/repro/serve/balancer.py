"""Pluggable replica load balancers for the serving cluster.

PR 1's runtime picked replicas in hardcoded index order ("earliest free
first"), which is indistinguishable from round-robin on a healthy
homogeneous fleet — and measurably wrong on a real one, where replicas
differ in accumulated load (skewed scene sizes), in speed (thermal /
contention stragglers) and in warm state (per-replica kernel-map caches).
This module extracts the decision behind an interface and ships the four
classic policies:

* :class:`RoundRobinBalancer` — cycle replica indices; the load-oblivious
  baseline every other policy is judged against;
* :class:`LeastLoadedBalancer` — route to the replica with the least
  outstanding work (then least lifetime busy time), which automatically
  starves stragglers of new work;
* :class:`JoinShortestQueueBalancer` — route to the replica with the
  fewest in-flight batches, the textbook JSQ policy;
* :class:`CacheAffinityBalancer` — steer a batch to the replica whose
  kernel-map cache is warm for the batch's scene geometries, falling back
  to least-loaded when nobody is warm.  Affinity is what makes per-replica
  kmap caches scale: without it, every replica re-derives every stream's
  maps and small caches thrash.

Balancers see only sanctioned candidates — the runtime filters out stalled
/ draining replicas, replicas whose circuit breaker is open
(:mod:`repro.serve.breaker`) and replicas at their in-flight bound — and
must pick one of them.  All decisions are pure functions of replica state,
so a seeded run is byte-identical regardless of the policy.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import ConfigError
from repro.serve.request import InferenceRequest


class LoadBalancer:
    """Strategy interface: pick one candidate replica for the next batch."""

    #: Registry name; subclasses override.
    name = "base"

    def select(
        self,
        candidates: Sequence["DeviceReplica"],  # noqa: F821 (runtime type)
        batch: Sequence[InferenceRequest],
        now_ms: float,
    ) -> "DeviceReplica":  # noqa: F821
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    @staticmethod
    def outstanding_ms(replica, now_ms: float) -> float:
        """Work already dispatched to ``replica`` but not yet finished."""
        return max(replica.free_at_ms - now_ms, 0.0)


class RoundRobinBalancer(LoadBalancer):
    """Cycle through replica indices, skipping unavailable ones."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, candidates, batch, now_ms):
        total = max(r.index for r in candidates) + 1
        chosen = min(
            candidates, key=lambda r: ((r.index - self._cursor) % total)
        )
        self._cursor = chosen.index + 1
        return chosen


class LeastLoadedBalancer(LoadBalancer):
    """Route to the replica with the least outstanding, then lifetime, work.

    Outstanding work (queued-but-unfinished service time) balances skewed
    scene sizes; lifetime busy time breaks ties away from slow replicas,
    which accumulate more busy-ms per batch than their healthy peers.
    """

    name = "least_loaded"

    def select(self, candidates, batch, now_ms):
        return min(
            candidates,
            key=lambda r: (
                self.outstanding_ms(r, now_ms), r.busy_ms, r.index
            ),
        )


class JoinShortestQueueBalancer(LoadBalancer):
    """Route to the replica with the fewest in-flight batches (JSQ)."""

    name = "jsq"

    def select(self, candidates, batch, now_ms):
        return min(
            candidates,
            key=lambda r: (r.inflight, r.free_at_ms, r.index),
        )


class CacheAffinityBalancer(LoadBalancer):
    """Steer repeated stream geometries to the replica that has them warm.

    A candidate's affinity score is the number of the batch's scene keys
    already resident in its kernel-map cache; the warmest candidate wins
    and ties fall back to least-loaded order.  Because the score reads the
    caches directly, eviction automatically releases affinity (no stale
    routing table to invalidate).
    """

    name = "cache_affinity"

    def select(self, candidates, batch, now_ms):
        scene_keys = {request.scene_key for request in batch}

        def warmth(replica) -> int:
            return sum(1 for key in scene_keys if key in replica.kmap_cache)

        return min(
            candidates,
            key=lambda r: (
                -warmth(r),
                self.outstanding_ms(r, now_ms),
                r.busy_ms,
                r.index,
            ),
        )


#: Registry of selectable balancer policies (CLI ``--balancer`` choices).
BALANCERS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        RoundRobinBalancer,
        LeastLoadedBalancer,
        JoinShortestQueueBalancer,
        CacheAffinityBalancer,
    )
}


def get_balancer(name: str) -> LoadBalancer:
    """Instantiate a balancer by registry name (fresh state each call)."""
    try:
        return BALANCERS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown balancer {name!r}; known balancers: "
            f"{', '.join(sorted(BALANCERS))}"
        ) from None
