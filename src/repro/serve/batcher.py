"""Bounded request queue and dynamic batcher.

Admission control is the queue's job: it is bounded (``max_depth``), and a
request arriving at a full queue is *shed* immediately — backpressure
instead of unbounded latency growth.  The queue orders requests by
priority class, then admission order, and can shed lowest-priority-first.
The batcher then groups queued requests into dispatches under two
constraints:

* a **point-count budget** — sparse-conv batch cost scales with total
  voxels, not request count, so the budget caps the batch's service time;
* a **deadline window** — a batch is dispatched once its oldest member has
  waited ``window_ms``, bounding the latency cost of waiting for company.

The batcher never mixes workloads in one batch (different models cannot
share a launch sequence).
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
from typing import Callable, List, Optional, Set, Tuple

from repro.errors import ConfigError
from repro.serve.request import InferenceRequest


class RequestQueue:
    """Bounded queue ordered by (priority class, admission order).

    Dispatch order is best class first (priority 0 before 1) and FIFO
    within a class, so a single-class queue is a plain FIFO.  A request
    arriving at a full queue is shed (:meth:`admit`); under
    lowest-priority-first shedding (:meth:`admit_displacing`) it instead
    evicts the youngest queued request of a strictly worse class.
    """

    def __init__(self, max_depth: int = 64):
        if max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._items: List[InferenceRequest] = []
        self._keys: List[Tuple[int, int]] = []  # sorted (priority, seq)
        self._seq = itertools.count(1)
        self.shed_count = 0

    def _insert(self, request: InferenceRequest, seq: int) -> None:
        key = (request.priority, seq)
        pos = bisect.bisect_left(self._keys, key)
        self._keys.insert(pos, key)
        self._items.insert(pos, request)

    def admit(self, request: InferenceRequest) -> bool:
        """Enqueue ``request``; False (and counted) when the queue is full."""
        if len(self._items) >= self.max_depth:
            self.shed_count += 1
            return False
        self._insert(request, next(self._seq))
        return True

    def admit_displacing(
        self, request: InferenceRequest
    ) -> Optional[InferenceRequest]:
        """Admit ``request``, shedding lowest-priority-first under pressure.

        Returns the request that was shed: ``None`` when there was room,
        the displaced lower-priority victim when the arrival bumped one,
        or ``request`` itself when it *is* the lowest class present.
        """
        if self.admit(request):
            return None
        worst = self._items[-1]  # largest (priority, seq): worst class,
        if worst.priority > request.priority:  # youngest within it
            self._items.pop()
            self._keys.pop()
            self._insert(request, next(self._seq))
            return worst
        return request

    def requeue(self, request: InferenceRequest) -> None:
        """Re-enqueue a retried request at the head of its class.

        Retries bypass admission control: the request was already admitted
        once and shedding it now would turn a transient replica fault into
        a dropped request.  Head placement bounds retry latency — the
        request has already waited a full service attempt plus backoff.
        """
        # seq below every live entry: first among equals.
        self._insert(request, -next(self._seq))

    def _remove(self, dead: Set[int]) -> None:
        kept = [
            (key, item)
            for key, item in zip(self._keys, self._items)
            if item.request_id not in dead
        ]
        self._keys = [key for key, _ in kept]
        self._items = [item for _, item in kept]

    def expire(
        self, now_ms: float, timeout_ms: float
    ) -> List[InferenceRequest]:
        """Drop (and return) queued requests older than ``timeout_ms``."""
        expired = [
            r for r in self._items if now_ms - r.arrival_ms >= timeout_ms
        ]
        if expired:
            self._remove({r.request_id for r in expired})
        return expired

    def __len__(self) -> int:
        return len(self._items)

    @property
    def oldest(self) -> Optional[InferenceRequest]:
        return self._items[0] if self._items else None

    def peek(self) -> List[InferenceRequest]:
        return list(self._items)

    def take(self, requests: List[InferenceRequest]) -> None:
        """Remove a batch the batcher formed (must be queued members)."""
        self._remove({r.request_id for r in requests})


@dataclasses.dataclass
class DynamicBatcher:
    """Group queued requests under a point budget and deadline window.

    Args:
        point_budget: Maximum total scene points per batch.  A single
            request larger than the budget still forms a batch of one.
        max_batch_requests: Hard cap on requests per batch.
        window_ms: Dispatch once the oldest queued request has waited this
            long, even if the budget is not filled.
        scene_points: Callback mapping a request to its scene's point
            count (the runtime supplies this from its scene provider).
    """

    point_budget: int = 400_000
    max_batch_requests: int = 8
    window_ms: float = 10.0
    scene_points: Callable[[InferenceRequest], int] = lambda request: 1

    def __post_init__(self) -> None:
        if self.point_budget < 1:
            raise ConfigError("point_budget must be >= 1")
        if self.max_batch_requests < 1:
            raise ConfigError("max_batch_requests must be >= 1")
        if self.window_ms < 0:
            raise ConfigError("window_ms must be >= 0")

    # ------------------------------------------------------------------ #
    def form_batch(self, queue: RequestQueue, now_ms: float) -> List[InferenceRequest]:
        """Head-of-line batch: same workload, budget- and count-capped."""
        items = queue.peek()
        if not items:
            return []
        head = items[0]
        batch: List[InferenceRequest] = []
        points = 0
        for request in items:
            if request.workload_id != head.workload_id:
                continue  # a later dispatch picks these up
            cost = self.scene_points(request)
            if batch and (
                points + cost > self.point_budget
                or len(batch) >= self.max_batch_requests
            ):
                break
            batch.append(request)
            points += cost
        queue.take(batch)
        return batch

    def ready(
        self, queue: RequestQueue, now_ms: float, more_arrivals: bool
    ) -> bool:
        """Should a free device dispatch now rather than wait for company?"""
        oldest = queue.oldest
        if oldest is None:
            return False
        if not more_arrivals:
            return True  # nothing else is coming; drain
        if now_ms - oldest.arrival_ms >= self.window_ms:
            return True
        points = 0
        count = 0
        for request in queue.peek():
            if request.workload_id != oldest.workload_id:
                continue
            points += self.scene_points(request)
            count += 1
            if points >= self.point_budget or count >= self.max_batch_requests:
                return True
        return False

    def next_decision_ms(self, queue: RequestQueue) -> Optional[float]:
        """When the window of the oldest queued request expires."""
        oldest = queue.oldest
        if oldest is None:
            return None
        return oldest.arrival_ms + self.window_ms
