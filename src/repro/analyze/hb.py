"""Happens-before verification of multi-stream schedules.

A K-stream placement of a trace is only sound if every dependence edge
(RAW/WAR/WAW, :class:`~repro.analyze.depgraph.DependenceGraph`) is
ordered by the schedule's *happens-before* relation:

* **program order** — launches placed on one stream execute in their
  placement order (streams are FIFO queues);
* **sync edges** — an explicit :class:`SyncEvent` records completion of
  one launch and makes another launch's stream wait on it (the model of
  ``cudaEventRecord`` + ``cudaStreamWaitEvent``).

Happens-before is the transitive closure of those two edge sets.  A
dependence edge whose endpoints are not HB-ordered is a race: a real
multi-stream runtime replaying the placement could observe the writer
and reader in either order.  :func:`check_schedule` finds every such
edge *independently of the scheduler that produced the placement* — it
trusts nothing but the trace's access annotations and the schedule's
stream/event claims, so it catches a buggy or adversarially modified
scheduler the same way :func:`~repro.analyze.depgraph.check_dependences`
sandwiches the ``repro.opt`` passes.

The same HB graph supports *sync-point inference*: the scheduler emits
one candidate event per cross-stream dependence, then removes every
event already implied by the remaining graph (classic transitive
reduction, restricted to sync edges — program order is fixed by the
placement and never removable).  In a DAG, deleting an edge ``a -> b``
is closure-preserving exactly when some other path ``a -> .. -> b`` of
length >= 2 exists, so the reduction never drops a required ordering.
The scheduler evaluates that criterion with per-stream vector clocks
(:mod:`repro.opt.schedule`); :func:`redundant_sync_edges` evaluates it
over the bitset closure here and is the reference the fast path is
tested against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.analyze.depgraph import DependenceGraph
from repro.analyze.tracecheck import TraceViolation
from repro.gpusim.trace import KernelLaunch, KernelTrace

#: Invariant names reported by :func:`check_schedule`.
RACE_INVARIANT = "unsynchronized-cross-stream-dep"
MALFORMED_SYNC_INVARIANT = "malformed-sync"
MALFORMED_SCHEDULE_INVARIANT = "malformed-schedule"

#: Absolute slack (us) for schedule timestamp comparisons.
_EPS_US = 1e-9


@dataclass(frozen=True)
class SyncEvent:
    """One explicit cross-stream synchronization.

    The event is recorded on ``record_stream`` immediately after launch
    ``record_index`` completes; ``wait_stream`` blocks before issuing
    launch ``wait_index`` until the event has fired.  This is the
    analytical model of a ``cudaEventRecord``/``cudaStreamWaitEvent``
    pair and induces the HB edge ``record_index -> wait_index``.
    """

    event_id: int
    record_index: int
    record_stream: int
    wait_index: int
    wait_stream: int


class PlacementLike(Protocol):
    """Structural view of one scheduled launch (see ``ScheduledLaunch``)."""

    @property
    def index(self) -> int: ...

    @property
    def name(self) -> str: ...

    @property
    def stream(self) -> int: ...

    @property
    def start_us(self) -> float: ...

    @property
    def end_us(self) -> float: ...


class ScheduleLike(Protocol):
    """Structural view of a stream schedule (see ``StreamSchedule``).

    Defined as a protocol so the analyzer verifies schedules without
    importing :mod:`repro.opt` (which itself builds on the analyzer).
    """

    @property
    def streams(self) -> int: ...

    @property
    def assignments(self) -> Tuple[PlacementLike, ...]: ...

    @property
    def events(self) -> Tuple[SyncEvent, ...]: ...


def stream_sequences(schedule: ScheduleLike) -> Dict[int, List[int]]:
    """Launch indices per stream, in issue order (start time, then index)."""
    per_stream: Dict[int, List[int]] = {}
    ordered = sorted(schedule.assignments, key=lambda a: (a.start_us, a.index))
    for assignment in ordered:
        per_stream.setdefault(assignment.stream, []).append(assignment.index)
    return per_stream


def program_order_edges(schedule: ScheduleLike) -> List[Tuple[int, int]]:
    """HB edges between consecutive launches on each stream."""
    edges: List[Tuple[int, int]] = []
    for _, sequence in sorted(stream_sequences(schedule).items()):
        edges.extend(zip(sequence, sequence[1:]))
    return edges


class HappensBefore:
    """Transitive closure of an HB edge set via ancestor bitsets.

    The closure is computed over a deterministic topological order
    (Kahn's algorithm with a min-heap).  When the edges are cyclic —
    only possible for malformed external schedules — ``acyclic`` is
    False and ``ordered`` conservatively answers False, so every
    dependence through the cycle is reported rather than assumed safe.
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        preds: List[List[int]] = [[] for _ in range(n)]
        succs: List[List[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        for src, dst in edges:
            preds[dst].append(src)
            succs[src].append(dst)
            indegree[dst] += 1
        heap = [i for i in range(n) if indegree[i] == 0]
        heapq.heapify(heap)
        topo: List[int] = []
        while heap:
            node = heapq.heappop(heap)
            topo.append(node)
            for succ in succs[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(heap, succ)
        self.acyclic = len(topo) == n
        self._preds = preds
        self._ancestors = [0] * n
        if self.acyclic:
            for node in topo:
                acc = 0
                for pred in preds[node]:
                    acc |= self._ancestors[pred] | (1 << pred)
                self._ancestors[node] = acc

    def ordered(self, a: int, b: int) -> bool:
        """True when ``a`` happens before ``b`` (or they are the same)."""
        if a == b:
            return True
        if not self.acyclic:
            return False
        return bool((self._ancestors[b] >> a) & 1)

    def direct_preds(self, node: int) -> List[int]:
        return self._preds[node]


def redundant_sync_edges(
    n: int,
    program_edges: Sequence[Tuple[int, int]],
    sync_edges: Sequence[Tuple[int, int]],
) -> List[int]:
    """Positions in ``sync_edges`` that a transitive reduction removes.

    A sync edge ``a -> b`` is redundant when the ordering is already
    implied without it: a duplicate of an earlier sync edge or of a
    program-order edge, or some other direct predecessor ``p`` of ``b``
    with ``a`` an ancestor of ``p`` (i.e. a path ``a -> .. -> p -> b``
    of length >= 2 exists).  Removing all such edges preserves the HB
    closure — this is the classical DAG transitive-reduction criterion,
    restricted to removable (sync) edges.
    """
    closure = HappensBefore(n, list(program_edges) + list(sync_edges))
    if not closure.acyclic:
        return []
    program_pairs = set(program_edges)
    seen_pairs: Set[Tuple[int, int]] = set()
    redundant: List[int] = []
    for position, (src, dst) in enumerate(sync_edges):
        if (src, dst) in seen_pairs or (src, dst) in program_pairs:
            redundant.append(position)
            continue
        seen_pairs.add((src, dst))
        for pred in closure.direct_preds(dst):
            if pred != src and closure.ordered(src, pred):
                redundant.append(position)
                break
    return redundant


def find_redundant_events(schedule: ScheduleLike) -> List[SyncEvent]:
    """Sync events of ``schedule`` already implied by the remaining HB graph.

    Empty for schedules produced by ``list_schedule``, which runs the
    reduction itself; non-empty signals an over-synchronized external
    schedule (the ``redundant-sync`` lint).
    """
    n = len(schedule.assignments)
    sync = [(e.record_index, e.wait_index) for e in schedule.events]
    positions = redundant_sync_edges(n, program_order_edges(schedule), sync)
    return [schedule.events[p] for p in positions]


def _check_structure(
    launches: Sequence[KernelLaunch], schedule: ScheduleLike
) -> List[TraceViolation]:
    """Schedule-shape checks that must hold before any HB reasoning."""
    violations: List[TraceViolation] = []
    n = len(launches)
    indices = sorted(a.index for a in schedule.assignments)
    if indices != list(range(n)):
        return [
            TraceViolation(
                invariant=MALFORMED_SCHEDULE_INVARIANT,
                message=(
                    f"schedule places {len(schedule.assignments)} launches "
                    f"but the trace has {n}: assignments must be a "
                    f"permutation of launch indices 0..{n - 1}"
                ),
            )
        ]
    by_index = {a.index: a for a in schedule.assignments}
    for i in range(n):
        placement = by_index[i]
        if placement.end_us < placement.start_us - _EPS_US:
            violations.append(
                TraceViolation(
                    invariant=MALFORMED_SCHEDULE_INVARIANT,
                    launch=launches[i].name,
                    message=(
                        f"launch {i} ({launches[i].name!r}) ends at "
                        f"{placement.end_us:.3f} us before it starts at "
                        f"{placement.start_us:.3f} us"
                    ),
                )
            )
        if placement.stream < 0 or placement.stream >= schedule.streams:
            violations.append(
                TraceViolation(
                    invariant=MALFORMED_SCHEDULE_INVARIANT,
                    launch=launches[i].name,
                    message=(
                        f"launch {i} ({launches[i].name!r}) is placed on "
                        f"stream {placement.stream} but the schedule claims "
                        f"{schedule.streams} streams"
                    ),
                )
            )
    for stream, sequence in sorted(stream_sequences(schedule).items()):
        for prev, nxt in zip(sequence, sequence[1:]):
            if by_index[nxt].start_us < by_index[prev].end_us - _EPS_US:
                violations.append(
                    TraceViolation(
                        invariant=MALFORMED_SCHEDULE_INVARIANT,
                        launch=launches[nxt].name,
                        message=(
                            f"launches {prev} and {nxt} overlap on stream "
                            f"{stream}: {launches[nxt].name!r} starts at "
                            f"{by_index[nxt].start_us:.3f} us before "
                            f"{launches[prev].name!r} ends at "
                            f"{by_index[prev].end_us:.3f} us"
                        ),
                    )
                )
    return violations


def _check_events(
    launches: Sequence[KernelLaunch], schedule: ScheduleLike
) -> Tuple[List[TraceViolation], List[SyncEvent]]:
    """Structural event checks; returns (violations, well-formed events)."""
    violations: List[TraceViolation] = []
    well_formed: List[SyncEvent] = []
    n = len(launches)
    by_index = {a.index: a for a in schedule.assignments}
    for event in schedule.events:
        if not (0 <= event.record_index < n and 0 <= event.wait_index < n):
            violations.append(
                TraceViolation(
                    invariant=MALFORMED_SYNC_INVARIANT,
                    message=(
                        f"sync event {event.event_id} references launches "
                        f"{event.record_index} -> {event.wait_index} outside "
                        f"the trace (0..{n - 1})"
                    ),
                )
            )
            continue
        record = by_index[event.record_index]
        wait = by_index[event.wait_index]
        ok = True
        if record.stream != event.record_stream:
            ok = False
            violations.append(
                TraceViolation(
                    invariant=MALFORMED_SYNC_INVARIANT,
                    launch=launches[event.record_index].name,
                    message=(
                        f"sync event {event.event_id} claims to record on "
                        f"stream {event.record_stream} but launch "
                        f"{event.record_index} "
                        f"({launches[event.record_index].name!r}) runs on "
                        f"stream {record.stream}: the event would fire after "
                        f"the wrong launch"
                    ),
                )
            )
        if wait.stream != event.wait_stream:
            ok = False
            violations.append(
                TraceViolation(
                    invariant=MALFORMED_SYNC_INVARIANT,
                    launch=launches[event.wait_index].name,
                    message=(
                        f"sync event {event.event_id} claims stream "
                        f"{event.wait_stream} waits, but launch "
                        f"{event.wait_index} "
                        f"({launches[event.wait_index].name!r}) runs on "
                        f"stream {wait.stream}: the wait blocks a stream the "
                        f"dependent launch never uses"
                    ),
                )
            )
        if ok and wait.start_us < record.end_us - _EPS_US:
            ok = False
            violations.append(
                TraceViolation(
                    invariant=MALFORMED_SYNC_INVARIANT,
                    launch=launches[event.wait_index].name,
                    message=(
                        f"sync event {event.event_id}: launch "
                        f"{event.wait_index} "
                        f"({launches[event.wait_index].name!r}) starts at "
                        f"{wait.start_us:.3f} us before its awaited launch "
                        f"{event.record_index} "
                        f"({launches[event.record_index].name!r}) ends at "
                        f"{record.end_us:.3f} us"
                    ),
                )
            )
        if ok:
            well_formed.append(event)
    return violations, well_formed


def check_schedule(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    schedule: ScheduleLike,
    graph: Optional[DependenceGraph] = None,
) -> List[TraceViolation]:
    """Verify ``schedule`` orders every dependence of ``trace`` under HB.

    Reports one ``unsynchronized-cross-stream-dep`` violation per
    dependence edge that is not happens-before ordered (with the buffer
    name, hazard kind and both launch ids), plus ``malformed-schedule``
    / ``malformed-sync`` violations for structurally broken placements
    or events.  An empty result certifies the schedule race-free with
    respect to the trace's access annotations.
    """
    launches = list(trace)
    if graph is None:
        graph = DependenceGraph.build(launches)
    violations = _check_structure(launches, schedule)
    if any(
        v.invariant == MALFORMED_SCHEDULE_INVARIANT and v.launch is None
        for v in violations
    ):
        return violations  # not a permutation: indices below are unusable
    event_violations, events = _check_events(launches, schedule)
    violations.extend(event_violations)

    n = len(launches)
    by_index = {a.index: a for a in schedule.assignments}
    sync_edges = [(e.record_index, e.wait_index) for e in events]
    hb = HappensBefore(n, program_order_edges(schedule) + sync_edges)
    if not hb.acyclic:
        violations.append(
            TraceViolation(
                invariant=MALFORMED_SYNC_INVARIANT,
                message=(
                    "sync events form a cycle with stream program order: "
                    "the schedule deadlocks"
                ),
            )
        )
    for edge in graph.edges:
        if hb.ordered(edge.src, edge.dst):
            continue
        src = by_index[edge.src]
        dst = by_index[edge.dst]
        if src.stream == dst.stream:
            detail = "the launches were reordered within their stream"
        else:
            detail = (
                f"no sync event orders stream {src.stream} before "
                f"stream {dst.stream} here"
            )
        violations.append(
            TraceViolation(
                invariant=RACE_INVARIANT,
                launch=launches[edge.dst].name,
                message=(
                    f"{edge.kind} dependence on buffer {edge.buffer!r} from "
                    f"launch {edge.src} ({launches[edge.src].name!r}, stream "
                    f"{src.stream}) to launch {edge.dst} "
                    f"({launches[edge.dst].name!r}, stream {dst.stream}) is "
                    f"not happens-before ordered: {detail}"
                ),
            )
        )
    # Barriers carry no access annotations, so no dependence edge guards
    # them — but the model promises they fence everything issued before
    # and after.  Check both directions; report the first offender each
    # way to keep the output bounded.
    for i, launch in enumerate(launches):
        if not launch.is_barrier:
            continue
        for j in range(i):
            if not hb.ordered(j, i):
                violations.append(
                    TraceViolation(
                        invariant=RACE_INVARIANT,
                        launch=launch.name,
                        message=(
                            f"barrier launch {i} ({launch.name!r}) is not "
                            f"happens-before ordered after launch {j} "
                            f"({launches[j].name!r}, stream "
                            f"{by_index[j].stream})"
                        ),
                    )
                )
                break
        for j in range(i + 1, n):
            if not hb.ordered(i, j):
                violations.append(
                    TraceViolation(
                        invariant=RACE_INVARIANT,
                        launch=launch.name,
                        message=(
                            f"launch {j} ({launches[j].name!r}, stream "
                            f"{by_index[j].stream}) is not happens-before "
                            f"ordered after barrier launch {i} "
                            f"({launch.name!r})"
                        ),
                    )
                )
                break
    return violations


__all__ = [
    "RACE_INVARIANT",
    "MALFORMED_SYNC_INVARIANT",
    "MALFORMED_SCHEDULE_INVARIANT",
    "SyncEvent",
    "PlacementLike",
    "ScheduleLike",
    "HappensBefore",
    "stream_sequences",
    "program_order_edges",
    "redundant_sync_edges",
    "find_redundant_events",
    "check_schedule",
]
