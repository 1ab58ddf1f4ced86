"""Multi-stream latency model: list-schedule a trace's DAG onto K streams.

The scheduler walks launches in program order (a topological order of
the dependence DAG) and places each on the stream where it can start
earliest, subject to every dependence predecessor having finished.  This
is classic Graham list scheduling with a program-order priority list:

* every hazard edge is respected (a launch never starts before any of
  its RAW/WAR/WAW predecessors finishes), so the schedule is valid by
  construction;
* ``K = 1`` reproduces the serialized estimate *exactly* — same launches,
  same left-to-right summation order — so single-stream callers see
  bit-identical latencies;
* unannotated launches (empty read *and* write sets) are treated as
  barriers: they wait for everything issued so far and everything after
  waits for them.  A fully unannotated trace therefore schedules exactly
  serialized — the model never claims overlap it cannot prove.

Cross-stream orderings are made *explicit*: for every dependence edge
whose endpoints land on different streams (and for every barrier's
cross-stream fences) the scheduler emits a candidate
:class:`~repro.analyze.hb.SyncEvent` — the model of a
``cudaEventRecord``/``cudaStreamWaitEvent`` pair.  A transitive
reduction over the happens-before graph then drops every event already
implied by stream program order plus the remaining events, and the
survivors are charged ``DeviceSpec.sync_event_us`` each when the
placement is re-timed.  Overlap that does not pay for its
synchronization stops being claimed, and :func:`check_schedule
<repro.analyze.hb.check_schedule>` verifies the emitted event set
independently.

Raw list scheduling is not monotone in K (Graham's anomalies: more
streams can finish later), and with sync charging a fixed K can even
exceed serialized — so :func:`best_schedule` reports the best makespan
over 1..K streams.  That restores monotonicity and keeps the result
inside ``[critical_path, serialized]``.  It does the per-trace work once
and every per-K phase in about O((n + E)·K):

1. **Price once.** One :func:`~repro.gpusim.engine.launch_prices`
   vector (the caller's, when it passes one), the deduplicated
   dependence pairs, the predecessor lists, the barrier indices and the
   critical path are computed per trace and shared by every K.
2. **K = 1** is the serialized prefix sum: no placement, no candidates,
   no reduction.
3. **Placement-bound pruning.** With ``sync_event_us >= 0`` the
   sync-free placement makespan of a K is a lower bound on its re-timed
   makespan (max and addition are monotone, and the reduced events close
   over every dependence), so a K whose placement already reaches the
   best makespan so far cannot win — ties go to the smaller K — and
   skips the remaining phases.
4. **Vector-clock reduction.** Every launch sits on one stream chain and
   every edge points forward in program order, so a launch's ancestors
   on each stream form a prefix of that stream: one clock entry per
   stream answers ``ordered(a, b)`` as ``pos(a) <= clock[b][stream(a)]``.
5. Only the winning K's placements and events are materialized.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analyze.depgraph import DependenceGraph
from repro.analyze.hb import SyncEvent, stream_sequences
from repro.gpusim.engine import launch_prices
from repro.gpusim.trace import KernelLaunch, KernelTrace
from repro.hw.specs import DeviceSpec
from repro.precision import Precision


@dataclasses.dataclass(frozen=True)
class ScheduledLaunch:
    """Placement of one launch: stream assignment and time window (us)."""

    index: int
    name: str
    stream: int
    start_us: float
    end_us: float


@dataclasses.dataclass(frozen=True)
class StreamSchedule:
    """A complete K-stream schedule of one trace, with its sync events."""

    streams: int
    makespan_us: float
    serialized_us: float
    critical_path_us: float
    assignments: Tuple[ScheduledLaunch, ...]
    events: Tuple[SyncEvent, ...] = ()
    redundant_events_removed: int = 0
    sync_event_us: float = 0.0
    #: The per-launch price vector the schedule was timed with, in
    #: program order (empty for a schedule read back from JSON).
    prices: Tuple[float, ...] = ()

    @property
    def used_streams(self) -> int:
        return len({a.stream for a in self.assignments})

    @property
    def speedup(self) -> float:
        """Serialized over scheduled latency (claimable overlap win)."""
        if self.makespan_us <= 0.0:
            return 1.0
        return self.serialized_us / self.makespan_us

    @property
    def sync_us(self) -> float:
        """Nominal synchronization overhead charged by this schedule."""
        return len(self.events) * self.sync_event_us


@dataclasses.dataclass(frozen=True)
class _TraceState:
    """Everything about one trace that no stream count changes."""

    launches: List[KernelLaunch]
    prices: List[float]
    #: Deduplicated dependence pairs ``(src, dst)``, first occurrence first.
    edges: List[Tuple[int, int]]
    preds: List[List[int]]
    barriers: List[int]
    serialized_us: float
    critical_path_us: float


def _trace_state(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    device: DeviceSpec,
    precision: "Precision | str",
    graph: Optional[DependenceGraph],
    prices: Optional[Sequence[float]] = None,
) -> _TraceState:
    precision = Precision.parse(precision)
    launches = list(trace)
    if graph is None:
        graph = DependenceGraph.build(launches)
    if prices is None:
        prices = launch_prices(launches, device, precision)
    elif len(prices) != len(launches):
        raise ValueError(f"{len(prices)} prices for {len(launches)} launches")
    edges = list(dict.fromkeys((edge.src, edge.dst) for edge in graph.edges))
    preds: List[List[int]] = [[] for _ in launches]
    for src, dst in edges:
        preds[dst].append(src)
    # Serialized latency summed in program order: the K = 1 makespan is
    # the same left-to-right sum, so the two agree bitwise.
    serialized = 0.0
    for price in prices:
        serialized += price
    _, span = graph.critical_path(device, precision, prices)
    return _TraceState(
        launches=launches,
        prices=list(prices),
        edges=edges,
        preds=preds,
        barriers=[i for i, launch in enumerate(launches) if launch.is_barrier],
        serialized_us=serialized,
        critical_path_us=span,
    )


@dataclasses.dataclass(frozen=True)
class _Timing:
    """One stream count's placement, events and re-timed windows."""

    streams: int
    stream_of: List[int]
    starts: List[float]
    ends: List[float]
    makespan_us: float
    kept: List[Tuple[int, int]]
    removed: int


def _place_streams(state: _TraceState, streams: int) -> Tuple[List[int], float]:
    """Phase 1: greedy earliest-start stream assignment (sync cost free).

    Returns the stream of every launch and the placement makespan.  This
    is the original Graham placement; sync overhead is charged only in
    the re-timing phase, so placement stays deterministic.
    """
    barriers = set(state.barriers)
    free_at = [0.0] * streams
    ends = [0.0] * len(state.prices)
    horizon = 0.0
    barrier_end = 0.0
    stream_of: List[int] = []
    # ``if x > y: y = x`` is ``y = max(y, x)`` without the call.
    for i, (price, preds) in enumerate(zip(state.prices, state.preds)):
        ready = barrier_end
        for p in preds:
            if ends[p] > ready:
                ready = ends[p]
        if i in barriers:
            if horizon > ready:
                ready = horizon
            # A barrier cannot start before the whole horizon, so place
            # it on the *busiest* stream (lowest index on ties): it
            # starts at the same time but needs no sync against that
            # stream's tail, and a fully unannotated trace stays on one
            # stream with zero events.
            stream = free_at.index(max(free_at))
        else:
            # Earliest-free stream; ties break to the lowest index so the
            # schedule is deterministic.
            stream = free_at.index(min(free_at))
        start = free_at[stream] if free_at[stream] > ready else ready
        end = start + price
        free_at[stream] = end
        ends[i] = end
        if end > horizon:
            horizon = end
        if i in barriers and end > barrier_end:
            barrier_end = end
        stream_of.append(stream)
    return stream_of, horizon


def _candidate_sync_edges(
    state: _TraceState, stream_of: Sequence[int]
) -> List[Tuple[int, int]]:
    """Phase 2: one candidate event per cross-stream ordering requirement.

    Dependence edges whose endpoints sit on different streams need an
    explicit sync; barriers additionally fence every *other* stream, so
    they sync against the last launch before and the first launch after
    them on each one.
    """
    candidates = [
        (src, dst) for src, dst in state.edges if stream_of[src] != stream_of[dst]
    ]
    if not state.barriers:
        return candidates
    # Barriers have no accesses, hence no dependence edges: their fences
    # can only repeat each other (two barriers fencing one another).
    fences: Dict[Tuple[int, int], None] = {}
    members: Dict[int, List[int]] = {}
    for i, stream in enumerate(stream_of):
        members.setdefault(stream, []).append(i)
    for i in state.barriers:
        for stream, indices in members.items():
            if stream == stream_of[i]:
                continue
            pos = bisect.bisect_left(indices, i)
            if pos > 0:
                fences[(indices[pos - 1], i)] = None
            if pos < len(indices):
                fences[(i, indices[pos])] = None
    return candidates + list(fences)


def _redundant_sync_positions(
    stream_of: Sequence[int],
    streams: int,
    sync_edges: Sequence[Tuple[int, int]],
) -> List[int]:
    """Phase 3: positions in ``sync_edges`` a transitive reduction removes.

    The answer equals :func:`repro.analyze.hb.redundant_sync_edges` over
    the program-order edges of ``stream_of`` (consecutive launches per
    stream), provided every edge points forward (``src < dst``).  Then
    each launch's ancestors on a stream are a prefix of that stream, so
    one vector clock per launch — the position of its last ancestor on
    every stream, or -1 — decides ``a`` happens before ``b`` as
    ``pos[a] <= clock[b][stream_of[a]]``.  A sync edge ``a -> b`` is
    redundant when it repeats an earlier one, joins two launches of one
    stream, or another direct predecessor of ``b`` is ordered after
    ``a``.
    """
    n = len(stream_of)
    pos = [0] * n
    prev = [-1] * n
    tail = [-1] * streams
    for i, stream in enumerate(stream_of):
        prev[i] = tail[stream]
        pos[i] = pos[tail[stream]] + 1 if tail[stream] >= 0 else 0
        tail[stream] = i
    redundant: List[int] = []
    seen_pairs: Set[Tuple[int, int]] = set()
    # Incoming sync edges per launch: (source, position in sync_edges).
    sources: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for position, pair in enumerate(sync_edges):
        src, dst = pair
        if pair in seen_pairs or stream_of[src] == stream_of[dst]:
            redundant.append(position)
            continue
        seen_pairs.add(pair)
        sources[dst].append((src, position))

    # clocks[b][s]: position of b's last strict ancestor on stream s, or
    # -1.  The entry for b's own stream is never read (pos[b] answers
    # it), so a launch without incoming sync edges shares its stream
    # predecessor's list instead of copying it.
    none = [-1] * streams
    clocks: List[List[int]] = []
    for b in range(n):
        p = prev[b]
        srcs = sources[b]
        if not srcs:
            clocks.append(clocks[p] if p >= 0 else none)
            continue
        # ``seen``: everything b's predecessors are ordered after (a
        # source's own entry is stale but below its position, so merging
        # it is harmless).  ``clock`` then adds the sources themselves.
        # The program-order predecessor only matters for b's own stream.
        seen = clocks[p] if p >= 0 else none
        for a, _ in srcs:
            seen = [y if y > x else x for x, y in zip(seen, clocks[a])]
        clock = list(seen)
        for a, _ in srcs:
            if pos[a] > clock[stream_of[a]]:
                clock[stream_of[a]] = pos[a]
        # ``a -> b`` is implied when another predecessor is ordered after
        # a, or is a later launch of a's own stream.
        for a, position in srcs:
            stream = stream_of[a]
            if seen[stream] >= pos[a] or clock[stream] > pos[a]:
                redundant.append(position)
        clocks.append(clock)
    redundant.sort()
    return redundant


def _retime(
    state: _TraceState,
    streams: int,
    stream_of: List[int],
    kept: List[Tuple[int, int]],
    sync_cost: float,
) -> Tuple[List[float], List[float], float]:
    """Phase 4: re-time the placement charging ``sync_cost`` per event.

    Program order plus the reduced event set closes over every dependence
    (the reduction is closure-preserving), so waiting on direct events
    and the stream's own tail is sufficient.
    """
    waiters: Dict[int, List[int]] = {}
    for src, dst in kept:
        waiters.setdefault(dst, []).append(src)
    free_at = [0.0] * streams
    starts: List[float] = []
    ends: List[float] = []
    horizon = 0.0
    for i, (stream, price) in enumerate(zip(stream_of, state.prices)):
        start = free_at[stream]
        for record in waiters.get(i, ()):
            ready = ends[record] + sync_cost
            if ready > start:
                start = ready
        end = start + price
        free_at[stream] = end
        starts.append(start)
        ends.append(end)
        if end > horizon:
            horizon = end
    return starts, ends, horizon


def _serial_timing(state: _TraceState) -> _Timing:
    """K = 1: the serialized prefix sum, with no events to place."""
    starts: List[float] = []
    ends: List[float] = []
    clock = 0.0
    for price in state.prices:
        starts.append(clock)
        clock += price
        ends.append(clock)
    return _Timing(
        streams=1,
        stream_of=[0] * len(state.prices),
        starts=starts,
        ends=ends,
        makespan_us=state.serialized_us,
        kept=[],
        removed=0,
    )


def _timing(
    state: _TraceState,
    streams: int,
    sync_cost: float,
    bound: Optional[float] = None,
) -> Optional[_Timing]:
    """All four phases for one stream count; ``None`` when the placement
    makespan already reaches ``bound`` (the K cannot beat it)."""
    if streams == 1:
        return _serial_timing(state)
    stream_of, placed_us = _place_streams(state, streams)
    if bound is not None and placed_us >= bound:
        return None
    candidates = _candidate_sync_edges(state, stream_of)
    removed = set(_redundant_sync_positions(stream_of, streams, candidates))
    kept = sorted(
        (
            pair
            for position, pair in enumerate(candidates)
            if position not in removed
        ),
        key=lambda pair: (pair[1], pair[0]),
    )
    starts, ends, horizon = _retime(state, streams, stream_of, kept, sync_cost)
    return _Timing(
        streams=streams,
        stream_of=stream_of,
        starts=starts,
        ends=ends,
        makespan_us=horizon,
        kept=kept,
        removed=len(candidates) - len(kept),
    )


def _materialize(
    state: _TraceState, timing: _Timing, sync_cost: float
) -> StreamSchedule:
    stream_of = timing.stream_of
    return StreamSchedule(
        streams=timing.streams,
        makespan_us=timing.makespan_us,
        serialized_us=state.serialized_us,
        critical_path_us=state.critical_path_us,
        assignments=tuple(
            ScheduledLaunch(
                index=i,
                name=launch.name,
                stream=stream_of[i],
                start_us=timing.starts[i],
                end_us=timing.ends[i],
            )
            for i, launch in enumerate(state.launches)
        ),
        events=tuple(
            SyncEvent(
                event_id=event_id,
                record_index=src,
                record_stream=stream_of[src],
                wait_index=dst,
                wait_stream=stream_of[dst],
            )
            for event_id, (src, dst) in enumerate(timing.kept)
        ),
        redundant_events_removed=timing.removed,
        sync_event_us=sync_cost,
        prices=tuple(state.prices),
    )


def list_schedule(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    device: DeviceSpec,
    precision: "Precision | str",
    streams: int,
    graph: Optional[DependenceGraph] = None,
) -> StreamSchedule:
    """Greedy program-order list schedule onto exactly ``streams`` streams.

    Runs in four phases: greedy placement, sync-event emission for
    every cross-stream ordering, transitive reduction of the event set,
    and a final re-timing pass that charges ``device.sync_event_us``
    per surviving event.

    Note: makespan is not guaranteed monotone in ``streams`` (Graham's
    scheduling anomalies), and with nonzero sync cost a fixed K can
    schedule *worse* than serialized; use :func:`best_schedule`
    for a monotone latency figure.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    state = _trace_state(trace, device, precision, graph)
    timing = _timing(state, streams, device.sync_event_us)
    assert timing is not None
    return _materialize(state, timing, device.sync_event_us)


def best_schedule(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    device: DeviceSpec,
    precision: "Precision | str",
    streams: int,
    graph: Optional[DependenceGraph] = None,
    prices: Optional[Sequence[float]] = None,
) -> StreamSchedule:
    """The best list schedule over 1..``streams`` streams.

    Taking the min over stream counts sidesteps Graham's anomalies and
    sync-cost blowups at large K: the result is monotone non-increasing
    in ``streams`` and always in ``[critical_path, serialized]``.  Ties
    go to the smallest stream count, so overlap whose sync cost eats
    the whole win falls back to fewer streams (ultimately K=1 with zero
    events).  Each launch is priced once per call, or not at all when
    the caller passes the trace's
    :func:`~repro.gpusim.engine.launch_prices` vector as ``prices``
    (it does not depend on ``sync_event_us``).  A K whose sync-free
    placement cannot beat the best makespan so far is pruned — exact
    only for ``sync_event_us >= 0``, which is enforced.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    sync_cost = device.sync_event_us
    if sync_cost < 0:
        raise ValueError(
            f"sync_event_us must be >= 0 for placement-bound pruning, "
            f"got {sync_cost}"
        )
    state = _trace_state(trace, device, precision, graph, prices)
    best = _serial_timing(state)
    for k in range(2, streams + 1):
        candidate = _timing(state, k, sync_cost, bound=best.makespan_us)
        if candidate is not None and candidate.makespan_us < best.makespan_us:
            best = candidate
    return _materialize(state, best, sync_cost)


def schedule_report_json(
    schedule: StreamSchedule, ndigits: int = 3
) -> Dict[str, object]:
    """Deterministic JSON fragment for one schedule."""
    return {
        "streams": schedule.streams,
        "used_streams": schedule.used_streams,
        "scheduled_us": round(schedule.makespan_us, ndigits),
        "serialized_us": round(schedule.serialized_us, ndigits),
        "critical_path_us": round(schedule.critical_path_us, ndigits),
        "speedup": round(schedule.speedup, ndigits),
        "sync_events": len(schedule.events),
        "sync_event_us": round(schedule.sync_event_us, ndigits),
        "sync_us": round(schedule.sync_us, ndigits),
        "events_removed": schedule.redundant_events_removed,
        "assignments": [
            {
                "index": a.index,
                "name": a.name,
                "stream": a.stream,
                "start_us": round(a.start_us, ndigits),
                "end_us": round(a.end_us, ndigits),
            }
            for a in schedule.assignments
        ],
        "events": [
            {
                "id": e.event_id,
                "record": e.record_index,
                "record_stream": e.record_stream,
                "wait": e.wait_index,
                "wait_stream": e.wait_stream,
            }
            for e in schedule.events
        ],
    }


def schedule_from_json(doc: Mapping[str, object]) -> StreamSchedule:
    """Rebuild a schedule from its :func:`schedule_report_json` fragment.

    Lets the CLI verify externally supplied (possibly tampered)
    schedules against a freshly traced workload.  Raises ``ValueError``
    on documents missing required fields.
    """
    try:
        assignments = tuple(
            ScheduledLaunch(
                index=int(a["index"]),
                name=str(a["name"]),
                stream=int(a["stream"]),
                start_us=float(a["start_us"]),
                end_us=float(a["end_us"]),
            )
            for a in doc["assignments"]  # type: ignore[index, union-attr]
        )
        events = tuple(
            SyncEvent(
                event_id=int(e["id"]),
                record_index=int(e["record"]),
                record_stream=int(e["record_stream"]),
                wait_index=int(e["wait"]),
                wait_stream=int(e["wait_stream"]),
            )
            for e in doc.get("events", [])  # type: ignore[union-attr]
        )
        return StreamSchedule(
            streams=int(doc["streams"]),  # type: ignore[call-overload]
            makespan_us=float(doc["scheduled_us"]),  # type: ignore[arg-type]
            serialized_us=float(doc["serialized_us"]),  # type: ignore[arg-type]
            critical_path_us=float(
                doc["critical_path_us"]  # type: ignore[arg-type]
            ),
            assignments=assignments,
            events=events,
            redundant_events_removed=int(
                doc.get("events_removed", 0)  # type: ignore[call-overload]
            ),
            sync_event_us=float(
                doc.get("sync_event_us", 0.0)  # type: ignore[arg-type]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed schedule document: {exc}") from exc


#: Fill colors for stream lanes in the Gantt DOT export.
_LANE_COLORS = (
    "#dbeafe",
    "#dcfce7",
    "#fef9c3",
    "#fde2e2",
    "#ede9fe",
    "#cffafe",
    "#fce7f3",
    "#e2e8f0",
)


def schedule_to_dot(schedule: StreamSchedule) -> str:
    """Graphviz DOT Gantt view: one color lane per stream, launches in
    issue order (bold program-order chain), sync events dashed red."""
    by_index = {a.index: a for a in schedule.assignments}
    lines = [
        "digraph schedule {",
        "  rankdir=LR;",
        "  node [shape=box, style=filled];",
    ]
    for stream, sequence in sorted(stream_sequences(schedule).items()):
        color = _LANE_COLORS[stream % len(_LANE_COLORS)]
        lines.append(f"  subgraph cluster_stream{stream} {{")
        lines.append(f'    label="stream {stream}";')
        lines.append(f'    color="{color}";')
        for i in sequence:
            a = by_index[i]
            name = a.name.replace('"', "'")
            lines.append(
                f'    n{i} [label="{i}: {name}\\n'
                f'{a.start_us:.1f}-{a.end_us:.1f} us", '
                f'fillcolor="{color}"];'
            )
        for src, dst in zip(sequence, sequence[1:]):
            lines.append(f"    n{src} -> n{dst} [style=bold];")
        lines.append("  }")
    for e in schedule.events:
        lines.append(
            f"  n{e.record_index} -> n{e.wait_index} "
            f'[style=dashed, color=red, label="ev{e.event_id}"];'
        )
    lines.append("}")
    return "\n".join(lines)


__all__ = [
    "ScheduledLaunch",
    "StreamSchedule",
    "SyncEvent",
    "list_schedule",
    "best_schedule",
    "schedule_report_json",
    "schedule_from_json",
    "schedule_to_dot",
]
