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
and every per-K phase in about O(n·K + E + B·K·log n) for ``n``
launches, ``E`` dependence pairs and ``B`` barriers:

1. **Price once.** The caller's :func:`~repro.gpusim.engine.launch_prices`
   vector and dependence graph are required inputs: the scheduler never
   prices a launch or builds a graph itself.  The graph's predecessor
   lists, the dependence pairs with no barrier between their endpoints,
   each launch's latest predecessor and earliest successor, the barrier
   indices and the critical path are computed from them once per trace
   and shared by every K.
2. **K = 1** is the serialized prefix sum: no placement, no candidates,
   no reduction.
3. **Placement-bound pruning.** With ``sync_event_us >= 0`` the
   sync-free placement makespan of a K is a lower bound on its re-timed
   makespan (max and addition are monotone, and the reduced events close
   over every dependence), so a K whose placement already reaches the
   best makespan so far cannot win — ties go to the smaller K — and
   skips the remaining phases.
4. **Barrier fences only where they can survive.** The reduction keeps
   a candidate exactly when no other path joins its endpoints, and every
   edge points forward, so such a path stays between them.  Every launch
   is ordered after the barrier before it and before the barrier after
   it, so a candidate that spans a barrier ``x`` is implied by
   ``a -> x -> b``: a dependence pair with a barrier strictly between
   its endpoints, the incoming fence of barrier ``q`` from a launch
   before the previous barrier ``p``, and the outgoing fence of ``p`` to
   a launch after ``q``.  None of these is emitted; they are counted.
   The fences that stay between neighbouring barriers are decided in
   closed form per stream (:func:`_barrier_fences`) and the remaining
   dependence pairs by vector clocks.  Pruning implied edges leaves the
   closure, hence its unique transitive reduction, unchanged, so the
   kept events are those of the full emission, and
   ``redundant_events_removed`` (the full count minus the kept ones)
   keeps its value.
5. **Vector-clock reduction.** Every launch sits on one stream chain and
   every edge points forward in program order, so a launch's ancestors
   on each stream form a prefix of that stream: one clock entry per
   stream answers ``ordered(a, b)`` as ``a <= clock[b][stream(a)]``.
6. Only the winning K's placements and events are materialized.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analyze.depgraph import DependenceGraph
from repro.analyze.hb import SyncEvent, stream_sequences
from repro.gpusim.trace import KernelLaunch, KernelTrace
from repro.hw.specs import DeviceSpec


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
    #: Distinct dependence predecessors of each launch.
    preds: List[List[int]]
    is_barrier: List[bool]
    #: Barrier (unannotated) launch indices, ascending.
    barriers: np.ndarray
    #: The distinct dependence pairs as an ``(E, 2)`` array of
    #: ``(src, dst)`` rows, and its rows with no barrier strictly between
    #: their endpoints.
    pairs: np.ndarray
    local_pairs: np.ndarray
    #: Per launch, its latest dependence predecessor (-1 when none) and
    #: its earliest dependence successor (n when none).
    last_pred: np.ndarray
    first_succ: np.ndarray
    serialized_us: float
    critical_path_us: float


def _trace_state(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    graph: DependenceGraph,
    prices: Sequence[float],
) -> _TraceState:
    launches = list(trace)
    n = len(launches)
    if len(prices) != n:
        raise ValueError(f"{len(prices)} prices for {n} launches")
    preds = graph.predecessors
    # Serialized latency summed in program order: the K = 1 makespan is
    # the same left-to-right sum, so the two agree bitwise.
    serialized = 0.0
    for price in prices:
        serialized += price
    _, span = graph.critical_path(prices)
    is_barrier = [launch.is_barrier for launch in launches]
    barriers = np.flatnonzero(np.array(is_barrier, dtype=bool))
    counts = [len(p) for p in preds]
    src = np.fromiter(itertools.chain.from_iterable(preds), np.intp, sum(counts))
    dst = np.repeat(np.arange(n, dtype=np.intp), counts)
    # The first barrier after each edge's source (n when none follows).
    # Barriers carry no accesses, so no edge ends on one.
    fence = np.append(barriers, n)[np.searchsorted(barriers, src, side="right")]
    last_pred = np.full(n, -1, dtype=np.intp)
    np.maximum.at(last_pred, dst, src)
    first_succ = np.full(n, n, dtype=np.intp)
    np.minimum.at(first_succ, src, dst)
    pairs = np.stack((src, dst), axis=1)
    return _TraceState(
        launches=launches,
        prices=list(prices),
        preds=preds,
        is_barrier=is_barrier,
        barriers=barriers,
        pairs=pairs,
        local_pairs=pairs[fence > dst],
        last_pred=last_pred,
        first_succ=first_succ,
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
    free_at = [0.0] * streams
    ends: List[float] = []
    horizon = 0.0
    barrier_end = 0.0
    stream_of: List[int] = []
    # ``if x > y: y = x`` is ``y = max(y, x)`` without the call.
    for price, preds, barrier in zip(state.prices, state.preds, state.is_barrier):
        ready = barrier_end
        for p in preds:
            if ends[p] > ready:
                ready = ends[p]
        if barrier:
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
        ends.append(end)
        if end > horizon:
            horizon = end
        if barrier and end > barrier_end:
            barrier_end = end
        stream_of.append(stream)
    return stream_of, horizon


def _sync_edges(
    state: _TraceState, stream_of: Sequence[int], streams: int
) -> Tuple[List[Tuple[int, int]], int]:
    """Phases 2 and 3: the sync events a placement keeps, sorted by
    ``(dst, src)``, and how many candidate events the full emission
    holds (the kept ones plus those the reduction removes).

    The full emission is one candidate per dependence edge whose
    endpoints sit on different streams, plus each barrier's fences: it
    syncs against the last launch before it and the first launch after
    it on every *other* stream.  The transitive reduction then keeps a
    candidate exactly when no other path joins its endpoints.  Every
    edge points forward, so a path from ``a`` to ``b`` stays within
    ``[a, b]``:

    * a dependence edge with a barrier ``x`` strictly between its
      endpoints is implied by ``a -> x -> b``;
    * a dependence edge with none is reduced against the other such
      edges and program order only (:func:`_kept_sync_edges`), since no
      fence has both endpoints in ``[a, b]``;
    * the fences are decided by :func:`_barrier_fences`.

    Only the kept events are materialized; the others are counted.
    """
    placed = np.asarray(stream_of)
    cross = placed[state.pairs[:, 0]] != placed[state.pairs[:, 1]]
    total = int(np.count_nonzero(cross))
    local = state.local_pairs[
        placed[state.local_pairs[:, 0]] != placed[state.local_pairs[:, 1]]
    ]
    kept = _kept_sync_edges(
        stream_of, streams, list(zip(local[:, 0].tolist(), local[:, 1].tolist()))
    )
    if not len(state.barriers):
        return kept, total
    fences, fence_total = _barrier_fences(state, placed)
    kept += fences
    kept.sort(key=lambda pair: (pair[1], pair[0]))
    return kept, total + fence_total


def _barrier_fences(
    state: _TraceState, stream_of: np.ndarray
) -> Tuple[List[Tuple[int, int]], int]:
    """The barrier fences the reduction keeps, and the number of distinct
    fences in the full emission.

    Let ``p < q`` be consecutive barriers.  Every launch between them is
    ordered after ``p`` and before ``q``, so:

    * ``p``'s fence to ``c``, the first launch on another stream after
      ``p``, is implied unless every other in-edge of ``c`` starts
      before ``p``: kept when ``c < q`` has no dependence predecessor
      after ``p``, or when ``c == q`` directly follows ``p``;
    * ``q``'s fence from ``a``, the last launch on another stream
      before ``q``, is implied unless every other out-edge of ``a`` ends
      after ``q``: kept when ``a > p`` has no dependence successor
      before ``q`` (``a == p`` is the pair above).

    A fence that reaches past a neighbouring barrier is thus never kept.
    Barriers have no dependence edges, so fences can repeat only each
    other: ``x -> b`` of two barriers on different streams is both
    ``b``'s incoming fence and ``x``'s outgoing one when nothing on
    either stream lies between them.  The total counts such a pair once.
    """
    barriers = state.barriers
    n = stream_of.size
    own = stream_of[barriers]
    # Launch indices grouped by stream, in program order within each.
    order = np.argsort(stream_of, kind="stable")
    grouped = stream_of[order]
    # The previous launch on each launch's own stream, or -1.
    prev_same = np.full(n, -1, dtype=np.intp)
    same = grouped[1:] == grouped[:-1]
    prev_same[order[1:][same]] = order[:-1][same]
    prev_own = prev_same[barriers]
    is_barrier = np.zeros(n, dtype=bool)
    is_barrier[barriers] = True
    prev_barrier = np.concatenate(([-1], barriers[:-1]))
    next_barrier = np.concatenate((barriers[1:], [n]))
    adjacent = next_barrier == barriers + 1
    bounds = np.searchsorted(grouped, np.arange(int(grouped[-1]) + 2))
    sources: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    total = 0
    for stream in range(bounds.size - 1):
        members = order[bounds[stream]:bounds[stream + 1]]
        if not members.size:
            continue
        other = own != stream
        pos = np.searchsorted(members, barriers)
        before = members[np.maximum(pos - 1, 0)]
        after = members[np.minimum(pos, members.size - 1)]
        incoming = other & (pos > 0)
        outgoing = other & (pos < members.size)
        # ``before -> b`` repeats ``before``'s own outgoing fence when
        # ``before`` is a barrier and ``b`` is the first launch on its
        # stream after it.
        repeated = incoming & is_barrier[before] & (prev_own < before)
        total += int(
            np.count_nonzero(incoming) + np.count_nonzero(outgoing)
            - np.count_nonzero(repeated)
        )
        keep = (
            incoming
            & (before > prev_barrier)
            & (state.first_succ[before] > barriers)
        )
        sources.append(before[keep])
        targets.append(barriers[keep])
        keep = outgoing & np.where(
            after < next_barrier,
            state.last_pred[after] < barriers,
            (after == next_barrier) & adjacent,
        )
        sources.append(barriers[keep])
        targets.append(after[keep])
    fences = list(
        zip(np.concatenate(sources).tolist(), np.concatenate(targets).tolist())
    )
    return fences, total


def _kept_sync_edges(
    stream_of: Sequence[int],
    streams: int,
    sync_edges: Sequence[Tuple[int, int]],
) -> List[Tuple[int, int]]:
    """Phase 3: the sync edges a transitive reduction keeps, distinct and
    sorted by ``(dst, src)``.

    The answer is what :func:`repro.analyze.hb.redundant_sync_edges`
    leaves over the program-order edges of ``stream_of`` (consecutive
    launches per stream), provided every edge points forward
    (``src < dst``).  Then each launch's ancestors on a stream are a
    prefix of that stream, so one vector clock per launch — the index of
    its last ancestor on every stream, or -1 — decides ``a`` happens
    before ``b`` as ``a <= clock[b][stream_of[a]]``.  A sync edge
    ``a -> b`` is dropped when it repeats another, joins two launches of
    one stream, or another direct predecessor of ``b`` is ordered after
    ``a``.
    """
    sources: Dict[int, Set[int]] = {}
    for src, dst in sync_edges:
        if stream_of[src] != stream_of[dst]:
            sources.setdefault(dst, set()).add(src)
    # Only the endpoints of sync edges need a clock: a launch without
    # incoming sync edges has its stream predecessor's clock (its own
    # stream's entry is never read), so ``current[s]`` holds the clock
    # of the last launch on stream s that had incoming sync edges.
    endpoints = set(sources)
    for srcs in sources.values():
        endpoints |= srcs
    none = [-1] * streams
    current = [none] * streams
    clocks: Dict[int, List[int]] = {}
    kept: List[Tuple[int, int]] = []
    for b in sorted(endpoints):
        stream = stream_of[b]
        if b in sources:
            srcs = sorted(sources[b])
            # ``seen``: everything b's predecessors are ordered after (a
            # source's own entry is stale but below its index, so
            # merging it is harmless).  ``clock`` then adds the sources
            # themselves.
            seen = current[stream]
            for a in srcs:
                seen = [y if y > x else x for x, y in zip(seen, clocks[a])]
            clock = list(seen)
            for a in srcs:
                if a > clock[stream_of[a]]:
                    clock[stream_of[a]] = a
            # ``a -> b`` is implied when another predecessor is ordered
            # after a, or is a later launch of a's own stream.
            for a in srcs:
                if seen[stream_of[a]] < a == clock[stream_of[a]]:
                    kept.append((a, b))
            current[stream] = clock
        clocks[b] = current[stream]
    return kept


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
    kept, emitted = _sync_edges(state, stream_of, streams)
    starts, ends, horizon = _retime(state, streams, stream_of, kept, sync_cost)
    return _Timing(
        streams=streams,
        stream_of=stream_of,
        starts=starts,
        ends=ends,
        makespan_us=horizon,
        kept=kept,
        removed=emitted - len(kept),
    )


def _materialize(
    state: _TraceState, timing: _Timing, sync_cost: float
) -> StreamSchedule:
    stream = timing.stream_of.__getitem__
    records = [src for src, _ in timing.kept]
    waits = [dst for _, dst in timing.kept]
    return StreamSchedule(
        streams=timing.streams,
        makespan_us=timing.makespan_us,
        serialized_us=state.serialized_us,
        critical_path_us=state.critical_path_us,
        # Positional ``map`` over the field columns: the cheapest way to
        # build one frozen record per launch and per event.
        assignments=tuple(
            map(
                ScheduledLaunch,
                range(len(state.launches)),
                [launch.name for launch in state.launches],
                timing.stream_of,
                timing.starts,
                timing.ends,
            )
        ),
        events=tuple(
            map(
                SyncEvent,
                range(len(records)),
                records,
                map(stream, records),
                waits,
                map(stream, waits),
            )
        ),
        redundant_events_removed=timing.removed,
        sync_event_us=sync_cost,
        prices=tuple(state.prices),
    )


def list_schedule(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    device: DeviceSpec,
    streams: int,
    graph: DependenceGraph,
    prices: Sequence[float],
) -> StreamSchedule:
    """Greedy program-order list schedule onto exactly ``streams`` streams.

    Runs in four phases: greedy placement, sync-event emission for
    every cross-stream ordering, transitive reduction of the event set,
    and a final re-timing pass that charges ``device.sync_event_us``
    per surviving event.  ``graph`` and ``prices`` are the trace's, as
    for :func:`best_schedule`.

    Note: makespan is not guaranteed monotone in ``streams`` (Graham's
    scheduling anomalies), and with nonzero sync cost a fixed K can
    schedule *worse* than serialized; use :func:`best_schedule`
    for a monotone latency figure.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    state = _trace_state(trace, graph, prices)
    timing = _timing(state, streams, device.sync_event_us)
    assert timing is not None
    return _materialize(state, timing, device.sync_event_us)


def best_schedule(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    device: DeviceSpec,
    streams: int,
    graph: DependenceGraph,
    prices: Sequence[float],
) -> StreamSchedule:
    """The best list schedule over 1..``streams`` streams.

    Taking the min over stream counts sidesteps Graham's anomalies and
    sync-cost blowups at large K: the result is monotone non-increasing
    in ``streams`` and always in ``[critical_path, serialized]``.  Ties
    go to the smallest stream count, so overlap whose sync cost eats
    the whole win falls back to fewer streams (ultimately K=1 with zero
    events).  ``graph`` is the trace's dependence graph and ``prices``
    its :func:`~repro.gpusim.engine.launch_prices` vector (which does
    not depend on ``sync_event_us``); no launch is priced here.  A K
    whose sync-free placement cannot beat the best makespan so far is
    pruned — exact only for ``sync_event_us >= 0``, which is enforced.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    sync_cost = device.sync_event_us
    if sync_cost < 0:
        raise ValueError(
            f"sync_event_us must be >= 0 for placement-bound pruning, "
            f"got {sync_cost}"
        )
    state = _trace_state(trace, graph, prices)
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
