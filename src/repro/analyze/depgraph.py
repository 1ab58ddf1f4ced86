"""Launch-level dependence and liveness analysis over kernel traces.

Every annotated :class:`~repro.gpusim.trace.KernelLaunch` names the
buffers it reads and writes (:class:`~repro.gpusim.trace.BufferAccess`).
From one serialized trace this module builds the dependence DAG —

* **RAW** edges from a buffer's last writer to each subsequent reader,
* **WAR** edges from each reader to the buffer's next writer,
* **WAW** edges between consecutive writers,

— and checks the cross-launch invariants that per-launch sanitizers
(:mod:`repro.analyze.tracecheck`) cannot see:

* ``uninitialized-read`` — a ``ws:`` buffer is read but never written;
* ``raw-order`` — a ``ws:`` buffer is read before its only writes (a
  reordered producer/consumer pair);
* ``workspace-lifetime`` — a ``ws:`` buffer is written but never
  consumed (a leaked staging buffer), or a launch touches more live
  workspace than its ``workspace_bytes`` accounts for (use-after-free
  against the PR 4 liveness model: the buffer would have been freed);
* ``unordered-conflicting-writes`` — two launches plain-write the same
  buffer with no RAW/WAR path ordering them and no atomics resolving
  the conflict (the launch-level generalization of the scatter race
  detector).

From the same DAG the analyzer computes the critical path under the
caller's :func:`~repro.gpusim.engine.launch_prices` node weights.
Because the serialized-stream estimate sums every launch, it can never
be below the longest dependence chain — ``check_latency_model``
cross-validates exactly that and reports ``critical-path-bound``
violations when a future engine change breaks the invariant.
:func:`check_execution` is the one recipe that runs both families of
checks on a priced execution.

Launches with empty read/write sets are treated as unannotated and do
not participate (they still count toward serialized latency).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analyze.tracecheck import TraceViolation
from repro.gpusim.trace import KernelLaunch, KernelTrace
from repro.hw.specs import DeviceSpec
from repro.precision import Precision

if TYPE_CHECKING:
    from repro.opt.schedule import StreamSchedule

#: Absolute slack (bytes) for float byte comparisons.
_EPS_BYTES = 0.5
#: Relative slack for latency comparisons (summation-order noise).
_EPS_REL = 1e-6

#: Edge kinds, in reporting order.
EDGE_KINDS = ("RAW", "WAR", "WAW")


@dataclasses.dataclass(frozen=True)
class DepEdge:
    """One dependence edge between launch indices ``src -> dst``."""

    src: int
    dst: int
    kind: str
    buffer: str


class DependenceGraph:
    """The launch-level dependence DAG of one serialized trace."""

    def __init__(self, launches: Sequence[KernelLaunch], edges: List[DepEdge]):
        self.launches = list(launches)
        self.edges = edges

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, trace: "KernelTrace | Sequence[KernelLaunch]") -> "DependenceGraph":
        """Single pass over program order with per-buffer last-writer and
        readers-since-write state; near-linear in trace size."""
        launches = list(trace)
        edges: List[DepEdge] = []
        seen: set = set()
        last_writer: Dict[str, int] = {}
        readers_since: Dict[str, List[int]] = {}

        def add(src: int, dst: int, kind: str, buffer: str) -> None:
            if src == dst:
                return  # read-modify-write within one launch
            key = (src, dst, kind)
            if key in seen:
                return
            seen.add(key)
            edges.append(DepEdge(src, dst, kind, buffer))

        for i, launch in enumerate(launches):
            read_here = set()
            for access in launch.reads:
                writer = last_writer.get(access.buffer)
                if writer is not None:
                    add(writer, i, "RAW", access.buffer)
                readers_since.setdefault(access.buffer, []).append(i)
                read_here.add(access.buffer)
            for access in launch.writes:
                writer = last_writer.get(access.buffer)
                for reader in readers_since.get(access.buffer, ()):
                    add(reader, i, "WAR", access.buffer)
                if writer is not None:
                    add(writer, i, "WAW", access.buffer)
                last_writer[access.buffer] = i
                # A read-modify-write launch stays a reader of record: any
                # later writer racing with its write also races with its
                # read, so the WAR ordering against it is real.
                readers_since[access.buffer] = (
                    [i] if access.buffer in read_here else []
                )
        return cls(launches, edges)

    # ------------------------------------------------------------------ #
    def edge_counts(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in EDGE_KINDS}
        for edge in self.edges:
            counts[edge.kind] += 1
        return counts

    def critical_path(
        self, prices: Sequence[float]
    ) -> Tuple[List[int], float]:
        """Longest dependence chain: launch indices and its latency (us).

        Edges only ever point forward in program order, so program order
        is a topological order and one forward DP suffices.  ``prices``
        is the trace's :func:`~repro.gpusim.engine.launch_prices` vector.
        """
        n = len(self.launches)
        if n == 0:
            return [], 0.0
        preds: Dict[int, List[int]] = {}
        for edge in self.edges:
            preds.setdefault(edge.dst, []).append(edge.src)
        best = list(prices)
        best_pred: List[Optional[int]] = [None] * n
        for i in range(n):
            for p in preds.get(i, ()):
                candidate = best[p] + prices[i]
                if candidate > best[i]:
                    best[i] = candidate
                    best_pred[i] = p
        end = max(range(n), key=lambda i: best[i])
        path = [end]
        while best_pred[path[-1]] is not None:
            path.append(best_pred[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path, best[end]

    # ------------------------------------------------------------------ #
    def to_json(
        self,
        device: DeviceSpec,
        precision: Precision,
        prices: Sequence[float],
        ndigits: int = 3,
    ) -> Dict[str, object]:
        """Deterministic JSON document (floats rounded for stability);
        ``device`` and ``precision`` label the ``prices`` it reports."""
        path, span = self.critical_path(prices)
        serialized = sum(prices)
        return {
            "device": device.name,
            "precision": precision.value,
            "launches": len(self.launches),
            "edges": self.edge_counts(),
            "critical_path_us": round(span, ndigits),
            "serialized_us": round(serialized, ndigits),
            "parallelism": round(
                serialized / span if span > 0 else 1.0, ndigits
            ),
            "critical_path": [
                {
                    "index": i,
                    "name": self.launches[i].name,
                    "kind": self.launches[i].kind.value,
                    "us": round(prices[i], ndigits),
                }
                for i in path
            ],
        }

    def to_dot(self) -> str:
        """Graphviz DOT export (RAW solid, WAR dashed, WAW dotted)."""
        styles = {"RAW": "solid", "WAR": "dashed", "WAW": "dotted"}
        lines = ["digraph depgraph {", "  rankdir=TB;", "  node [shape=box];"]
        for i, launch in enumerate(self.launches):
            name = launch.name.replace('"', "'")
            lines.append(f'  n{i} [label="{i}: {name}"];')
        for edge in self.edges:
            buffer = edge.buffer.replace('"', "'")
            lines.append(
                f'  n{edge.src} -> n{edge.dst} '
                f'[style={styles[edge.kind]}, label="{edge.kind} {buffer}"];'
            )
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Cross-launch invariant checks
# ---------------------------------------------------------------------- #
def _buffer_extents(launches: Sequence[KernelLaunch]) -> Dict[str, float]:
    """Byte extent of each buffer: the largest access observed."""
    extents: Dict[str, float] = {}
    for launch in launches:
        for access in list(launch.reads) + list(launch.writes):
            extents[access.buffer] = max(
                extents.get(access.buffer, 0.0), float(access.nbytes)
            )
    return extents


def _reachable_via(
    n: int, edges: Iterable[DepEdge], kinds: Tuple[str, ...]
) -> List[int]:
    """Ancestor bitsets over the given edge kinds (program order is
    topological, so one forward pass closes the relation)."""
    preds: Dict[int, List[int]] = {}
    for edge in edges:
        if edge.kind in kinds:
            preds.setdefault(edge.dst, []).append(edge.src)
    ancestors = [0] * n
    for i in range(n):
        acc = 0
        for p in preds.get(i, ()):
            acc |= ancestors[p] | (1 << p)
        ancestors[i] = acc
    return ancestors


def check_dependences(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    graph: Optional[DependenceGraph] = None,
) -> List[TraceViolation]:
    """Use-before-def, workspace-lifetime and write-ordering checks.
    ``graph`` is the trace's :class:`DependenceGraph` when the caller
    already built it."""
    launches = list(trace)
    if graph is None:
        graph = DependenceGraph.build(launches)
    violations: List[TraceViolation] = []
    extents = _buffer_extents(launches)

    first_write: Dict[str, int] = {}
    first_read: Dict[str, int] = {}
    read_buffers: set = set()
    for i, launch in enumerate(launches):
        for access in launch.reads:
            first_read.setdefault(access.buffer, i)
            read_buffers.add(access.buffer)
        for access in launch.writes:
            first_write.setdefault(access.buffer, i)

    # --- use-before-def / raw-order on workspace buffers --------------- #
    for buffer, reader in sorted(first_read.items()):
        if not buffer.startswith("ws:"):
            continue
        writer = first_write.get(buffer)
        if writer is None:
            violations.append(
                TraceViolation(
                    invariant="uninitialized-read",
                    launch=launches[reader].name,
                    message=(
                        f"workspace buffer {buffer!r} is read but no launch "
                        f"in the trace ever writes it (dropped producer?)"
                    ),
                )
            )
        elif writer > reader:
            violations.append(
                TraceViolation(
                    invariant="raw-order",
                    launch=launches[reader].name,
                    message=(
                        f"workspace buffer {buffer!r} is read at launch "
                        f"{reader} before its first write at launch {writer} "
                        f"({launches[writer].name!r}): missing RAW ordering"
                    ),
                )
            )

    # --- leaked staging buffers (written, never consumed) -------------- #
    for buffer, writer in sorted(first_write.items()):
        if buffer.startswith("ws:") and buffer not in read_buffers:
            violations.append(
                TraceViolation(
                    invariant="workspace-lifetime",
                    launch=launches[writer].name,
                    message=(
                        f"workspace buffer {buffer!r} is written but never "
                        f"read: leaked staging allocation of "
                        f"{extents.get(buffer, 0.0):.0f} bytes"
                    ),
                )
            )

    # --- per-launch liveness accounting (use-after-free) ---------------- #
    # A launch needs the bytes *it* accesses to be live — its own access
    # extents, not the buffer's global maximum (the same scoped buffer
    # name recurs across samples of different sizes).
    for launch in launches:
        touched: Dict[str, float] = {}
        for access in list(launch.reads) + list(launch.writes):
            if access.workspace:
                touched[access.buffer] = max(
                    touched.get(access.buffer, 0.0), float(access.nbytes)
                )
        live = sum(touched.values())
        if live > float(launch.workspace_bytes) + _EPS_BYTES:
            names = ", ".join(sorted(touched))
            violations.append(
                TraceViolation(
                    invariant="workspace-lifetime",
                    launch=launch.name,
                    message=(
                        f"launch touches {live:.0f} bytes of live workspace "
                        f"({names}) but accounts only "
                        f"{float(launch.workspace_bytes):.0f} "
                        f"workspace_bytes: buffers it relies on would "
                        f"already be freed"
                    ),
                )
            )

    # --- unordered conflicting plain writes ----------------------------- #
    # Two plain (non-atomic) writers of one buffer race unless a RAW or
    # WAR chain pins their relative order; a bare WAW edge does not — a
    # dependence-preserving parallel scheduler is free to reorder it.
    plain_writers: Dict[str, List[int]] = {}
    atomic_only: Dict[Tuple[str, int], bool] = {}
    for i, launch in enumerate(launches):
        by_buffer: Dict[str, List[bool]] = {}
        for access in launch.writes:
            by_buffer.setdefault(access.buffer, []).append(access.atomic)
        for buffer, atomics in by_buffer.items():
            if all(atomics):
                continue  # fully atomic: hardware-ordered
            writers = plain_writers.setdefault(buffer, [])
            if writers and writers[-1] == i:
                continue
            writers.append(i)
    conflicts = {
        buffer: writers
        for buffer, writers in plain_writers.items()
        if len(writers) > 1
    }
    if conflicts:
        ancestors = _reachable_via(
            len(launches), graph.edges, ("RAW", "WAR")
        )
        for buffer, writers in sorted(conflicts.items()):
            for a, b in zip(writers, writers[1:]):
                if not (ancestors[b] >> a) & 1:
                    violations.append(
                        TraceViolation(
                            invariant="unordered-conflicting-writes",
                            launch=launches[b].name,
                            message=(
                                f"launches {launches[a].name!r} and "
                                f"{launches[b].name!r} both plain-write "
                                f"buffer {buffer!r} with no RAW/WAR path "
                                f"ordering them: non-deterministic final "
                                f"value"
                            ),
                        )
                    )
    return violations


def check_latency_model(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    device: DeviceSpec,
    graph: DependenceGraph,
    prices: Sequence[float],
    schedule: Optional["StreamSchedule"] = None,
) -> List[TraceViolation]:
    """Cross-validate the serialized-stream estimate against the DAG
    critical-path lower bound, and a sync-aware multi-stream schedule
    (``schedule``, else a fresh two-stream one) against both bounds plus
    the happens-before race detector.  ``graph`` is the trace's
    :class:`DependenceGraph` and ``prices`` its
    :func:`~repro.gpusim.engine.launch_prices` vector: both bounds and
    the fresh schedule read them."""
    launches = list(trace)
    _, span = graph.critical_path(prices)
    serialized = sum(prices)
    violations: List[TraceViolation] = []
    if serialized < span * (1.0 - _EPS_REL) - _EPS_REL:
        violations.append(
            TraceViolation(
                invariant="critical-path-bound",
                message=(
                    f"serialized-stream estimate {serialized:.3f} us is "
                    f"below the dependence critical path {span:.3f} us: "
                    f"the latency model undercuts its own lower bound"
                ),
            )
        )
    if launches:
        # Imported lazily: repro.opt builds on this module.
        from repro.analyze.hb import check_schedule
        from repro.opt.schedule import best_schedule

        if schedule is None:
            schedule = best_schedule(launches, device, 2, graph, prices)
        # The schedule is bounded by its *own* weight sums (the same
        # estimate_launch_us weights its makespan is built from), so
        # this stays a scheduler-consistency check even when the trace
        # estimate above disagrees with the DAG.
        if schedule.makespan_us < span * (1.0 - _EPS_REL) - _EPS_REL:
            violations.append(
                TraceViolation(
                    invariant="scheduled-latency-bound",
                    message=(
                        f"scheduled estimate {schedule.makespan_us:.3f} us "
                        f"({schedule.streams} streams) is below the "
                        f"dependence critical path {span:.3f} us: the "
                        f"scheduler claims impossible overlap"
                    ),
                )
            )
        if schedule.makespan_us > schedule.serialized_us * (
            1.0 + _EPS_REL
        ) + _EPS_REL:
            violations.append(
                TraceViolation(
                    invariant="scheduled-latency-bound",
                    message=(
                        f"scheduled estimate {schedule.makespan_us:.3f} us "
                        f"({schedule.streams} streams) exceeds the "
                        f"serialized latency "
                        f"{schedule.serialized_us:.3f} us: min-over-K must "
                        f"fall back to one stream"
                    ),
                )
            )
        violations.extend(check_schedule(launches, schedule, graph))
    return violations


def check_execution(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    device: DeviceSpec,
    graph: DependenceGraph,
    prices: Sequence[float],
    schedule: Optional["StreamSchedule"] = None,
) -> List[TraceViolation]:
    """The checks on one priced execution: :func:`check_dependences`,
    then :func:`check_latency_model` on ``schedule`` (else a fresh
    two-stream one).  The trace check, lint's trace rules and ``repro
    depgraph`` all run this one recipe on the graph and price vector
    they already hold."""
    return check_dependences(trace, graph) + check_latency_model(
        trace, device, graph, prices, schedule
    )


def depgraph_report(
    graph: DependenceGraph,
    device: DeviceSpec,
    precision: Precision,
    prices: Sequence[float],
    violations: Sequence[TraceViolation],
    *,
    passes: Sequence[Dict[str, object]] = (),
    schedule: Optional["StreamSchedule"] = None,
    verification: Optional[Sequence[TraceViolation]] = None,
) -> Dict[str, object]:
    """The ``repro depgraph --json`` document: the graph summary, the
    ``violations`` of :func:`check_execution`, and when given the
    optimization ``passes``, the reported ``schedule`` and its
    ``verification`` by :func:`~repro.analyze.hb.check_schedule`."""
    doc = graph.to_json(device, precision, prices)
    doc["violations"] = [v.to_dict() for v in violations]
    if passes:
        doc["passes"] = list(passes)
    if schedule is not None:
        # Imported lazily: repro.opt builds on this module.
        from repro.opt.schedule import schedule_report_json

        doc["schedule"] = schedule_report_json(schedule)
    if verification is not None:
        doc["schedule_verification"] = [v.to_dict() for v in verification]
    return doc


__all__ = [
    "DepEdge",
    "DependenceGraph",
    "check_dependences",
    "check_execution",
    "check_latency_model",
    "depgraph_report",
]
