"""Deliberately broken stream schedules for the happens-before verifier.

Mirrors ``broken_traces.py``: each tamper function takes a *verified
race-free* schedule of a real workload trace and breaks exactly one of
the properties :func:`repro.analyze.hb.check_schedule` certifies:

* :func:`drop_required_sync` — a load-bearing sync event is deleted, so
  a cross-stream dependence loses its only happens-before ordering (the
  classic forgotten ``cudaStreamWaitEvent``);
* :func:`wrong_stream_wait` — a sync event's wait is rewired to a launch
  on a different stream, so the event fires but blocks the wrong queue
  while the true dependent races ahead;
* :func:`reorder_placement` — two same-stream dependent launches swap
  their time windows, violating the stream's FIFO program order.

Every tamper *searches* for a mutation that the verifier provably
rejects (asserting if none exists), so the fixtures stay adversarial as
the scheduler evolves.

Run as a module to write a tampered schedule document for the CLI
exit-1 smoke::

    python -m tests.broken_schedules dropped-sync /tmp/bad.json
    python -m repro depgraph SK-M-0.5 --scale 0.1 --batch 1 \
        --schedule-json /tmp/bad.json --verify   # exits 1
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.analyze.depgraph import DependenceGraph
from repro.analyze.hb import SyncEvent, check_schedule
from repro.data.datasets import make_sample
from repro.gpusim.engine import launch_prices
from repro.gpusim.trace import KernelLaunch
from repro.hw import get_device
from repro.models import get_workload
from repro.nn.context import ExecutionContext
from repro.opt.schedule import (
    StreamSchedule,
    best_schedule,
    schedule_report_json,
)
from repro.precision import Precision

#: The workload/trace parameters shared with the CLI smoke (must match
#: ``repro depgraph SK-M-0.5 --scale 0.1 --batch 1`` exactly).
WORKLOAD_ID = "SK-M-0.5"
SCALE = 0.1
SEED = 0
DEVICE = "a100"
PRECISION = "fp16"
STREAMS = 4


def workload_trace() -> List[KernelLaunch]:
    """The deterministic trace the CLI smoke verifies against."""
    workload = get_workload(WORKLOAD_ID)
    model = workload.build_model()
    model.eval()
    ctx = ExecutionContext(
        device=get_device(DEVICE),
        precision=Precision.parse(PRECISION),
        simulate_only=True,
    )
    sample = make_sample(
        workload.dataset, frames=workload.frames, seed=SEED, scale=SCALE
    )
    model(sample, ctx)
    return list(ctx.trace)


def healthy_schedule(
    launches: List[KernelLaunch], graph: DependenceGraph
) -> StreamSchedule:
    device = get_device(DEVICE)
    prices = launch_prices(launches, device, PRECISION)
    schedule = best_schedule(launches, device, STREAMS, graph, prices)
    assert check_schedule(launches, schedule, graph) == [], (
        "fixture base schedule must verify clean"
    )
    assert schedule.events, "fixture needs cross-stream sync events to break"
    return schedule


def _rejected(
    launches: List[KernelLaunch],
    graph: DependenceGraph,
    schedule: StreamSchedule,
) -> bool:
    return bool(check_schedule(launches, schedule, graph))


def drop_required_sync(
    launches: List[KernelLaunch],
    graph: DependenceGraph,
    schedule: StreamSchedule,
) -> StreamSchedule:
    """Delete one sync event whose removal the verifier provably catches.

    Every surviving event is irredundant (the scheduler transitively
    reduced the set), so dropping any event guarding a dependence edge
    un-orders it; we still search and assert to stay robust.
    """
    for victim in schedule.events:
        tampered = dataclasses.replace(
            schedule,
            events=tuple(
                e for e in schedule.events if e.event_id != victim.event_id
            ),
        )
        if _rejected(launches, graph, tampered):
            return tampered
    raise AssertionError("no sync event is load-bearing; fixture is broken")


def wrong_stream_wait(
    launches: List[KernelLaunch],
    graph: DependenceGraph,
    schedule: StreamSchedule,
) -> StreamSchedule:
    """Rewire one event's wait side to a launch on a different stream.

    The wait-side stream claim is kept consistent with the new launch,
    so the event is structurally well-formed — only the *ordering* is
    now wrong: the original dependent launch races its producer.
    """
    by_index = {a.index: a for a in schedule.assignments}
    for victim in schedule.events:
        for assignment in schedule.assignments:
            if assignment.stream == victim.wait_stream:
                continue  # keep the wait on a *different* stream
            if assignment.index == victim.record_index:
                continue
            if assignment.start_us < by_index[victim.record_index].end_us:
                continue  # would be malformed-sync, not a race
            tampered_event = SyncEvent(
                event_id=victim.event_id,
                record_index=victim.record_index,
                record_stream=victim.record_stream,
                wait_index=assignment.index,
                wait_stream=assignment.stream,
            )
            tampered = dataclasses.replace(
                schedule,
                events=tuple(
                    tampered_event if e.event_id == victim.event_id else e
                    for e in schedule.events
                ),
            )
            if _rejected(launches, graph, tampered):
                return tampered
    raise AssertionError("could not rewire any wait; fixture is broken")


def reorder_placement(
    launches: List[KernelLaunch],
    graph: DependenceGraph,
    schedule: StreamSchedule,
) -> StreamSchedule:
    """Swap the time windows of two same-stream dependent launches.

    Stream program order is derived from start times, so the dependent
    launch now issues *before* its producer on their shared FIFO stream.
    """
    by_index = {a.index: a for a in schedule.assignments}
    for edge in graph.edges:
        src = by_index[edge.src]
        dst = by_index[edge.dst]
        if src.stream != dst.stream or src.start_us == dst.start_us:
            continue
        swapped = {
            edge.src: dataclasses.replace(
                src, start_us=dst.start_us, end_us=dst.end_us
            ),
            edge.dst: dataclasses.replace(
                dst, start_us=src.start_us, end_us=src.end_us
            ),
        }
        tampered = dataclasses.replace(
            schedule,
            assignments=tuple(
                swapped.get(a.index, a) for a in schedule.assignments
            ),
        )
        if _rejected(launches, graph, tampered):
            return tampered
    raise AssertionError("no same-stream dependent pair to swap")


TamperFunc = Callable[
    [List[KernelLaunch], DependenceGraph, StreamSchedule], StreamSchedule
]

TAMPERS: Dict[str, TamperFunc] = {
    "dropped-sync": drop_required_sync,
    "wrong-stream-wait": wrong_stream_wait,
    "reordered-placement": reorder_placement,
}


def tampered_schedule(kind: str) -> Tuple[List[KernelLaunch], StreamSchedule]:
    """Build the workload trace and one tampered schedule of it."""
    launches = workload_trace()
    graph = DependenceGraph.build(launches)
    schedule = healthy_schedule(launches, graph)
    return launches, TAMPERS[kind](launches, graph, schedule)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2 or argv[0] not in TAMPERS:
        kinds = ", ".join(sorted(TAMPERS))
        print(
            f"usage: python -m tests.broken_schedules {{{kinds}}} OUT.json",
            file=sys.stderr,
        )
        return 2
    kind, out_path = argv
    _, schedule = tampered_schedule(kind)
    with open(out_path, "w") as fh:
        json.dump(schedule_report_json(schedule), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{kind}: tampered schedule written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
