"""Property tests for the multi-stream list scheduler (``repro.opt.schedule``).

A seeded random-DAG generator (mirroring ``tests/broken_traces.py``'s
fixture style) drives the schedule-validity properties:

* no hazard edge crosses streams out of order — for every dependence
  edge the source finishes before the destination starts;
* launches sharing a stream never overlap;
* ``best_schedule`` is monotone non-increasing in the stream budget K;
* ``critical_path <= scheduled <= serialized`` for K in {1, 2, 4, 8};
* K = 1 reproduces the serialized estimate *bitwise*.

The built-in workload sweep locks the ISSUE acceptance criterion: on
every bundled workload, a K >= 2 schedule is strictly faster than
serialized execution.
"""

import random

import pytest

from repro.analyze.depgraph import DependenceGraph
from repro.data.datasets import make_sample
from repro.gpusim.engine import estimate_trace_us
from repro.gpusim.trace import BufferAccess, KernelLaunch, KernelTrace, LaunchKind
from repro.hw import get_device
from repro.models.registry import WORKLOADS
from repro.nn.context import ExecutionContext
from repro.opt.schedule import (
    best_schedule,
    list_schedule,
)
from repro.precision import Precision

A100 = get_device("a100")
FP16 = Precision.FP16
STREAM_COUNTS = (1, 2, 4, 8)

#: Relative slack for float comparisons over summed launch times.
REL = 1e-9


def random_dag_trace(seed: int, n: int = 40) -> KernelTrace:
    """A seeded random launch DAG with realistic hazard structure.

    Launch ``i`` writes its own staging buffer and reads a random subset
    of earlier launches' buffers (RAW edges of random shape); a final
    sink consumes every buffer so the trace stays leak-free under the
    depgraph's workspace-lifetime rule.
    """
    rng = random.Random(seed)
    launches = []
    for i in range(n):
        nbytes = float(rng.randrange(1, 64) * 1024)
        reads = []
        read_bytes = 0.0
        for j in rng.sample(range(i), k=min(i, rng.randrange(0, 3))):
            prior = float(rng.randrange(1, 64) * 256)
            reads.append(BufferAccess(f"ws:stage.{j}", prior))
            read_bytes += prior
        writes = (BufferAccess(f"ws:stage.{i}", nbytes),)
        launches.append(
            KernelLaunch(
                name=f"random/node{i}",
                kind=rng.choice(list(LaunchKind)),
                flops=float(rng.randrange(1, 2000)) * 1e4,
                dram_read_bytes=read_bytes,
                dram_write_bytes=nbytes,
                scalar_ops=float(rng.randrange(0, 500)),
                workspace_bytes=nbytes + read_bytes,
                ctas=rng.randrange(1, 64),
                reads=tuple(reads),
                writes=writes,
            )
        )
    sink_reads = tuple(
        BufferAccess(f"ws:stage.{i}", 128.0) for i in range(n)
    )
    launches.append(
        KernelLaunch(
            name="random/sink",
            kind=LaunchKind.REDUCTION,
            dram_read_bytes=128.0 * n,
            dram_write_bytes=1024.0,
            workspace_bytes=128.0 * n,
            reads=sink_reads,
            writes=(BufferAccess("ext:out", 1024.0),),
        )
    )
    return KernelTrace(launches)


SEEDS = tuple(range(6))


class TestScheduleValidity:
    @pytest.mark.parametrize("streams", STREAM_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_hazard_edge_violated(self, seed, streams):
        trace = random_dag_trace(seed)
        graph = DependenceGraph.build(trace)
        schedule = list_schedule(trace, A100, FP16, streams, graph)
        by_index = {a.index: a for a in schedule.assignments}
        for edge in graph.edges:
            src, dst = by_index[edge.src], by_index[edge.dst]
            assert src.end_us <= dst.start_us + REL * max(1.0, src.end_us), (
                f"{edge.kind} edge {edge.src}->{edge.dst} on "
                f"{edge.buffer} crosses streams out of order"
            )

    @pytest.mark.parametrize("streams", STREAM_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_never_overlap(self, seed, streams):
        trace = random_dag_trace(seed)
        schedule = list_schedule(trace, A100, FP16, streams)
        per_stream = {}
        for a in schedule.assignments:
            per_stream.setdefault(a.stream, []).append(a)
        for assigned in per_stream.values():
            assigned.sort(key=lambda a: a.start_us)
            for prev, cur in zip(assigned, assigned[1:]):
                assert prev.end_us <= cur.start_us + REL * max(
                    1.0, prev.end_us
                )
        assert schedule.used_streams <= streams

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_launch_scheduled_once(self, seed):
        trace = random_dag_trace(seed)
        schedule = list_schedule(trace, A100, FP16, 4)
        assert sorted(a.index for a in schedule.assignments) == list(
            range(len(trace))
        )


class TestLatencyBounds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_monotone_in_stream_budget(self, seed):
        trace = random_dag_trace(seed)
        graph = DependenceGraph.build(trace)
        makespans = [
            best_schedule(trace, A100, FP16, k, graph).makespan_us
            for k in STREAM_COUNTS
        ]
        for wider, narrower in zip(makespans[1:], makespans):
            assert wider <= narrower * (1 + REL)

    @pytest.mark.parametrize("streams", STREAM_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_within_critical_path_and_serialized(self, seed, streams):
        trace = random_dag_trace(seed)
        schedule = best_schedule(trace, A100, FP16, streams)
        assert (
            schedule.critical_path_us * (1 - REL)
            <= schedule.makespan_us
            <= schedule.serialized_us * (1 + REL)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_stream_is_serialized_bitwise(self, seed):
        trace = random_dag_trace(seed)
        schedule = list_schedule(trace, A100, FP16, 1)
        # Exact equality, not approx: same launches, same left-to-right
        # summation order.
        assert schedule.makespan_us == schedule.serialized_us
        assert schedule.makespan_us == estimate_trace_us(trace, A100, FP16)

    def test_invalid_stream_count_rejected(self):
        with pytest.raises(ValueError, match="streams"):
            list_schedule(random_dag_trace(0), A100, FP16, 0)
        with pytest.raises(ValueError, match="streams"):
            estimate_trace_us(random_dag_trace(0), A100, FP16, streams=0)


class TestBarrierSemantics:
    def test_unannotated_trace_schedules_serialized(self):
        # No read/write annotations -> no provable overlap: the model
        # must claim nothing.
        launches = [
            KernelLaunch(
                name=f"opaque/{i}",
                kind=LaunchKind.MEMORY,
                dram_read_bytes=4096.0,
                dram_write_bytes=4096.0,
            )
            for i in range(10)
        ]
        trace = KernelTrace(launches)
        for k in STREAM_COUNTS:
            schedule = list_schedule(trace, A100, FP16, k)
            assert schedule.makespan_us == schedule.serialized_us

    def test_barrier_fences_annotated_work(self):
        # annotated | barrier | annotated: nothing after the barrier may
        # start before it ends.
        trace = list(random_dag_trace(3, n=8))
        barrier = KernelLaunch(
            name="opaque/barrier",
            kind=LaunchKind.MEMORY,
            dram_write_bytes=1.0,
        )
        fenced = KernelTrace([*trace[:-1], barrier, trace[-1]])
        schedule = list_schedule(fenced, A100, FP16, 4)
        b = next(a for a in schedule.assignments if a.name == "opaque/barrier")
        before = [a for a in schedule.assignments if a.index < b.index]
        after = [a for a in schedule.assignments if a.index > b.index]
        assert all(a.end_us <= b.start_us + REL for a in before)
        assert all(a.start_us >= b.end_us - REL for a in after)


class TestBuiltinWorkloads:
    """ISSUE acceptance: K >= 2 beats serialized on every workload."""

    @pytest.mark.parametrize("workload_id", sorted(WORKLOADS))
    def test_two_streams_strictly_beat_serialized(self, workload_id):
        workload = WORKLOADS[workload_id]
        model = workload.build_model()
        model.eval()
        ctx = ExecutionContext(device=A100, precision=FP16, simulate_only=True)
        sample = make_sample(
            workload.dataset, frames=workload.frames, seed=0, scale=0.1
        )
        model(sample, ctx)
        serialized = estimate_trace_us(ctx.trace, A100, FP16)
        scheduled = estimate_trace_us(ctx.trace, A100, FP16, streams=2)
        assert scheduled < serialized
        graph = DependenceGraph.build(ctx.trace)
        _, span = graph.critical_path(A100, FP16)
        assert span <= scheduled * (1 + REL)

    def test_context_gpu_streams_lowers_latency(self):
        workload = WORKLOADS["SK-M-0.5"]
        sample = make_sample(workload.dataset, frames=1, seed=0, scale=0.1)
        latencies = {}
        for streams in (1, 4):
            model = workload.build_model()
            model.eval()
            ctx = ExecutionContext(
                device=A100, precision=FP16,
                simulate_only=True, gpu_streams=streams,
            )
            model(sample, ctx)
            latencies[streams] = ctx.latency_us()
        assert latencies[4] < latencies[1]

    def test_context_rejects_bad_stream_count(self):
        with pytest.raises(ValueError, match="gpu_streams"):
            ExecutionContext(gpu_streams=0)
