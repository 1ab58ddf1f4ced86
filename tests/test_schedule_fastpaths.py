"""The scheduler's fast paths against their references (``repro.opt.schedule``).

``best_schedule`` reads the caller's price vector, takes K = 1 as the
serialized prefix sum, prunes stream counts whose sync-free placement
cannot win, and reduces sync events with per-stream vector clocks.  Each
shortcut is checked against the slow path it replaces:

* the vector-clock reduction keeps exactly the sync edges that
  :func:`repro.analyze.hb.redundant_sync_edges` (the bitset closure,
  kept as the independent verifier) keeps — on seeded random DAGs with
  duplicate pairs and barrier launches under random placements, and on
  the batches a multi-stream serving run schedules;
* the scheduler never emits a barrier fence a neighbouring barrier
  implies, yet keeps the same events and counts the same removals as
  the full emission (:func:`full_sync_candidates`, the one-candidate-
  per-ordering rule, kept here as the reference) reduced by that
  verifier — on the same DAGs and batches, on barrier edge cases and
  as a ``hypothesis`` property;
* ``best_schedule`` equals an exhaustive min over ``list_schedule(K)``,
  field by field, and the pruning actually fires;
* pricing a trace and scheduling it prices every launch exactly once;
* the summation orders the goldens depend on stay put: ``sum()`` is
  compensated on Python >= 3.12, the explicit left-to-right loop is not.
"""

import bisect
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.depgraph import DependenceGraph
from repro.analyze.hb import redundant_sync_edges
from repro.gpusim import engine
from repro.gpusim.trace import BufferAccess, KernelLaunch, KernelTrace, LaunchKind
from repro.hw import get_device
from repro.opt import schedule as opt_schedule
from repro.opt.schedule import best_schedule, list_schedule
from repro.precision import Precision
from tests.serving_batches import SERVE_STREAMS
from tests.test_opt_scheduler import graph_and_prices, random_dag_trace

A100 = get_device("a100")
FP16 = Precision.FP16
DEVICES = {
    "default-sync": A100,
    "free-sync": dataclasses.replace(A100, sync_event_us=0.0),
    "costly-sync": dataclasses.replace(A100, sync_event_us=25.0),
    "k1-wins": dataclasses.replace(A100, sync_event_us=1e9),
}


def barrier_dag_trace(seed: int, n: int = 30) -> KernelTrace:
    """Random forward DAG with duplicate pairs and unannotated barriers.

    Some launches read and rewrite an earlier buffer (a RAW and a WAW
    edge between the same two launches); some carry no accesses at all,
    which the scheduler treats as barriers.
    """
    rng = random.Random(seed)
    launches = []
    written = []
    for i in range(n):
        common = dict(
            name=f"dag/{i}",
            kind=rng.choice(list(LaunchKind)),
            flops=float(rng.randrange(1, 2000)) * 1e4,
            dram_write_bytes=float(rng.randrange(1, 64) * 1024),
            ctas=rng.randrange(1, 64),
        )
        if i and rng.random() < 0.15:
            launches.append(KernelLaunch(**common))
            continue
        reads = [
            BufferAccess(f"buf.{j}", 256.0)
            for j in rng.sample(written, k=min(len(written), rng.randrange(0, 4)))
        ]
        writes = [BufferAccess(f"buf.{i}", 1024.0)]
        if reads and rng.random() < 0.3:
            writes.append(BufferAccess(reads[0].buffer, 256.0))
        launches.append(
            KernelLaunch(**common, reads=tuple(reads), writes=tuple(writes))
        )
        written.append(i)
    return KernelTrace(launches)


def chain_trace(n: int = 20):
    """Each launch reads what the previous one wrote."""
    return [
        KernelLaunch(
            name=f"chain/{i}",
            kind=LaunchKind.MEMORY,
            dram_write_bytes=float(1024 * (1 + i % 5)),
            reads=(BufferAccess(f"buf.{i - 1}", 1024.0),) if i else (),
            writes=(BufferAccess(f"buf.{i}", 1024.0),),
        )
        for i in range(n)
    ]


def unannotated_trace(n: int = 12):
    return [
        KernelLaunch(
            name=f"opaque/{i}",
            kind=LaunchKind.MEMORY,
            dram_write_bytes=float(4096 * (1 + i % 3)),
        )
        for i in range(n)
    ]


def program_edges(stream_of):
    """Consecutive launches per stream, as the HB reference takes them."""
    last = {}
    edges = []
    for i, stream in enumerate(stream_of):
        if stream in last:
            edges.append((last[stream], i))
        last[stream] = i
    return edges


def full_sync_candidates(graph, launches, stream_of):
    """The full candidate emission: one sync event per dependence pair
    whose endpoints sit on different streams, then each barrier's fences
    against the last launch before it and the first launch after it on
    every other stream (a fence two barriers share counted once)."""
    pairs = dict.fromkeys((edge.src, edge.dst) for edge in graph.edges)
    candidates = [
        (src, dst) for src, dst in pairs if stream_of[src] != stream_of[dst]
    ]
    members = {}
    for i, stream in enumerate(stream_of):
        members.setdefault(stream, []).append(i)
    fences = {}
    for i, launch in enumerate(launches):
        if not launch.is_barrier:
            continue
        for stream, indices in members.items():
            if stream == stream_of[i]:
                continue
            pos = bisect.bisect_left(indices, i)
            if pos > 0:
                fences[(indices[pos - 1], i)] = None
            if pos < len(indices):
                fences[(i, indices[pos])] = None
    return candidates + list(fences)


def reference_kept(stream_of, sync_edges):
    """The distinct sync edges the bitset closure keeps, by (dst, src)."""
    redundant = set(
        redundant_sync_edges(len(stream_of), program_edges(stream_of), sync_edges)
    )
    kept = {
        pair for position, pair in enumerate(sync_edges)
        if position not in redundant
    }
    return sorted(kept, key=lambda pair: (pair[1], pair[0]))


def assert_same_reduction(stream_of, streams, sync_edges):
    fast = opt_schedule._kept_sync_edges(stream_of, streams, sync_edges)
    assert fast == reference_kept(stream_of, sync_edges)


def assert_same_events(launches, stream_of, streams):
    """The scheduler's kept events and removal count equal the full
    emission reduced by the bitset closure."""
    graph, prices = graph_and_prices(launches)
    state = opt_schedule._trace_state(launches, graph, prices)
    kept, emitted = opt_schedule._sync_edges(state, stream_of, streams)
    candidates = full_sync_candidates(graph, launches, stream_of)
    expected = reference_kept(stream_of, candidates)
    assert kept == expected
    assert emitted - len(kept) == len(candidates) - len(expected)


def greedy_placement(launches, streams):
    state = opt_schedule._trace_state(launches, *graph_and_prices(launches))
    return opt_schedule._place_streams(state, streams)[0]


def pattern_trace(pattern: str):
    """``B`` is a barrier; ``a`` reads what the previous ``a`` wrote and
    ``o`` reads nothing; both write their own buffer."""
    launches = []
    last = None
    for i, c in enumerate(pattern):
        common = dict(
            name=f"{c}/{i}", kind=LaunchKind.MEMORY,
            dram_write_bytes=float(1024 * (1 + i % 3)),
        )
        if c == "B":
            launches.append(KernelLaunch(**common))
            continue
        reads = (BufferAccess(last, 1024.0),) if c == "a" and last else ()
        last = f"buf.{i}"
        launches.append(KernelLaunch(
            **common, reads=reads, writes=(BufferAccess(last, 1024.0),)
        ))
    return launches


# --------------------------------------------------------------------- #
# vector-clock reduction vs the bitset happens-before closure
# --------------------------------------------------------------------- #
class TestVectorClockReduction:
    @pytest.mark.parametrize("streams", (1, 2, 3, 4))
    @pytest.mark.parametrize("seed", range(12))
    def test_random_dags_random_placements(self, seed, streams):
        rng = random.Random(1000 * streams + seed)
        launches = list(barrier_dag_trace(seed, n=rng.randrange(2, 40)))
        n = len(launches)
        stream_of = [rng.randrange(streams) for _ in range(n)]
        graph, _ = graph_and_prices(launches)
        sync_edges = full_sync_candidates(graph, launches, stream_of)
        # Beyond the full emission: arbitrary forward pairs (same-stream
        # ones included) and repeats of earlier pairs.
        for _ in range(rng.randrange(0, 2 * n)):
            src = rng.randrange(n - 1)
            sync_edges.append((src, rng.randrange(src + 1, n)))
        sync_edges += rng.sample(sync_edges, k=len(sync_edges) // 4)
        rng.shuffle(sync_edges)
        assert_same_reduction(stream_of, streams, sync_edges)

    @pytest.mark.parametrize("streams", (2, 3, 4))
    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_placements(self, seed, streams):
        launches = list(barrier_dag_trace(50 + seed, n=60))
        stream_of = greedy_placement(launches, streams)
        graph, _ = graph_and_prices(launches)
        sync_edges = full_sync_candidates(graph, launches, stream_of)
        assert_same_reduction(stream_of, streams, sync_edges)

    @pytest.mark.parametrize("workload", ("SK-M-0.5", "NS-M-1f"))
    def test_serving_batches(self, serving_batches, workload):
        rng = random.Random(workload)
        for launches in serving_batches[workload]:
            graph, _ = graph_and_prices(launches)
            for streams in (1, 2, 3, 4):
                greedy = greedy_placement(launches, streams)
                shuffled = [rng.randrange(streams) for _ in launches]
                for stream_of in (greedy, shuffled):
                    sync_edges = full_sync_candidates(
                        graph, launches, stream_of
                    )
                    assert_same_reduction(stream_of, streams, sync_edges)


# --------------------------------------------------------------------- #
# pruned fence emission vs the full emission, reduced by the closure
# --------------------------------------------------------------------- #
class TestPrunedFenceEmission:
    @pytest.mark.parametrize("streams", (1, 2, 3, 4))
    @pytest.mark.parametrize("seed", range(12))
    def test_random_dags_random_placements(self, seed, streams):
        rng = random.Random(2000 * streams + seed)
        launches = list(barrier_dag_trace(seed, n=rng.randrange(2, 40)))
        stream_of = [rng.randrange(streams) for _ in launches]
        assert_same_events(launches, stream_of, streams)

    @pytest.mark.parametrize("streams", (2, 3, 4))
    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_placements(self, seed, streams):
        launches = list(barrier_dag_trace(50 + seed, n=60))
        assert_same_events(
            launches, greedy_placement(launches, streams), streams
        )

    @pytest.mark.parametrize("workload", ("SK-M-0.5", "NS-M-1f"))
    def test_serving_batches(self, serving_batches, workload):
        rng = random.Random(workload)
        for launches in serving_batches[workload]:
            for streams in (2, 3, 4):
                assert_same_events(
                    launches, greedy_placement(launches, streams), streams
                )
                shuffled = [rng.randrange(streams) for _ in launches]
                assert_same_events(launches, shuffled, streams)

    def test_mixed_serving_batches(self, mixed_serving_batches):
        # Over half of these launches are barriers (BN, ReLU, concat).
        for launches in mixed_serving_batches:
            for streams in (2, 4):
                assert_same_events(
                    launches, greedy_placement(launches, streams), streams
                )

    @pytest.mark.parametrize(
        "pattern",
        (
            "BBBaaBBBoaBB",  # runs of barriers with nothing between them
            "BaoaoB",  # a barrier first and last
            "BaBoBaB",  # single launches between barriers
            "BBBBBB",  # every launch a barrier
            "B",
            "aoBoa",
            "oooBooo",
        ),
    )
    @pytest.mark.parametrize("streams", (2, 3, 8))
    def test_barrier_edge_cases(self, pattern, streams):
        # ``streams = 8`` exceeds every launch count here.
        launches = pattern_trace(pattern)
        rng = random.Random(f"{pattern}/{streams}")
        assert_same_events(
            launches, greedy_placement(launches, streams), streams
        )
        for _ in range(20):
            stream_of = [rng.randrange(streams) for _ in launches]
            assert_same_events(launches, stream_of, streams)

    def test_all_barrier_trace_keeps_no_event(self):
        launches = pattern_trace("BBBBBB")
        stream_of = [0, 1, 0, 2, 2, 1]
        state = opt_schedule._trace_state(launches, *graph_and_prices(launches))
        kept, emitted = opt_schedule._sync_edges(state, stream_of, 3)
        # Adjacent barriers on different streams fence each other
        # directly; every other fence is implied through them.
        assert kept == [(0, 1), (1, 2), (2, 3), (4, 5)]
        graph, _ = graph_and_prices(launches)
        assert emitted == len(full_sync_candidates(graph, launches, stream_of))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_random_traces(self, data):
        n = data.draw(st.integers(1, 24), label="launches")
        streams = data.draw(st.integers(1, 5), label="streams")
        launches = []
        written = []
        for i in range(n):
            common = dict(
                name=f"h/{i}", kind=LaunchKind.MEMORY,
                dram_write_bytes=float(1024 * (1 + i % 4)),
            )
            if data.draw(st.booleans(), label=f"barrier {i}"):
                launches.append(KernelLaunch(**common))
                continue
            reads = data.draw(
                st.lists(st.sampled_from(written), max_size=3, unique=True)
                if written else st.just([]),
                label=f"reads {i}",
            )
            writes = [f"buf.{i}"]
            if reads and data.draw(st.booleans(), label=f"rewrite {i}"):
                writes.append(reads[0])
            launches.append(KernelLaunch(
                **common,
                reads=tuple(BufferAccess(b, 256.0) for b in reads),
                writes=tuple(BufferAccess(b, 1024.0) for b in writes),
            ))
            written.append(f"buf.{i}")
        stream_of = data.draw(
            st.lists(st.integers(0, streams - 1), min_size=n, max_size=n),
            label="placement",
        )
        assert_same_events(launches, stream_of, streams)


# --------------------------------------------------------------------- #
# best_schedule == exhaustive min over list_schedule(K)
# --------------------------------------------------------------------- #
def exhaustive_best(launches, device, streams, graph, prices):
    best = None
    for k in range(1, streams + 1):
        candidate = list_schedule(launches, device, k, graph, prices)
        if best is None or candidate.makespan_us < best.makespan_us:
            best = candidate
    return best


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(opt_schedule, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(opt_schedule, name, counting)
    return calls


class TestBestScheduleMatchesExhaustive:
    @pytest.mark.parametrize("device", DEVICES.values(), ids=DEVICES.keys())
    @pytest.mark.parametrize("seed", range(6))
    def test_random_dags(self, seed, device):
        for launches in (
            list(random_dag_trace(seed)),
            list(barrier_dag_trace(seed, n=40)),
        ):
            graph, prices = graph_and_prices(launches, device)
            for streams in (1, 2, 4):
                expected = exhaustive_best(
                    launches, device, streams, graph, prices
                )
                assert best_schedule(
                    launches, device, streams, graph, prices
                ) == expected

    @pytest.mark.parametrize("device", DEVICES.values(), ids=DEVICES.keys())
    def test_serving_batches(self, serving_batches, device):
        for traces in serving_batches.values():
            for launches in traces:
                graph, prices = graph_and_prices(launches, device)
                expected = exhaustive_best(
                    launches, device, SERVE_STREAMS, graph, prices
                )
                assert best_schedule(
                    launches, device, SERVE_STREAMS, graph, prices
                ) == expected

    def test_k1_wins_under_costly_sync(self):
        launches = list(random_dag_trace(7))
        device = DEVICES["k1-wins"]
        schedule = best_schedule(
            launches, device, 4, *graph_and_prices(launches, device)
        )
        assert schedule.streams == 1
        assert schedule.events == ()
        assert schedule.makespan_us == schedule.serialized_us

    @pytest.mark.parametrize("seed", range(6))
    def test_k1_prefix_sum_is_the_four_phase_path(self, seed):
        # K = 1 skips placement, candidates and reduction; run them anyway.
        launches = list(barrier_dag_trace(seed, n=40))
        state = opt_schedule._trace_state(
            launches, *graph_and_prices(launches)
        )
        stream_of, placed_us = opt_schedule._place_streams(state, 1)
        assert opt_schedule._sync_edges(state, stream_of, 1) == ([], 0)
        starts, ends, makespan = opt_schedule._retime(
            state, 1, stream_of, [], A100.sync_event_us
        )
        shortcut = opt_schedule._serial_timing(state)
        assert (shortcut.stream_of, shortcut.starts, shortcut.ends) == (
            stream_of, starts, ends
        )
        assert shortcut.makespan_us == makespan == placed_us

    def test_pruning_fires(self, monkeypatch):
        # A dependence chain and a fully unannotated trace place exactly
        # serialized, so K >= 2 cannot beat K = 1 and is pruned.
        cases = []
        for launches in (chain_trace(), unannotated_trace()):
            for device in DEVICES.values():
                graph, prices = graph_and_prices(launches, device)
                expected = exhaustive_best(launches, device, 4, graph, prices)
                cases.append((launches, device, graph, prices, expected))
        placed = count_calls(monkeypatch, "_place_streams")
        retimed = count_calls(monkeypatch, "_retime")
        for launches, device, graph, prices, expected in cases:
            schedule = best_schedule(launches, device, 4, graph, prices)
            assert schedule == expected
        assert len(placed) == 3 * len(cases)
        assert retimed == [], "a stream count that cannot win was re-timed"

    def test_negative_sync_cost_rejected(self):
        device = dataclasses.replace(A100)
        object.__setattr__(device, "sync_event_us", -1.0)
        launches = list(random_dag_trace(0))
        with pytest.raises(ValueError, match="sync_event_us"):
            best_schedule(launches, device, 2, *graph_and_prices(launches))

    def test_invalid_stream_count_rejected(self):
        launches = list(random_dag_trace(0))
        with pytest.raises(ValueError, match="streams"):
            best_schedule(launches, A100, 0, *graph_and_prices(launches))


class TestPriceOnce:
    @pytest.mark.parametrize("streams", (1, 2, 4))
    def test_each_launch_priced_once(self, monkeypatch, streams):
        launches = list(barrier_dag_trace(3, n=50))
        calls = []
        real = engine.estimate_launch_us

        def counting(launch, device, precision):
            calls.append(1)
            return real(launch, device, precision)

        monkeypatch.setattr(engine, "estimate_launch_us", counting)
        graph, prices = graph_and_prices(launches)
        assert len(calls) == len(launches)
        best_schedule(launches, A100, streams, graph, prices)
        assert len(calls) == len(launches)


# --------------------------------------------------------------------- #
# summation guard
# --------------------------------------------------------------------- #
def loop_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def compensated_sum(values):
    """Neumaier summation, as ``sum()`` of floats does on Python >= 3.12."""
    total = 0.0
    compensation = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation if compensation else total


class TestSummationOrders:
    """Each caller keeps its own summation.  The trace below is one where
    the two orders disagree, so unifying them fails here on 3.12."""

    @pytest.fixture(scope="class")
    def launches(self, serving_batches):
        for launches in serving_batches["SK-M-0.5"]:
            prices = engine.launch_prices(launches, A100, FP16)
            if compensated_sum(prices) != loop_sum(prices):
                return launches
        pytest.fail("no captured batch tells the two summation orders apart")

    def test_single_stream_estimate_is_builtin_sum(self, launches):
        prices = engine.launch_prices(launches, A100, FP16)
        assert engine.estimate_trace_us(
            KernelTrace(launches), A100, FP16
        ) == sum(prices)

    def test_single_stream_schedule_is_loop_sum(self, launches):
        prices = engine.launch_prices(launches, A100, FP16)
        schedule = best_schedule(
            launches, A100, 1, DependenceGraph.build(launches), prices
        )
        assert schedule.makespan_us == loop_sum(prices)
        assert schedule.serialized_us == loop_sum(prices)
        assert schedule.assignments[-1].end_us == loop_sum(prices)
