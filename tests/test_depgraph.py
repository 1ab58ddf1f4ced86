"""Tests for the launch-level dependence & liveness analyzer.

Covers the dependence DAG construction (edge kinds, forward orientation,
RMW semantics), the four cross-launch invariants on seeded broken traces,
cleanliness of every healthy dataflow x precision x geometry combination,
the critical-path / parallelism computation and its latency-model
cross-validation, buffer scoping across layers and samples, and the
determinism of the JSON export.
"""

import json

import numpy as np
import pytest

from repro.analyze.depgraph import (
    DependenceGraph,
    check_dependences,
    check_execution,
    check_latency_model,
    depgraph_report,
)
from repro.gpusim.engine import estimate_launch_us, launch_prices
from repro.gpusim.trace import UNSCOPED, KernelLaunch, KernelTrace, LaunchKind
from repro.hw import get_device
from repro.kernels.registry import DATAFLOWS, Dataflow, trace_dataflow
from repro.kernels.wgrad import wgrad_trace
from repro.nn.blocks import ConvBlock
from repro.nn.context import ExecutionContext
from repro.nn.module import Module
from repro.opt.schedule import best_schedule
from repro.precision import Precision
from repro.sparse.tensor import SparseTensor
from tests.broken_traces import (
    dropped_gather_trace,
    healthy_trace,
    leaked_staging_trace,
    reordered_scatter_trace,
)
from tests.test_dataflow_differential import GEOMETRIES, build_case

DEVICE = get_device("a100")


def checked(trace, precision):
    """:func:`check_execution` on the trace's own graph and prices."""
    trace = list(trace)
    return check_execution(
        trace, DEVICE, DependenceGraph.build(trace),
        launch_prices(trace, DEVICE, precision),
    )


def report_json(trace, precision):
    """The ``repro depgraph --json`` document of one trace."""
    trace = list(trace)
    graph = DependenceGraph.build(trace)
    prices = launch_prices(trace, DEVICE, precision)
    violations = check_execution(trace, DEVICE, graph, prices)
    doc = depgraph_report(graph, DEVICE, precision, prices, violations)
    return json.dumps(doc, indent=2, sort_keys=True)


def _launch(name, reads=(), writes=(), workspace=0.0):
    return KernelLaunch(
        name=name,
        kind=LaunchKind.MEMORY,
        dram_read_bytes=64.0,
        dram_write_bytes=64.0,
        workspace_bytes=workspace,
        ctas=1,
        reads=tuple(reads),
        writes=tuple(writes),
    )


# ---------------------------------------------------------------------- #
# DAG construction
# ---------------------------------------------------------------------- #
class TestGraphBuild:
    def test_edge_kinds_on_produce_consume_overwrite(self):
        trace = [
            _launch("w1", writes=[UNSCOPED.ext("b", 64.0)]),
            _launch("r1", reads=[UNSCOPED.ext("b", 64.0)]),
            _launch("w2", writes=[UNSCOPED.ext("b", 64.0)]),
        ]
        graph = DependenceGraph.build(trace)
        kinds = {(e.src, e.dst, e.kind) for e in graph.edges}
        assert (0, 1, "RAW") in kinds
        assert (1, 2, "WAR") in kinds
        assert (0, 2, "WAW") in kinds

    def test_edges_point_forward_in_program_order(self):
        graph = DependenceGraph.build(healthy_trace())
        assert graph.edges
        for edge in graph.edges:
            assert edge.src < edge.dst

    def test_rmw_launch_stays_reader_of_record(self):
        # w1 -> rmw (read+write) -> w2: w2 must be WAR-ordered after the
        # RMW launch even though the RMW's own write superseded its read.
        trace = [
            _launch("w1", writes=[UNSCOPED.ext("b", 64.0)]),
            _launch("rmw", reads=[UNSCOPED.ext("b", 64.0)], writes=[UNSCOPED.ext("b", 64.0)]),
            _launch("w2", writes=[UNSCOPED.ext("b", 64.0)]),
        ]
        graph = DependenceGraph.build(trace)
        assert (1, 2, "WAR") in {(e.src, e.dst, e.kind) for e in graph.edges}
        # ...and the RMW chain is race-free.
        assert check_dependences(trace) == []

    def test_edge_counts_sum_to_total(self):
        graph = DependenceGraph.build(healthy_trace())
        assert sum(graph.edge_counts().values()) == len(graph.edges)


# ---------------------------------------------------------------------- #
# Healthy traces are clean
# ---------------------------------------------------------------------- #
class TestHealthyTracesClean:
    @pytest.mark.parametrize("dataflow", list(DATAFLOWS))
    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP16])
    @pytest.mark.parametrize(
        "name,kernel_size,stride,tensor_stride",
        GEOMETRIES,
        ids=[g[0] for g in GEOMETRIES],
    )
    def test_dataflow_grid(
        self, dataflow, precision, name, kernel_size, stride, tensor_stride
    ):
        coords, feats, weights, kmap = build_case(
            kernel_size, stride, tensor_stride, seed=7
        )
        trace = trace_dataflow(
            dataflow, kmap, feats.shape[1], weights.shape[2],
            precision=precision,
        )
        assert checked(trace, precision) == []

    def test_wgrad_traces_clean(self):
        _, _, _, kmap = build_case(3, 1, 1, seed=3)
        for gathered in (False, True):
            trace = wgrad_trace(kmap, 5, 6, gathered=gathered)
            assert checked(trace, Precision.FP32) == []

    def test_gather_scatter_trace_clean(self):
        assert checked(healthy_trace(), Precision.FP32) == []

    def test_unannotated_launches_do_not_participate(self):
        trace = [_launch("legacy"), _launch("also-legacy")]
        assert check_dependences(trace) == []
        assert DependenceGraph.build(trace).edges == []


# ---------------------------------------------------------------------- #
# Broken traces are flagged with the expected invariant
# ---------------------------------------------------------------------- #
class TestBrokenTraces:
    def test_dropped_gather_is_use_before_def(self):
        violations = check_dependences(dropped_gather_trace())
        assert violations
        assert {v.invariant for v in violations} == {"uninitialized-read"}
        assert "gs_in.k0" in violations[0].message

    def test_reordered_scatter_is_raw_violation(self):
        violations = check_dependences(reordered_scatter_trace())
        assert violations
        assert {v.invariant for v in violations} == {"raw-order"}
        assert "before its first write" in violations[0].message

    def test_leaked_staging_is_lifetime_violation(self):
        violations = check_dependences(leaked_staging_trace())
        assert violations
        assert {v.invariant for v in violations} == {"workspace-lifetime"}
        assert "never read" in violations[0].message

    def test_under_accounted_workspace_is_use_after_free(self):
        trace = [
            _launch("produce", writes=[UNSCOPED.ws("buf", 4096.0)], workspace=4096.0),
            # Reads 4 KiB of live workspace but accounts none of it.
            _launch("consume", reads=[UNSCOPED.ws("buf", 4096.0)], workspace=0.0),
        ]
        violations = check_dependences(trace)
        assert [v.invariant for v in violations] == ["workspace-lifetime"]
        assert "already be freed" in violations[0].message

    def test_unordered_plain_writes_race(self):
        trace = [
            _launch("a", writes=[UNSCOPED.ext("out", 64.0)]),
            _launch("b", writes=[UNSCOPED.ext("out", 64.0)]),
        ]
        violations = check_dependences(trace)
        assert [v.invariant for v in violations] == [
            "unordered-conflicting-writes"
        ]

    def test_atomic_writers_do_not_race(self):
        trace = [
            _launch("a", writes=[UNSCOPED.ext("out", 64.0, atomic=True)]),
            _launch("b", writes=[UNSCOPED.ext("out", 64.0, atomic=True)]),
        ]
        assert check_dependences(trace) == []

    def test_raw_chain_orders_plain_writers(self):
        # write -> read -> write: reuse of one buffer across samples.
        trace = [
            _launch("w1", writes=[UNSCOPED.ext("out", 64.0)]),
            _launch("r", reads=[UNSCOPED.ext("out", 64.0)]),
            _launch("w2", writes=[UNSCOPED.ext("out", 64.0)]),
        ]
        assert check_dependences(trace) == []


# ---------------------------------------------------------------------- #
# Critical path and the latency-model cross-validation
# ---------------------------------------------------------------------- #
class TestCriticalPath:
    @pytest.mark.parametrize("dataflow", list(DATAFLOWS))
    def test_span_bounded_by_serialized_sum(self, dataflow):
        _, feats, weights, kmap = build_case(3, 1, 1, seed=5)
        trace = trace_dataflow(
            dataflow, kmap, feats.shape[1], weights.shape[2]
        )
        graph = DependenceGraph.build(trace)
        prices = [estimate_launch_us(l, DEVICE, Precision.FP16) for l in trace]
        path, span = graph.critical_path(prices)
        serialized = sum(prices)
        assert 0.0 < span <= serialized + 1e-9
        assert check_latency_model(trace, DEVICE, graph, prices) == []

    def test_path_is_a_dependence_chain(self):
        trace = healthy_trace()
        graph = DependenceGraph.build(trace)
        path, _ = graph.critical_path(
            launch_prices(trace, DEVICE, Precision.FP32)
        )
        edges = {(e.src, e.dst) for e in graph.edges}
        for a, b in zip(path, path[1:]):
            assert (a, b) in edges

    def test_violated_bound_is_reported(self):
        # Shrink the serialized estimate below the span: the lint fires.
        # Both bounds read the price vector handed in, so only a price no
        # launch can have (negative) puts its sum below its longest chain.
        # A fresh schedule would read that vector too; the one handed in
        # is priced from the model, so only the trace estimate is off.
        trace = healthy_trace()
        graph = DependenceGraph.build(trace)
        prices = [1.0] * len(trace)
        prices[0] = -float(len(trace))
        schedule = best_schedule(
            trace, DEVICE, 2, graph,
            launch_prices(trace, DEVICE, Precision.FP32),
        )
        violations = check_latency_model(
            trace, DEVICE, graph, prices, schedule=schedule
        )
        assert [v.invariant for v in violations] == ["critical-path-bound"]

    def test_empty_trace(self):
        graph = DependenceGraph.build([])
        assert graph.critical_path([]) == ([], 0.0)
        assert graph.to_json(DEVICE, Precision.FP16, [])["parallelism"] == 1.0


# ---------------------------------------------------------------------- #
# Layer scoping and cross-sample reuse in full model executions
# ---------------------------------------------------------------------- #
class _TwoConvNet(Module):
    def __init__(self):
        super().__init__()
        self.b1 = ConvBlock(4, 8, 3, label="b1", seed=0)
        self.b2 = ConvBlock(8, 8, 3, label="b2", seed=1)

    def forward(self, x, ctx):
        return self.b2(self.b1(x, ctx), ctx)


def _sample(seed, n=120, channels=4):
    rng = np.random.default_rng(seed)
    spatial = rng.integers(0, 12, size=(n, 3))
    batch = np.zeros((n, 1), dtype=np.int64)
    coords = np.unique(
        np.concatenate([batch, spatial], axis=1).astype(np.int32), axis=0
    )
    feats = rng.standard_normal((len(coords), channels)).astype(np.float32)
    return SparseTensor(coords=coords, feats=feats)


class TestModelTraceScoping:
    def test_layers_get_disjoint_buffers_and_feature_chain(self):
        ctx = ExecutionContext(
            device=DEVICE, precision=Precision.FP16, simulate_only=True
        )
        _TwoConvNet()(_sample(0), ctx)
        assert checked(ctx.trace, Precision.FP16) == []
        buffers = {
            a.buffer
            for l in ctx.trace
            for a in list(l.reads) + list(l.writes)
        }
        # Workspace buffers are scoped per layer: no bare ws: names leak.
        ws_buffers = [b for b in buffers if b.startswith("ws:")]
        assert ws_buffers
        assert all(
            b.startswith(("ws:b1.", "ws:b2.")) for b in ws_buffers
        )
        # Feature chaining: b2's input reads resolve to b1's output buffer.
        graph = DependenceGraph.build(ctx.trace)
        chained = [
            e for e in graph.edges
            if e.kind == "RAW" and "fwd:feats_out" in e.buffer
        ]
        assert chained, "no cross-layer feature RAW edge"

    def test_multi_sample_context_stays_clean(self):
        ctx = ExecutionContext(
            device=DEVICE, precision=Precision.FP16, simulate_only=True
        )
        net = _TwoConvNet()
        for seed in range(3):
            net(_sample(seed), ctx)
        assert checked(ctx.trace, Precision.FP16) == []


# ---------------------------------------------------------------------- #
# Exports
# ---------------------------------------------------------------------- #
class TestExports:
    def test_json_report_is_deterministic_and_well_formed(self):
        trace = healthy_trace()
        a = report_json(trace, Precision.FP32)
        b = report_json(trace, Precision.FP32)
        assert a == b
        doc = json.loads(a)
        assert doc["violations"] == []
        assert doc["launches"] == len(list(trace))
        assert set(doc["edges"]) == {"RAW", "WAR", "WAW"}
        assert doc["critical_path_us"] <= doc["serialized_us"]
        assert doc["parallelism"] >= 1.0
        assert [step["index"] for step in doc["critical_path"]] == sorted(
            step["index"] for step in doc["critical_path"]
        )

    def test_json_report_carries_violations(self):
        doc = json.loads(
            report_json(dropped_gather_trace(), Precision.FP32)
        )
        assert [v["invariant"] for v in doc["violations"]] == [
            "uninitialized-read"
        ]

    def test_dot_export_names_every_launch(self):
        trace = healthy_trace()
        dot = DependenceGraph.build(trace).to_dot()
        assert dot.startswith("digraph depgraph {")
        for launch in trace:
            assert launch.name in dot
        for style in ("solid", "dotted"):
            assert style in dot
