"""One pricing entry point: each execution is priced once, and checked.

:func:`repro.gpusim.engine.price_trace` prices every execution with one
``launch_prices`` vector, reads the latency, the schedule and every split
from it, and runs the trace check (set by the suite's conftest) with the
schedule it priced.
"""

import json

import numpy as np
import pytest

from repro.analyze import collect_execution_trace, depgraph
from repro.baselines import get_engine, measure_inference
from repro.gpusim import engine
from repro.hw import get_device
from repro.models import MinkUNet, get_workload
from repro.nn import ExecutionContext
from repro.codegen.cost import achieved_utilization
from repro.opt import schedule as opt_schedule
from repro.precision import Precision
from repro.serve import ServeConfig, ServingRuntime
from repro.serve.runtime import tuning_samples
from repro.sparse import SparseTensor
from tests.broken_traces import dropped_gather_trace

A100 = get_device("a100")


def cloud(n=600, seed=0):
    rng = np.random.default_rng(seed)
    spatial = rng.integers(0, 24, size=(n, 3)).astype(np.int32)
    coords = np.unique(
        np.concatenate([np.zeros((n, 1), np.int32), spatial], axis=1), axis=0
    )
    feats = rng.standard_normal((len(coords), 4)).astype(np.float32)
    return SparseTensor(coords=coords, feats=feats)


@pytest.fixture
def count_launch_prices(monkeypatch):
    """Count the pricing calls an execution makes.

    The suite's trace check prices each trace once more on its own (the
    latency cross-validation), so it is switched off here: what is
    counted is the caller's pricing alone.
    """
    monkeypatch.setattr(engine, "TRACE_CHECK", None)
    calls = []
    real = engine.launch_prices

    def counting(trace, device, precision):
        calls.append(1)
        return real(trace, device, precision)

    monkeypatch.setattr(engine, "launch_prices", counting)
    return calls


@pytest.fixture
def count_all_launch_prices(monkeypatch):
    """Count every pricing call.  Only :mod:`repro.gpusim.engine` binds
    the name: the analyzers and the scheduler read their callers'
    vectors and import it nowhere."""
    calls = []
    real = engine.launch_prices

    def counting(trace, device, precision):
        calls.append(1)
        return real(trace, device, precision)

    for module in (depgraph, opt_schedule):
        assert not hasattr(module, "launch_prices")
    monkeypatch.setattr(engine, "launch_prices", counting)
    return calls


@pytest.fixture
def count_graph_builds(monkeypatch):
    """Count :meth:`DependenceGraph.build` calls."""
    counted = []
    real = depgraph.DependenceGraph.build.__func__

    def counting(cls, trace):
        counted.append(1)
        return real(cls, trace)

    monkeypatch.setattr(
        depgraph.DependenceGraph, "build", classmethod(counting)
    )
    return counted


class TestCheckedEverywhere:
    def test_program_pricing_is_checked(self):
        # ``repro.codegen.cost`` imports ``estimate_trace_us`` by name; the
        # check inside the entry point still sees its trace.
        with pytest.raises(AssertionError, match="uninitialized-read"):
            achieved_utilization(dropped_gather_trace(), A100, Precision.FP16)

    def test_check_is_off_while_it_runs(self, monkeypatch):
        seen = []

        def check(priced, device, precision):
            seen.append(priced.schedule)
            # A check that prices on its own must not re-enter itself.
            engine.estimate_trace_us(priced.trace, device, precision)

        monkeypatch.setattr(engine, "TRACE_CHECK", check)
        trace = dropped_gather_trace()
        assert engine.estimate_trace_us(trace, A100, "fp16") > 0
        assert seen == [None]
        assert engine.TRACE_CHECK is check


class TestScheduledOnce:
    def test_multistream_latency_schedules_once(self, monkeypatch):
        calls = []
        real = opt_schedule.best_schedule

        def counting(trace, device, streams, graph, prices):
            calls.append(streams)
            return real(trace, device, streams, graph, prices)

        monkeypatch.setattr(opt_schedule, "best_schedule", counting)
        ctx = ExecutionContext(simulate_only=True, gpu_streams=4)
        MinkUNet(in_channels=4, num_classes=5, width=0.25)(cloud(), ctx)
        run = ctx.execution()
        latency_us, events = run.latency_us, run.sync_events
        # The check verifies the schedule that was priced: no second one.
        assert calls == [4]
        assert latency_us > 0 and events > 0

    def test_attribution_reads_the_scheduled_vector(self):
        ctx = ExecutionContext(simulate_only=True, gpu_streams=4)
        MinkUNet(in_channels=4, num_classes=5, width=0.25)(cloud(), ctx)
        run = ctx.execution()
        assert run.schedule is not None
        assert run.prices == run.schedule.prices
        assert run.latency_us == run.schedule.makespan_us
        split = run.split_us(engine.launch_kind)
        assert sum(split.values()) == pytest.approx(run.schedule.serialized_us)


class TestPricedOnce:
    def test_serving_sample_priced_once(self, count_launch_prices):
        runtime = ServingRuntime(ServeConfig(scene_scale=0.05))
        model = runtime.model("NS-M-1f")
        sample = tuning_samples(get_workload("NS-M-1f"), 0.05)[0]
        count_launch_prices.clear()
        cost = runtime._simulate_sample(
            sample, model, None, degraded=False, warmth=None
        )
        assert len(count_launch_prices) == 1
        assert sum(us for _, us in cost.stages) == pytest.approx(
            cost.latency_us
        )

    def test_measure_inference_prices_each_scene_once(
        self, count_launch_prices
    ):
        model = MinkUNet(in_channels=4, num_classes=5, width=0.25)
        inputs = [cloud(seed=0), cloud(seed=1)]
        m = measure_inference(
            get_engine("spconv2"), get_workload("SK-M-0.5"), "a100", "fp16",
            model=model, inputs=inputs,
        )
        assert len(count_launch_prices) == len(inputs)
        assert len(m.per_scene_ms) == len(inputs)


class TestCheckedExecutionPricedOnce:
    """The trace check reads the vector the execution was priced with."""

    @pytest.mark.parametrize("streams,calls", [(1, 1), (4, 1)])
    def test_checked_execution_prices(
        self, count_all_launch_prices, streams, calls
    ):
        # The suite's check stays on.  One stream: the execution's vector,
        # which the check's fresh two-stream cross-check schedule reads;
        # more streams: the priced schedule's vector alone.
        counted = count_all_launch_prices
        ctx = ExecutionContext(simulate_only=True, gpu_streams=streams)
        workload = get_workload("SK-M-0.5")
        workload.build_model()(tuning_samples(workload, 0.05)[0], ctx)
        assert engine.TRACE_CHECK is not None
        counted.clear()
        assert ctx.execution().latency_us > 0
        assert len(counted) == calls

    @pytest.mark.parametrize("streams,builds", [(1, 1), (4, 1)])
    def test_checked_execution_builds_graph_once(
        self, count_graph_builds, streams, builds
    ):
        # One stream: the check's one graph serves the dependence and the
        # latency checks; more streams: the check reads the graph the
        # priced schedule was built from (``PricedTrace.graph``).
        ctx = ExecutionContext(simulate_only=True, gpu_streams=streams)
        workload = get_workload("SK-M-0.5")
        workload.build_model()(tuning_samples(workload, 0.05)[0], ctx)
        assert engine.TRACE_CHECK is not None
        count_graph_builds.clear()
        assert ctx.execution().latency_us > 0
        assert len(count_graph_builds) == builds


class TestLintBuildsGraphOnce:
    """Every trace rule of one lint, and each depgraph export, reads one
    dependence graph of the trace."""

    def test_lint_model_builds_one_graph(self, count_graph_builds):
        from repro.analyze import Severity, lint_model

        workload = get_workload("SK-M-0.5")
        model = workload.build_model()
        trace = collect_execution_trace(model, 4)
        assert trace is not None and len(trace) > 0
        count_graph_builds.clear()
        findings = lint_model(model, in_channels=4, trace=trace)
        assert len(count_graph_builds) == 1
        assert not [f for f in findings if f.severity is Severity.ERROR]

    def test_depgraph_report_builds_one_graph(self, count_graph_builds):
        model = get_workload("SK-M-0.5").build_model()
        trace = collect_execution_trace(model, 4)
        count_graph_builds.clear()
        graph = depgraph.DependenceGraph.build(trace)
        prices = engine.launch_prices(trace, A100, Precision.FP16)
        violations = depgraph.check_execution(trace, A100, graph, prices)
        depgraph.depgraph_report(
            graph, A100, Precision.FP16, prices, violations
        )
        assert len(count_graph_builds) == 1

    def test_depgraph_cli_builds_one_graph(
        self, monkeypatch, count_graph_builds, capsys
    ):
        from repro.cli import main

        # The suite's trace check builds its own graph of every priced
        # execution; switched off, what is counted is the command's own.
        monkeypatch.setattr(engine, "TRACE_CHECK", None)
        assert main(["depgraph", "SK-M-0.5", "--scale", "0.05", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []
        assert len(count_graph_builds) == 1


class TestChecksPriceOnce:
    """Lint and ``repro depgraph`` price the trace once; the schedules
    ``best_schedule`` builds for them read that vector."""

    def test_lint_model_prices_once(self, count_all_launch_prices):
        from repro.analyze import lint_model

        model = get_workload("SK-M-0.5").build_model()
        trace = collect_execution_trace(model, 4)
        count_all_launch_prices.clear()
        lint_model(model, in_channels=4, trace=trace)
        # The shared vector; the lint-stream schedule (which the latency
        # check verifies too) and the sync-free schedule read it.
        assert len(count_all_launch_prices) == 1

    def test_depgraph_cli_prices_once(
        self, monkeypatch, count_all_launch_prices, capsys
    ):
        from repro.cli import main

        monkeypatch.setattr(engine, "TRACE_CHECK", None)
        argv = ["depgraph", "SK-M-0.5", "--scale", "0.05", "--schedule"]
        assert main(argv) == 0
        capsys.readouterr()
        # The command's vector, shared with the latency check, the
        # check's two-stream schedule and the reported schedule.
        assert len(count_all_launch_prices) == 1
