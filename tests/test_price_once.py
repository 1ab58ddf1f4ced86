"""One pricing entry point: each execution is priced once, and checked.

:func:`repro.gpusim.engine.price_trace` prices every execution with one
``launch_prices`` vector, reads the latency, the schedule and every split
from it, and runs the trace check (set by the suite's conftest) with the
schedule it priced.
"""

import numpy as np
import pytest

from repro.analyze import depgraph
from repro.baselines import get_engine, measure_inference
from repro.gpusim import engine
from repro.hw import get_device
from repro.models import MinkUNet, get_workload
from repro.nn import ExecutionContext
from repro.opt import schedule as opt_schedule
from repro.opt.program import LaunchProgram
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


class TestCheckedEverywhere:
    def test_program_pricing_is_checked(self):
        # ``repro.opt.program`` imports ``estimate_trace_us`` by name; the
        # check inside the entry point still sees its trace.
        program = LaunchProgram.from_trace(dropped_gather_trace())
        with pytest.raises(AssertionError, match="uninitialized-read"):
            program.serialized_us(A100, "fp16")

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

        def counting(trace, device, precision, streams, graph=None):
            calls.append(streams)
            return real(trace, device, precision, streams, graph)

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

    @pytest.mark.parametrize("streams,calls", [(1, 2), (4, 1)])
    def test_checked_execution_prices(self, monkeypatch, streams, calls):
        # The suite's check stays on.  One stream: the execution's vector
        # plus the check's fresh two-stream cross-check schedule; more
        # streams: the priced schedule's vector alone.
        counted = []
        real = engine.launch_prices

        def counting(trace, device, precision):
            counted.append(1)
            return real(trace, device, precision)

        for module in (engine, depgraph, opt_schedule):
            monkeypatch.setattr(module, "launch_prices", counting)
        ctx = ExecutionContext(simulate_only=True, gpu_streams=streams)
        workload = get_workload("SK-M-0.5")
        workload.build_model()(tuning_samples(workload, 0.05)[0], ctx)
        assert engine.TRACE_CHECK is not None
        counted.clear()
        assert ctx.execution().latency_us > 0
        assert len(counted) == calls

    @pytest.mark.parametrize("streams,builds", [(1, 1), (4, 2)])
    def test_checked_execution_builds_graph_once(
        self, monkeypatch, streams, builds
    ):
        # One stream: the check's one graph serves the dependence and the
        # latency checks; more streams: plus the priced schedule's own.
        counted = []
        real = depgraph.DependenceGraph.build.__func__

        def counting(cls, trace):
            counted.append(1)
            return real(cls, trace)

        monkeypatch.setattr(
            depgraph.DependenceGraph, "build", classmethod(counting)
        )
        ctx = ExecutionContext(simulate_only=True, gpu_streams=streams)
        workload = get_workload("SK-M-0.5")
        workload.build_model()(tuning_samples(workload, 0.05)[0], ctx)
        assert engine.TRACE_CHECK is not None
        counted.clear()
        assert ctx.execution().latency_us > 0
        assert len(counted) == builds
