"""Tests for the memory model and the OOM degradation ladder.

Covers the full recovery stack bottom-up: per-launch workspace
annotations (monotonicity properties), the footprint model
(weights/features/workspace decomposition, batch chunking, warm vs cold),
the ladder planner (strict-reduction take logic, determinism), the
numerics of degraded configurations against the dense reference, and the
serving runtime's injected-OOM path (zero failed requests, byte-stable
seeded runs, memory-aware admission).
"""

import dataclasses

import numpy as np
import pytest

from repro.analyze import check_trace, lint_model, static_weight_bytes
from repro.errors import AdmissionError, ConfigError, DeviceError, SimulatedOOMError
from repro.gpusim.engine import enforce_memory_budget, memory_budget_bytes
from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind
from repro.hw.specs import get_device, list_devices, register_device
from repro.kernels import run_dataflow
from repro.kernels.registry import DATAFLOWS, Dataflow, trace_dataflow
from repro.models import get_workload
from repro.nn.context import FixedPolicy, LayerConfig
from repro.precision import Precision
from repro.resilience import (
    DEFAULT_RUNGS,
    DegradationLadder,
    ExecState,
    apply_rung,
    model_footprint,
    model_weight_bytes,
)
from repro.sparse.kmap import build_kernel_map
from tests.test_dataflow_differential import (
    TOLERANCES,
    build_case,
    dense_reference,
    random_coords,
)

WORKLOAD = "SK-M-0.5"
SCALE = 0.1


# ---------------------------------------------------------------------- #
# Workspace monotonicity properties
# ---------------------------------------------------------------------- #
class TestWorkspaceMonotonicity:
    """Peak workspace must be monotone in problem size for every dataflow.

    Point sets are nested (prefixes of one pool), so every kernel-map
    pair of the smaller problem exists in the larger one, and workspace
    formulas — functions of pairs, outputs and channel counts — can only
    grow.  Channel monotonicity is non-strict: some dataflows' workspace
    (e.g. implicit GEMM without splits) is channel-independent.
    """

    POOL = random_coords(96, seed=3)

    def _peak(self, dataflow, kmap, c_in, c_out):
        trace = trace_dataflow(dataflow, kmap, c_in, c_out)
        return trace.summary().peak_workspace_bytes

    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    @pytest.mark.parametrize("kernel_size,stride", [(3, 1), (2, 2)])
    def test_monotone_in_points(self, dataflow, kernel_size, stride):
        peaks = []
        for n in (24, 48, 96):
            kmap = build_kernel_map(self.POOL[:n], kernel_size, stride=stride)
            peaks.append(self._peak(dataflow, kmap, 8, 16))
        assert peaks[0] > 0
        assert peaks[0] <= peaks[1] <= peaks[2]

    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    def test_monotone_in_channels(self, dataflow):
        kmap = build_kernel_map(self.POOL[:48], 3, stride=1)
        in_sweep = [self._peak(dataflow, kmap, c, 16) for c in (2, 4, 8, 16)]
        out_sweep = [self._peak(dataflow, kmap, 8, c) for c in (2, 4, 8, 16)]
        for sweep in (in_sweep, out_sweep):
            for lo, hi in zip(sweep, sweep[1:]):
                assert lo <= hi


# ---------------------------------------------------------------------- #
# Footprint model
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def workload():
    return get_workload(WORKLOAD)


@pytest.fixture(scope="module")
def model(workload):
    built = workload.build_model()
    built.eval()
    return built


@pytest.fixture(scope="module")
def samples(workload):
    from repro.data.datasets import make_sample

    return [
        make_sample(
            workload.dataset, frames=workload.frames, seed=i, scale=SCALE
        )
        for i in range(2)
    ]


class TestFootprintModel:
    def test_weight_bytes_track_precision(self, model):
        fp16 = model_weight_bytes(model, Precision.FP16)
        fp32 = model_weight_bytes(model, Precision.FP32)
        assert fp16 == 2.0 * model.num_parameters()
        assert fp32 == 2.0 * fp16

    def test_report_decomposes_and_fits(self, model, samples):
        report = model_footprint(model, samples, device="a100")
        assert report.weights_bytes > 0
        assert report.peak_feature_bytes > 0
        assert report.peak_workspace_bytes > 0
        assert report.total_bytes == (
            report.weights_bytes
            + report.peak_feature_bytes
            + report.peak_workspace_bytes
        )
        assert report.fits(report.total_bytes)
        assert not report.fits(report.total_bytes - 1.0)

    def test_batch_chunks_divide_features_not_workspace(self, model, samples):
        whole = model_footprint(model, samples, batch_chunks=1)
        halved = model_footprint(model, samples, batch_chunks=2)
        assert halved.peak_feature_bytes < whole.peak_feature_bytes
        assert halved.peak_workspace_bytes == pytest.approx(
            whole.peak_workspace_bytes
        )
        # Chunks clamp to the batch size: 99 chunks of 2 samples == 2 chunks.
        clamped = model_footprint(model, samples, batch_chunks=99)
        assert clamped.peak_feature_bytes == halved.peak_feature_bytes

    def test_warm_excludes_map_construction(self, model, samples):
        cold = model_footprint(model, samples)
        warm = model_footprint(model, samples, warm=True)
        assert warm.peak_workspace_bytes < cold.peak_workspace_bytes
        assert warm.weights_bytes == cold.weights_bytes
        assert warm.peak_feature_bytes == cold.peak_feature_bytes

    def test_monotone_in_batch_size(self, model, samples):
        one = model_footprint(model, samples[:1])
        two = model_footprint(model, samples)
        assert one.peak_feature_bytes < two.peak_feature_bytes
        assert one.peak_workspace_bytes <= two.peak_workspace_bytes
        assert one.total_bytes < two.total_bytes

    def test_deterministic(self, model, samples):
        a = model_footprint(model, samples, warm=True)
        b = model_footprint(model, samples, warm=True)
        assert a == b

    def test_table_renders(self, model, samples):
        report = model_footprint(model, samples)
        table = report.table()
        assert "ws MiB" in table
        assert "total (weights + features + workspace)" in table
        assert len(report.layers) > 0

    def test_validation(self, model, samples):
        with pytest.raises(ValueError, match="at least one sample"):
            model_footprint(model, [])
        with pytest.raises(ValueError, match="batch_chunks"):
            model_footprint(model, samples, batch_chunks=0)


# ---------------------------------------------------------------------- #
# Ladder planner
# ---------------------------------------------------------------------- #
def state(dataflow=Dataflow.IMPLICIT_GEMM, precision=Precision.FP32,
          gs_chunks=1, batch_chunks=1):
    return ExecState(
        config=LayerConfig(dataflow=dataflow, gs_chunks=gs_chunks),
        precision=precision,
        batch_chunks=batch_chunks,
    )


class TestApplyRung:
    def test_dataflow_switch_and_noop(self):
        s = state()
        switched = apply_rung(s, "dataflow:fetch_on_demand")
        assert switched.config.dataflow is Dataflow.FETCH_ON_DEMAND
        assert s.config.dataflow is Dataflow.IMPLICIT_GEMM  # original intact
        assert apply_rung(switched, "dataflow:fetch_on_demand") is None

    def test_chunks_require_gather_scatter_and_increase(self):
        assert apply_rung(state(), "chunks:2") is None
        gs = state(dataflow=Dataflow.GATHER_SCATTER)
        chunked = apply_rung(gs, "chunks:2")
        assert chunked.config.gs_chunks == 2
        assert apply_rung(chunked, "chunks:2") is None
        assert apply_rung(chunked, "chunks:4").config.gs_chunks == 4

    def test_precision_drop(self):
        assert apply_rung(state(), "precision:drop").precision is Precision.FP16
        tf32 = state(precision=Precision.TF32)
        assert apply_rung(tf32, "precision:drop").precision is Precision.FP16
        fp16 = state(precision=Precision.FP16)
        assert apply_rung(fp16, "precision:drop") is None

    def test_batch_chunking_only_increases(self):
        assert apply_rung(state(), "batch:2").batch_chunks == 2
        two = state(batch_chunks=2)
        assert apply_rung(two, "batch:2") is None
        assert apply_rung(two, "batch:8").batch_chunks == 8

    def test_unknown_rung_raises(self):
        with pytest.raises(ValueError, match="unknown ladder rung"):
            apply_rung(state(), "voodoo:3")


def synthetic_footprint(s):
    """Hand-built footprint: IG 100, GS 95 (90 chunked), FOD 70 units;
    precision drop and batch chunking shave the remainder."""
    base = {
        Dataflow.IMPLICIT_GEMM: 100.0,
        Dataflow.GATHER_SCATTER: 95.0,
        Dataflow.FETCH_ON_DEMAND: 70.0,
    }.get(s.config.dataflow, 100.0)
    if s.config.gs_chunks > 1:
        base -= 5.0
    if s.precision is Precision.FP16:
        base -= 10.0
    return base / (1.0 + 0.1 * (s.batch_chunks - 1))


class TestLadderPlanner:
    def test_stops_at_first_fitting_state(self):
        plan = DegradationLadder().plan(synthetic_footprint, state(), 75.0)
        assert plan.fits
        assert plan.taken == (
            "dataflow:gather_scatter", "dataflow:fetch_on_demand",
        )
        assert plan.final_bytes == 70.0
        assert plan.final.config.dataflow is Dataflow.FETCH_ON_DEMAND
        # The walk stopped: chunk/precision/batch rungs were never evaluated.
        assert len(plan.steps) == 2

    def test_every_taken_step_strictly_reduces(self):
        plan = DegradationLadder().plan(synthetic_footprint, state(), 0.0)
        assert not plan.fits  # budget 0 is unreachable
        taken = [s for s in plan.steps if s.taken]
        assert taken
        for step in taken:
            assert step.after_bytes < step.before_bytes
            assert step.delta_bytes < 0
        # The walk visits every rung and ends at the floor of the model.
        assert len(plan.steps) == len(DEFAULT_RUNGS)
        assert plan.final_bytes == min(s.after_bytes for s in plan.steps)

    def test_skips_are_logged_with_reasons(self):
        def gs_is_worse(s):
            if s.config.dataflow is Dataflow.GATHER_SCATTER:
                return 120.0
            return synthetic_footprint(s)

        plan = DegradationLadder().plan(gs_is_worse, state(), 60.0)
        notes = {s.rung: s.note for s in plan.steps if not s.taken}
        assert notes["dataflow:gather_scatter"] == "does not reduce"
        # chunks rungs need gather-scatter, which was skipped.
        assert notes["chunks:2"] == "not applicable"

    def test_no_steps_when_already_fitting(self):
        plan = DegradationLadder().plan(synthetic_footprint, state(), 500.0)
        assert plan.steps == ()
        assert plan.fits and plan.final == plan.start
        assert plan.start_bytes == plan.final_bytes == 100.0

    def test_plan_is_deterministic(self):
        plans = [
            DegradationLadder().plan(synthetic_footprint, state(), 55.0)
            for _ in range(2)
        ]
        assert plans[0] == plans[1]
        assert plans[0].describe() == plans[1].describe()

    def test_describe_mentions_every_rung_outcome(self):
        plan = DegradationLadder().plan(synthetic_footprint, state(), 55.0)
        text = plan.describe()
        for step in plan.steps:
            assert step.rung in text
        assert ("fits" in text) or ("DOES NOT FIT" in text)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="at least one rung"):
            DegradationLadder(rungs=())

    def test_real_model_ladder_reduces_warm_footprint(self, model, samples):
        memo = {}

        def footprint(s):
            if s not in memo:
                memo[s] = model_footprint(
                    model, samples,
                    device="rtx3090",
                    precision=s.precision,
                    policy=FixedPolicy(s.config),
                    batch_chunks=s.batch_chunks,
                    warm=True,
                ).total_bytes
            return memo[s]

        start = state(precision=Precision.FP16)
        budget = footprint(start) * 0.999  # just below steady state
        plan = DegradationLadder().plan(footprint, start, budget)
        assert plan.taken
        assert plan.final_bytes < plan.start_bytes
        for step in plan.steps:
            if step.taken:
                assert step.after_bytes < step.before_bytes
        # Fetch-on-demand is the minimal-workspace dataflow: from the
        # default implicit-GEMM config the ladder always reaches it.
        assert "dataflow:fetch_on_demand" in plan.taken


class TestPrecisionVeto:
    """The value-range pass can veto the precision:drop rung: the planner
    must skip it (recording the reason) and degrade through other rungs."""

    BUDGET = 60.0  # reachable only via precision:drop or batch chunking

    def test_without_veto_precision_drop_is_taken(self):
        plan = DegradationLadder().plan(synthetic_footprint, state(), self.BUDGET)
        assert plan.fits
        assert "precision:drop" in plan.taken
        assert plan.final.precision is Precision.FP16

    def test_veto_skips_rung_and_records_reason(self):
        plan = DegradationLadder().plan(
            synthetic_footprint, state(), self.BUDGET,
            precision_veto="fp16 value range: 2 layer(s) overflow",
        )
        notes = {s.rung: s.note for s in plan.steps if not s.taken}
        assert notes["precision:drop"] == (
            "vetoed: fp16 value range: 2 layer(s) overflow"
        )
        assert "precision:drop" not in plan.taken
        # The plan still converges — through batch chunking — and never
        # enters a reduced-precision state.
        assert plan.fits
        assert plan.final.precision is Precision.FP32
        for step in plan.steps:
            assert step.after_bytes <= step.before_bytes

    def test_vetoed_rung_charges_no_footprint_change(self):
        plan = DegradationLadder().plan(
            synthetic_footprint, state(), self.BUDGET, precision_veto="unsafe",
        )
        vetoed = [s for s in plan.steps if s.note.startswith("vetoed:")]
        assert len(vetoed) == 1
        assert vetoed[0].before_bytes == vetoed[0].after_bytes

    def test_range_pass_drives_the_veto_end_to_end(self):
        from repro.analyze import precision_drop_veto, trace_model
        from tests.test_ranges import _SafeNet, _UnsafeNet

        # A well-normalized model is fp16-safe: no veto, the rung stays
        # available (its numerics are validated against the dense
        # reference in TestDegradedNumerics.test_precision_drop_matches_dense).
        assert precision_drop_veto(trace_model(_SafeNet(), in_channels=4)) is None

        reason = precision_drop_veto(trace_model(_UnsafeNet(), in_channels=4))
        assert reason is not None and "overflow" in reason
        plan = DegradationLadder().plan(
            synthetic_footprint, state(), self.BUDGET, precision_veto=reason,
        )
        assert "precision:drop" not in plan.taken
        notes = {s.rung: s.note for s in plan.steps if not s.taken}
        assert notes["precision:drop"] == f"vetoed: {reason}"


# ---------------------------------------------------------------------- #
# Degraded configurations stay numerically correct
# ---------------------------------------------------------------------- #
class TestDegradedNumerics:
    """Every state the ladder can degrade into must still compute the
    convolution: against the dense reference, not just the baseline."""

    @pytest.mark.parametrize("gs_chunks", [2, 4])
    def test_chunked_gather_scatter_matches_dense(self, gs_chunks):
        coords, feats, weights, kmap = build_case(3, 1, 1, seed=11)
        out, _ = run_dataflow(
            Dataflow.GATHER_SCATTER, feats, weights, kmap,
            precision=Precision.FP32, gs_chunks=gs_chunks,
        )
        ref = dense_reference(coords, feats, weights, kmap)
        np.testing.assert_allclose(
            out, ref, **TOLERANCES[Precision.FP32]
        )
        unchunked, _ = run_dataflow(
            Dataflow.GATHER_SCATTER, feats, weights, kmap,
            precision=Precision.FP32,
        )
        np.testing.assert_allclose(out, unchunked, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP16])
    def test_fetch_on_demand_matches_dense(self, precision):
        coords, feats, weights, kmap = build_case(2, 2, 1, seed=12)
        out, _ = run_dataflow(
            Dataflow.FETCH_ON_DEMAND, feats, weights, kmap,
            precision=precision,
        )
        ref = dense_reference(coords, feats, weights, kmap)
        np.testing.assert_allclose(out, ref, **TOLERANCES[precision])

    def test_precision_drop_matches_dense(self):
        # The ladder's precision rung: same dataflow, FP32 -> FP16 storage.
        coords, feats, weights, kmap = build_case(3, 1, 1, seed=13)
        out, _ = run_dataflow(
            Dataflow.IMPLICIT_GEMM, feats, weights, kmap,
            precision=Precision.FP16,
        )
        ref = dense_reference(coords, feats, weights, kmap)
        np.testing.assert_allclose(out, ref, **TOLERANCES[Precision.FP16])


# ---------------------------------------------------------------------- #
# Device budgets and the simulated-OOM check
# ---------------------------------------------------------------------- #
class TestMemoryBudget:
    def test_every_device_declares_dram(self):
        for device in list_devices():
            assert device.dram_gib > 0
            assert device.dram_bytes == device.dram_gib * (1 << 30)

    def test_zero_dram_rejected(self):
        with pytest.raises(DeviceError, match="DRAM"):
            dataclasses.replace(get_device("a100"), dram_gib=0.0)

    def test_budget_headroom(self):
        a100 = get_device("a100")
        assert memory_budget_bytes(a100) == a100.dram_bytes
        assert memory_budget_bytes(a100, 0.25) == pytest.approx(
            0.75 * a100.dram_bytes
        )
        for bad in (-0.1, 1.0):
            with pytest.raises(ValueError, match="headroom"):
                memory_budget_bytes(a100, bad)

    def test_enforce_returns_peak_or_raises(self):
        _, _, _, kmap = build_case(3, 1, 1, seed=0)
        trace = trace_dataflow(Dataflow.GATHER_SCATTER, kmap, 8, 16)
        device = get_device("a100")
        peak_ws = trace.summary().peak_workspace_bytes
        assert peak_ws > 0

        peak = enforce_memory_budget(trace, device, resident_bytes=1000.0)
        assert peak == pytest.approx(peak_ws + 1000.0)

        with pytest.raises(SimulatedOOMError) as exc:
            enforce_memory_budget(
                trace, device, resident_bytes=1000.0,
                budget_bytes=peak_ws,  # resident pushes it over
            )
        assert exc.value.peak_bytes == pytest.approx(peak)
        assert exc.value.budget_bytes == pytest.approx(peak_ws)
        assert exc.value.peak_bytes > exc.value.budget_bytes

        with pytest.raises(ValueError, match="resident_bytes"):
            enforce_memory_budget(trace, device, resident_bytes=-1.0)


# ---------------------------------------------------------------------- #
# Trace sanitizer: workspace invariants
# ---------------------------------------------------------------------- #
class _StubTrace:
    """Iterable of launches with a forged summary, for invariant tests."""

    def __init__(self, launches, summary):
        self._launches = list(launches)
        self._summary = summary

    def __iter__(self):
        return iter(self._launches)

    def summary(self):
        return self._summary


class TestWorkspaceInvariants:
    def test_real_conv_traces_are_clean(self):
        _, _, _, kmap = build_case(3, 1, 1, seed=1)
        for dataflow in DATAFLOWS:
            trace = trace_dataflow(dataflow, kmap, 8, 16)
            assert check_trace(trace) == []

    def test_negative_workspace_flagged(self):
        # The launch constructor itself refuses negative workspace...
        with pytest.raises(ValueError, match="workspace_bytes"):
            KernelLaunch("bad/ws", LaunchKind.GEMM, workspace_bytes=-64.0)
        # ...and the sanitizer catches one smuggled past it.
        import types

        forged = types.SimpleNamespace(
            name="bad/ws", kind=LaunchKind.GEMM, flops=0.0,
            dram_read_bytes=0.0, dram_write_bytes=0.0,
            atomic_write_bytes=0.0, scalar_ops=0.0,
            workspace_bytes=-64.0, ctas=1, compute_efficiency=1.0,
        )
        trace = _StubTrace(
            [forged], types.SimpleNamespace(peak_workspace_bytes=0.0)
        )
        violations = check_trace(trace)
        assert any(
            v.invariant == "non-negative" and "workspace_bytes" in v.message
            for v in violations
        )

    def test_summary_below_largest_launch_flagged(self):
        launches = [
            KernelLaunch("a/gather", LaunchKind.MEMORY, workspace_bytes=4096.0)
        ]
        import types

        broken = _StubTrace(
            launches, types.SimpleNamespace(peak_workspace_bytes=0.0)
        )
        violations = check_trace(broken)
        assert [v.invariant for v in violations] == ["peak-workspace"]
        honest = _StubTrace(
            launches, types.SimpleNamespace(peak_workspace_bytes=4096.0)
        )
        assert check_trace(honest) == []


# ---------------------------------------------------------------------- #
# Static peak-memory lint rule
# ---------------------------------------------------------------------- #
class TestPeakMemoryLint:
    def _findings(self, model, workload, dram_gib):
        device = dataclasses.replace(get_device("a100"), dram_gib=dram_gib)
        return [
            f for f in lint_model(
                model,
                in_channels=workload.dataset_config.in_channels,
                device=device,
                precision=Precision.FP16,
            )
            if f.rule == "peak-memory"
        ]

    def test_static_weights_lower_bound_runtime_weights(self, model, workload):
        from repro.analyze import trace_model

        ir = trace_model(
            model, in_channels=workload.dataset_config.in_channels
        )
        fp16 = static_weight_bytes(ir, Precision.FP16)
        fp32 = static_weight_bytes(ir, Precision.FP32)
        assert 0 < fp16 <= model_weight_bytes(model, Precision.FP16)
        assert fp32 == 2.0 * fp16

    def test_severity_tracks_capacity(self, model, workload):
        weights = model_weight_bytes(model, Precision.FP16)
        gib = float(1 << 30)
        # Comfortable capacity: silent.
        assert self._findings(model, workload, 40.0) == []
        # Weights land between 80% and 100% of DRAM: warning.
        warn = self._findings(model, workload, 1.1 * weights / gib)
        assert [f.severity.value for f in warn] == ["warning"]
        # Weights alone exceed DRAM: error, with the numbers attached.
        err = self._findings(model, workload, 0.5 * weights / gib)
        assert [f.severity.value for f in err] == ["error"]
        assert err[0].data["weight_bytes"] <= weights
        assert err[0].data["weight_bytes"] > err[0].data["dram_bytes"]


# ---------------------------------------------------------------------- #
# Serving: injected OOMs degrade, never fail
# ---------------------------------------------------------------------- #
from repro.serve import (  # noqa: E402
    FaultInjector,
    FaultPlan,
    ServeConfig,
    ServingRuntime,
    generate_requests,
    parse_traffic,
)


@pytest.fixture(scope="module")
def oom_schedule():
    return generate_requests(
        WORKLOAD, parse_traffic("steady:rate=80", seed=5),
        count=8, num_streams=2, deadline_ms=2000.0,
    )


def oom_config(**overrides):
    base = dict(
        device="rtx3090", precision="fp16", scene_scale=SCALE,
        queue_depth=16,
        faults=FaultPlan(oom_rate=0.5, seed=5),
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestServingOOM:
    def test_oom_rate_validation_and_parse(self):
        with pytest.raises(ConfigError, match="oom_rate"):
            FaultPlan(oom_rate=1.5)
        plan = FaultPlan.parse("oom=0.25", seed=3)
        assert plan.oom_rate == 0.25
        assert plan.active

    def test_oom_draws_deterministic_and_order_free(self):
        plan = FaultPlan(oom_rate=0.5, seed=5)
        forward = FaultInjector(plan, replicas=1)
        backward = FaultInjector(plan, replicas=1)
        hits = [forward.batch_ooms(b) for b in range(20)]
        assert any(hits) and not all(hits)
        assert forward.batch_ooms_injected == sum(hits)
        # The draw is keyed on (seed, batch id), not on call order.
        assert [backward.batch_ooms(b) for b in reversed(range(20))] == list(
            reversed(hits)
        )
        # A different seed reshuffles the hit pattern.
        other = FaultInjector(FaultPlan(oom_rate=0.5, seed=6), replicas=1)
        assert [other.batch_ooms(b) for b in range(20)] != hits

    def test_injected_ooms_degrade_but_never_fail(self, oom_schedule):
        result = ServingRuntime(oom_config()).serve(oom_schedule)
        m = result.metrics
        assert m.completed == len(oom_schedule)
        assert m.failed == 0 and m.shed == 0 and m.timed_out == 0
        assert m.oom_events > 0
        assert m.ladder_steps >= m.oom_events
        assert m.oom_degraded > 0
        recovered = [o for o in result.outcomes if o.ladder]
        assert len(recovered) == m.oom_degraded
        for outcome in recovered:
            assert outcome.completed and outcome.degraded
            assert all(rung in DEFAULT_RUNGS for rung in outcome.ladder)

    def test_seeded_oom_runs_are_identical(self, oom_schedule):
        results = [
            ServingRuntime(oom_config()).serve(oom_schedule)
            for _ in range(2)
        ]
        assert (
            results[0].metrics.to_json() == results[1].metrics.to_json()
        )
        ladders = [
            [o.ladder for o in sorted(
                r.outcomes, key=lambda o: o.request.request_id
            )]
            for r in results
        ]
        assert ladders[0] == ladders[1]

    def test_no_oom_rate_means_no_oom_metrics(self, oom_schedule):
        m = ServingRuntime(oom_config(faults=None)).serve(oom_schedule).metrics
        assert m.oom_events == 0
        assert m.ladder_steps == 0
        assert m.oom_degraded == 0

    def test_memory_aware_admission_rejects_oversized_model(self, model):
        weights = model_weight_bytes(model, Precision.FP16)
        tiny = register_device(
            dataclasses.replace(
                get_device("rtx3090"),
                name="tiny-vram-test",
                dram_gib=0.5 * weights / float(1 << 30),
            )
        )
        runtime = ServingRuntime(oom_config(device=tiny.name))
        with pytest.raises(AdmissionError, match="weight footprint"):
            runtime.model(WORKLOAD)
