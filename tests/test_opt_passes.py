"""Pass-soundness harness for the ``repro.opt`` rewrite pipeline.

Every pass is exercised over the dataflow x precision grid and must

(a) leave :func:`repro.analyze.depgraph.check_dependences` clean on a
    clean input (rewrites never introduce hazards),
(b) satisfy its declared conservation contract — counters outside
    ``may_reduce`` unchanged, counters inside it never increasing,
(c) preserve execution semantics: the numerics the trace models match
    the dense reference within the existing differential tolerances
    (passes rewrite the latency model, never the math).

Negative tests prove the sandwich actually bites: contract-breaking
passes raise :class:`PassSoundnessError` instead of silently corrupting
the trace, and leave the caller's trace untouched.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.analyze.depgraph import check_dependences
from repro.analyze.tracecheck import TraceViolation, check_trace
from repro.gpusim.trace import (
    UNSCOPED,
    BufferAccess,
    KernelLaunch,
    KernelTrace,
    LaunchKind,
    TraceScope,
)
from repro.kernels import run_dataflow
from repro.kernels.base import KernelSchedule
from repro.kernels.registry import DATAFLOWS, trace_dataflow
from repro.opt import (
    DEFAULT_PIPELINE,
    PASSES,
    OptError,
    Pass,
    PassSoundnessError,
    optimize_trace,
)
from repro.opt import passes as opt_passes
from repro.precision import Precision
from tests.broken_traces import healthy_trace, leaked_staging_trace
from tests.test_dataflow_differential import (
    TOLERANCES,
    build_case,
    dense_reference,
)

#: Dynamic-shape schedule: declares hoistable address arithmetic, so the
#: hoist-invariants pass has something to do on every dataflow.
NAIVE = KernelSchedule(hoist_invariants=False)

#: Conservation slack (matches the pipeline's internal epsilon).
EPS = 0.5

COUNTERS = (
    "launches",
    "flops",
    "dram_read_bytes",
    "dram_write_bytes",
    "atomic_write_bytes",
    "scalar_ops",
    "peak_workspace_bytes",
)


def assert_conserved(result):
    """Explicitly re-check one PassResult against its pass's contract."""
    may_reduce = PASSES[result.name].may_reduce
    for field in COUNTERS:
        before = float(getattr(result.before, field))
        after = float(getattr(result.after, field))
        if field in may_reduce:
            assert after <= before + EPS, (
                f"{result.name} increased reducible {field}: "
                f"{before} -> {after}"
            )
        else:
            assert abs(after - before) <= EPS, (
                f"{result.name} changed conserved {field}: "
                f"{before} -> {after}"
            )


class TestPipelineGrid:
    """Default pipeline x dataflow x precision: soundness + numerics."""

    @pytest.mark.parametrize("precision", list(TOLERANCES))
    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    def test_pipeline_sound_and_numerics_match(self, dataflow, precision):
        coords, feats, weights, kmap = build_case(
            3, 1, 1, seed=sum(map(ord, dataflow)) % 997
        )
        out, trace = run_dataflow(
            dataflow, feats, weights, kmap,
            schedule=NAIVE, precision=precision,
        )
        assert check_dependences(list(trace)) == []
        optimized, results = optimize_trace(trace)
        # (a) still hazard-free after the full pipeline
        assert check_dependences(optimized.launches) == []
        assert check_trace(optimized) == []
        # (b) every pass honored its conservation contract
        for result in results:
            assert_conserved(result)
        # (c) the modeled execution's numerics are untouched by rewrites
        expected = dense_reference(coords, feats, weights, kmap)
        np.testing.assert_allclose(
            out.astype(np.float64), expected, **TOLERANCES[precision]
        )

    @pytest.mark.parametrize("pass_name", sorted(PASSES))
    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    def test_each_pass_alone_is_sound(self, dataflow, pass_name):
        _, _, _, kmap = build_case(3, 1, 1, seed=11)
        trace = trace_dataflow(
            dataflow, kmap, c_in=5, c_out=6,
            schedule=NAIVE, precision=Precision.FP16,
        )
        snapshot = copy.deepcopy(list(trace))
        optimized, results = optimize_trace(trace, passes=[pass_name])
        assert check_dependences(optimized.launches) == []
        assert_conserved(results[0])
        # Passes build the launches they change anew.
        assert list(trace) == snapshot


class TestFusion:
    def test_fuses_gather_gemm_scatter_chains(self):
        _, _, _, kmap = build_case(3, 1, 1, seed=3)
        trace = trace_dataflow("gather_scatter", kmap, c_in=8, c_out=16)
        optimized, results = optimize_trace(trace, passes=["fuse"])
        (result,) = results
        assert result.changed
        # Each per-offset gather/gemm/scatter triple collapses to one
        # launch: 2 launches removed per populated offset.
        offsets = sum(
            1 for launch in trace if launch.name.startswith("gemm/")
        )
        assert result.launches_removed == 2 * offsets
        # Staging buffers leave DRAM and the workspace plan.
        assert result.after.dram_read_bytes < result.before.dram_read_bytes
        assert (
            result.after.peak_workspace_bytes
            < result.before.peak_workspace_bytes
        )
        # Math is conserved: fusion moves data, not flops.
        assert result.after.flops == pytest.approx(result.before.flops)
        assert result.after.scalar_ops == pytest.approx(
            result.before.scalar_ops
        )
        # The fused names stay legible to the scatter-race checker.
        assert check_trace(optimized) == []

    def test_fusion_is_idempotent(self):
        _, _, _, kmap = build_case(3, 1, 1, seed=4)
        trace = trace_dataflow("gather_scatter", kmap, c_in=8, c_out=8)
        optimized, _ = optimize_trace(trace, passes=["fuse"])
        once = [launch.name for launch in optimized]
        again, results = optimize_trace(optimized, passes=["fuse"])
        assert not results[0].changed
        assert [launch.name for launch in again] == once

    def test_external_consumer_blocks_fusion(self):
        # A second reader of a staging buffer outside the group must keep
        # the buffer in DRAM: the run may not fuse.
        _, _, _, kmap = build_case(3, 1, 1, seed=5)
        trace = list(trace_dataflow("gather_scatter", kmap, c_in=4, c_out=4))
        staged = next(
            access.buffer
            for launch in trace
            for access in launch.writes
            if launch.name.startswith("gather/") and access.workspace
        )
        spy = KernelLaunch(
            name="debug/spy",
            kind=LaunchKind.MEMORY,
            dram_read_bytes=8.0,
            reads=(BufferAccess(staged, 8.0),),
        )
        trace.append(spy)
        optimized, _ = optimize_trace(KernelTrace(trace), passes=["fuse"])
        names = [launch.name for launch in optimized]
        # The triple whose staging buffer the spy reads stayed unfused...
        assert any(name.startswith("gather/") for name in names)
        # ...while the other offsets fused normally.
        assert any(name.startswith("gather_gemm_scatter/") for name in names)


class TestHoistInvariants:
    def test_matches_hand_hoisted_schedule_exactly(self):
        _, _, _, kmap = build_case(3, 1, 1, seed=7)
        naive = trace_dataflow(
            "implicit_gemm", kmap, c_in=8, c_out=16, schedule=NAIVE
        )
        hoisted_by_hand = trace_dataflow(
            "implicit_gemm", kmap, c_in=8, c_out=16,
            schedule=KernelSchedule(hoist_invariants=True),
        )
        optimized, results = optimize_trace(
            naive, passes=["hoist-invariants"]
        )
        assert results[0].changed
        got = optimized.summary()
        want = hoisted_by_hand.summary()
        assert got.scalar_ops == pytest.approx(want.scalar_ops)
        assert got.flops == pytest.approx(want.flops)

    def test_noop_on_fixed_shape(self):
        _, _, _, kmap = build_case(3, 1, 1, seed=8)
        trace = trace_dataflow(
            "implicit_gemm", kmap, c_in=8, c_out=16,
            schedule=KernelSchedule(fixed_shape=True),
        )
        _, results = optimize_trace(trace, passes=["hoist-invariants"])
        assert not results[0].changed


def _second_layer(layer):
    """Copy a layer trace, renaming external *outputs* only — the shape of
    a second layer that shares the first one's map signature and inputs
    but produces its own features."""
    copied = []
    for launch in layer:
        clone = copy.deepcopy(launch)
        if clone.kind is not LaunchKind.MAPPING:
            clone.writes = tuple(
                access
                if access.workspace
                else BufferAccess(
                    access.buffer + ".2", access.nbytes, access.atomic
                )
                for access in clone.writes
            )
        copied.append(clone)
    return copied


class TestHoistMapBuilds:
    def test_drops_identical_map_rebuild(self):
        # Two layers sharing a map signature in one cache scope: the
        # second layer's mapping launches recompute byte-identical maps.
        _, _, _, kmap = build_case(3, 1, 1, seed=9)
        layer = trace_dataflow("implicit_gemm", kmap, c_in=8, c_out=8)
        doubled = KernelTrace([*layer, *_second_layer(layer)])
        mapping = sum(
            1 for launch in layer if launch.kind is LaunchKind.MAPPING
        )
        assert mapping > 0
        optimized, results = optimize_trace(doubled, passes=["hoist-maps"])
        assert results[0].launches_removed == mapping
        assert check_dependences(optimized.launches) == []

    def test_intervening_write_blocks_reuse(self):
        _, _, _, kmap = build_case(3, 1, 1, seed=10)
        layer = list(trace_dataflow("implicit_gemm", kmap, c_in=8, c_out=8))
        map_written = next(
            access.buffer
            for launch in layer
            if launch.kind is LaunchKind.MAPPING
            for access in launch.writes
        )
        clobber = KernelLaunch(
            name="debug/clobber",
            kind=LaunchKind.MEMORY,
            dram_write_bytes=8.0,
            writes=(BufferAccess(map_written, 8.0),),
        )
        doubled = KernelTrace([*layer, clobber, *_second_layer(layer)])
        optimized, _ = optimize_trace(doubled, passes=["hoist-maps"])
        # The clobbered build must be recomputed: the mapping launch whose
        # buffer was overwritten survives in both layers.
        rebuilt = [
            launch
            for launch in optimized
            if launch.kind is LaunchKind.MAPPING
            and any(a.buffer == map_written for a in launch.writes)
        ]
        assert len(rebuilt) == 2

    def test_noop_without_mapping_launches(self):
        # Gather-scatter traces carry no MAPPING launches: nothing to CSE.
        trace = healthy_trace(seed=2)
        _, results = optimize_trace(trace, passes=["hoist-maps"])
        assert not results[0].changed


class TestDeadLaunchElimination:
    def test_repairs_leaked_staging(self):
        broken = leaked_staging_trace()
        # The leak is visible before...
        assert any(
            v.invariant == "workspace-lifetime"
            for v in check_dependences(list(broken))
        )
        optimized, results = optimize_trace(broken, passes=["dle"])
        assert results[0].changed
        # ...and gone after: the orphan GEMM and its gather are removed.
        assert check_dependences(optimized.launches) == []
        assert results[0].launches_removed == 2

    def test_keeps_observable_writes(self):
        trace = healthy_trace(seed=1)
        _, results = optimize_trace(trace, passes=["dle"])
        assert not results[0].changed


class TestPlanWorkspace:
    def test_shrinks_over_declared_launch(self):
        producer = KernelLaunch(
            name="debug/producer",
            kind=LaunchKind.MEMORY,
            dram_write_bytes=100.0,
            workspace_bytes=10_000.0,
            writes=(UNSCOPED.ws("stage", 100.0),),
        )
        consumer = KernelLaunch(
            name="debug/consumer",
            kind=LaunchKind.MEMORY,
            dram_read_bytes=100.0,
            workspace_bytes=10_000.0,
            reads=(UNSCOPED.ws("stage", 100.0),),
        )
        optimized, results = optimize_trace(
            KernelTrace([producer, consumer]), passes=["plan-workspace"]
        )
        assert results[0].changed
        for launch in optimized:
            assert launch.workspace_bytes == pytest.approx(100.0)
        assert results[0].workspace_saved_bytes == pytest.approx(9_900.0)

    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    def test_never_increases_peak(self, dataflow):
        _, _, _, kmap = build_case(2, 2, 1, seed=13)
        trace = trace_dataflow(dataflow, kmap, c_in=8, c_out=8)
        optimized, results = optimize_trace(
            trace, passes=["plan-workspace"]
        )
        assert (
            results[0].after.peak_workspace_bytes
            <= results[0].before.peak_workspace_bytes + EPS
        )
        # Tightened plans still satisfy the lifetime accounting check.
        assert check_dependences(optimized.launches) == []

    def test_shrinks_fused_gather_scatter_staging(self):
        # The generator's fused-gs GEMMs over-declare workspace (pair
        # lists + gather buffer + staged output, summed); the planner
        # provably tightens them.
        _, _, _, kmap = build_case(3, 1, 1, seed=14)
        trace = trace_dataflow("gather_scatter_fused", kmap, c_in=8, c_out=16)
        declared_before = sum(launch.workspace_bytes for launch in trace)
        optimized, results = optimize_trace(
            trace, passes=["plan-workspace"]
        )
        assert results[0].changed
        # Early GEMM groups run before most staged outputs exist: their
        # declarations tighten, so total declared workspace shrinks even
        # though the peak (set by the last, fully-live group) stands.
        declared_after = sum(
            launch.workspace_bytes for launch in optimized
        )
        assert declared_after < declared_before
        assert results[0].workspace_saved_bytes >= 0


class TestAcceptance:
    def test_hoisting_plus_fusion_reduce_launches_and_workspace(self):
        # ISSUE acceptance: at least one workload where the pipeline cuts
        # both total launches and peak_workspace_bytes.  A two-layer
        # network traced the way conv layers do (scoped buffers, features
        # chained) exercises fusion (gs layer) and invariant hoisting
        # (naive-dynamic implicit-gemm layer) in one program.
        _, _, _, kmap = build_case(3, 1, 1, seed=15)
        gs = trace_dataflow(
            "gather_scatter", kmap, c_in=64, c_out=64,
            scope=TraceScope("l0/fwd"),
        )
        ig = trace_dataflow(
            "implicit_gemm", kmap, c_in=64, c_out=16, schedule=NAIVE,
            scope=TraceScope("l1/fwd", feats_in="ext:l0/fwd:feats_out"),
        )
        trace = KernelTrace([*gs, *ig])
        before = trace.summary()
        optimized, results = optimize_trace(trace)
        after = optimized.summary()
        assert after.launches < before.launches
        assert after.peak_workspace_bytes < before.peak_workspace_bytes
        assert after.scalar_ops < before.scalar_ops  # hoisting fired too
        assert check_dependences(optimized.launches) == []
        assert [r.name for r in results] == list(DEFAULT_PIPELINE)


def _add_flops(launches):
    """Deliberately broken: inflates a conserved counter by 1,000 flops
    per launch (on new launch objects, as a pass must)."""
    return [
        dataclasses.replace(launch, flops=launch.flops + 1e3)
        for launch in launches
    ]


def _drop_scatter(launches):
    """Deliberately broken: orphans a staging buffer (introduces a leak)."""
    return [
        launch for launch in launches if not launch.name.startswith("scatter/")
    ]


COUNTERFEIT_FLOPS = Pass("counterfeit-flops", frozenset(), _add_flops)
DROP_SCATTER = Pass("drop-scatter", frozenset(COUNTERS), _drop_scatter)


class TestSoundnessSandwich:
    def test_unknown_pass_name_rejected(self):
        with pytest.raises(OptError, match="unknown pass"):
            optimize_trace(healthy_trace(), ["fuse", "no-such-pass"])

    def test_conservation_violation_raises(self, monkeypatch):
        monkeypatch.setitem(PASSES, COUNTERFEIT_FLOPS.name, COUNTERFEIT_FLOPS)
        with pytest.raises(PassSoundnessError, match="conserved counter"):
            optimize_trace(healthy_trace(), [COUNTERFEIT_FLOPS.name])

    def test_introduced_violation_raises(self, monkeypatch):
        monkeypatch.setitem(PASSES, DROP_SCATTER.name, DROP_SCATTER)
        with pytest.raises(PassSoundnessError, match="introduced"):
            optimize_trace(healthy_trace(), [DROP_SCATTER.name])

    def test_broken_input_stays_diagnosable(self):
        # An already-broken trace may flow through: passes must not
        # *introduce* violations, but pre-existing ones are tolerated
        # (and dle may even repair them).
        optimized, _ = optimize_trace(leaked_staging_trace(), passes=["fuse"])
        assert len(optimized) > 0


class TestRejectedPassLeavesInputAlone:
    """A rejected pass raises with the caller's trace as it was."""

    def test_counterfeit_pass(self, monkeypatch):
        monkeypatch.setitem(PASSES, COUNTERFEIT_FLOPS.name, COUNTERFEIT_FLOPS)
        trace = healthy_trace()
        before = trace.summary()
        with pytest.raises(PassSoundnessError, match="conserved counter"):
            optimize_trace(trace, [COUNTERFEIT_FLOPS.name])
        assert trace.summary() == before

    def test_hoisting_pass(self, monkeypatch):
        # Force the post-rewrite structural check to report a new kind:
        # the hoisting pass is rejected, and must not have rewritten the
        # caller's launches on the way.
        _, _, _, kmap = build_case(3, 1, 1, seed=7)
        trace = trace_dataflow(
            "implicit_gemm", kmap, c_in=8, c_out=16, schedule=NAIVE
        )
        snapshot = copy.deepcopy(list(trace))
        real = opt_passes.check_trace
        calls = []

        def check_trace_failing_after(candidate):
            calls.append(1)
            found = real(candidate)
            if len(calls) > 1:
                found = [*found, TraceViolation("forced", "by the test")]
            return found

        monkeypatch.setattr(opt_passes, "check_trace", check_trace_failing_after)
        with pytest.raises(PassSoundnessError, match="introduced"):
            optimize_trace(trace, passes=["hoist-invariants"])
        assert list(trace) == snapshot
