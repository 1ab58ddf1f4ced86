"""Each layer's trace is built once, with its final names.

Trace generators take the layer's :class:`~repro.gpusim.trace.TraceScope`
and construct every launch with its final name and buffer ids.  The
reference here is the two-step construction that scoping replaced —
generate with local names, prefix every launch name, then rebuild every
buffer access under the layer's namespace, splicing a forward pass's
``ext:feats_in`` onto the previous layer's output — kept as an in-test
copy so the one-step traces can be compared with it field by field.
"""

import dataclasses

import numpy as np
import pytest

import repro.nn.conv as conv
from repro.gpusim.trace import UNSCOPED, BufferAccess, TraceScope
from repro.kernels import ImplicitGemmConfig, trace_dataflow, wgrad_trace
from repro.kernels.registry import Dataflow
from repro.models import get_workload
from repro.nn import ExecutionContext, FixedPolicy, LayerConfig
from repro.nn.mapping_cost import map_build_trace, map_reorder_trace
from repro.serve.runtime import tuning_samples
from repro.sparse.kmap import build_kernel_map
from repro.sparse.tensor import SparseTensor, shape_only_feats

PRECISIONS = ("fp16", "tf32", "fp32")
CONFIGS = {
    **{d.value: LayerConfig(dataflow=d) for d in Dataflow},
    "gather_scatter_chunks2": LayerConfig(
        dataflow=Dataflow.GATHER_SCATTER, gs_chunks=2
    ),
    "implicit_gemm_splits3_online": LayerConfig(
        ig_config=ImplicitGemmConfig(num_splits=3, offline_reorder=False)
    ),
    "implicit_gemm_unsorted": LayerConfig(
        ig_config=ImplicitGemmConfig(sort=False)
    ),
}


# -- the two-step construction, as the convolution layer used to do it -- #
def _scoped(access, prefix, renames):
    renamed = renames.get(access.buffer)
    if renamed is not None:
        return dataclasses.replace(access, buffer=renamed)
    cls, _, name = access.buffer.partition(":")
    return dataclasses.replace(access, buffer=f"{cls}:{prefix}:{name}")


def scope_buffers(trace, prefix, renames=None):
    table = renames or {}
    for launch in trace:
        launch.reads = tuple(_scoped(a, prefix, table) for a in launch.reads)
        launch.writes = tuple(_scoped(a, prefix, table) for a in launch.writes)
    return trace


def two_step_kernel(generate):
    """``generate`` (a kernel trace generator) built unscoped, then
    renamed: launch ``<layer>/<pass>:<name>``, buffers under the same
    prefix, a forward pass's input features spliced in by rename."""

    def reference(*args, scope, **kwargs):
        trace = generate(*args, **kwargs)
        for launch in trace:
            launch.name = f"{scope.prefix}:{launch.name}"
        renames = {}
        if scope.prefix.endswith("/fwd"):
            renames["ext:feats_in"] = scope.feats_in
        return scope_buffers(trace, scope.prefix, renames)

    return reference


def two_step_map(generate):
    """A map trace built with local names, then scoped under ``name``."""

    def reference(kmap, name="map"):
        trace = generate(kmap, "")
        for launch in trace:
            launch.name = f"{name}/{launch.name}"
        return scope_buffers(trace, name)

    return reference


def use_two_step(monkeypatch):
    for name, wrap in (
        ("trace_dataflow", two_step_kernel),
        ("wgrad_trace", two_step_kernel),
        ("map_build_trace", two_step_map),
        ("map_reorder_trace", two_step_map),
    ):
        monkeypatch.setattr(conv, name, wrap(getattr(conv, name)))


def fields(trace):
    """Every field of every launch, in order (accesses included)."""
    return [dataclasses.asdict(launch) for launch in trace]


# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def scene():
    return tuning_samples(get_workload("SK-M-0.5"), 0.05)[0]


def run(scene, config, precision, backward, numeric=False):
    model = get_workload("SK-M-0.5").build_model()
    if backward:
        model.train()
    ctx = ExecutionContext(
        precision=precision,
        policy=FixedPolicy(config),
        training=backward,
        simulate_only=not numeric,
    )
    # A fresh tensor per run: every map build and reorder is charged.
    y = model(SparseTensor(scene.coords, scene.feats), ctx)
    if backward:
        grad = (
            np.zeros(y.feats.shape, np.float16)
            if numeric
            else shape_only_feats(*y.feats.shape, np.float16)
        )
        model.backward(grad, ctx)
    return ctx.trace


class TestMatchesTwoStepConstruction:
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "train"])
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_minkunet_trace(self, monkeypatch, scene, config, precision,
                            backward):
        scoped = run(scene, CONFIGS[config], precision, backward)
        with monkeypatch.context() as patch:
            use_two_step(patch)
            reference = run(scene, CONFIGS[config], precision, backward)
        assert len(scoped) == len(reference) > 0
        assert fields(scoped) == fields(reference)
        names = " ".join(launch.name for launch in scoped)
        passes = ("/fwd:", "/map/") + (("/dgrad:", "/wgrad:") if backward else ())
        assert all(p in names for p in passes)

    def test_numeric_run_matches(self, monkeypatch):
        # A numeric run takes the same single trace path.
        small = tuning_samples(get_workload("SK-M-0.5"), 0.01)[0]
        config = CONFIGS["gather_scatter"]
        scoped = run(small, config, "fp32", True, numeric=True)
        with monkeypatch.context() as patch:
            use_two_step(patch)
            reference = run(small, config, "fp32", True, numeric=True)
        assert fields(scoped) == fields(reference)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_map_traces(self, scene, stride):
        kmap = build_kernel_map(scene.coords, kernel_size=3, stride=stride)
        for generate in (map_build_trace, map_reorder_trace):
            built = generate(kmap, "enc1/map")
            assert len(built) > 0
            assert fields(built) == fields(
                two_step_map(generate)(kmap, "enc1/map")
            )

    def test_unscoped_generators_keep_local_ids(self, scene):
        kmap = build_kernel_map(scene.coords, kernel_size=3)
        trace = trace_dataflow("gather_scatter", kmap, 4, 8)
        assert fields(trace) == fields(
            trace_dataflow("gather_scatter", kmap, 4, 8, scope=UNSCOPED)
        )
        accesses = [a for l in trace for a in (*l.reads, *l.writes)]
        assert {a.buffer.count(":") for a in accesses} == {1}
        assert trace.launches[0].name == "gather/offset0"
        wgrad = wgrad_trace(kmap, 4, 8, scope=TraceScope("l/wgrad"))
        assert wgrad.launches[-1].name == "l/wgrad:wgrad/gemm"
        assert wgrad.launches[-1].reads[0].buffer == "ext:l/wgrad:feats_in"


class TestBuiltOnce:
    @pytest.mark.parametrize("config", list(Dataflow), ids=str)
    def test_forward_constructs_no_access_twice(self, monkeypatch, scene,
                                                config):
        constructed = []
        init = BufferAccess.__init__

        def counting(self, *args, **kwargs):
            constructed.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BufferAccess, "__init__", counting)
        trace = run(scene, LayerConfig(dataflow=config), "fp16", False)
        held = sum(len(l.reads) + len(l.writes) for l in trace)
        assert 0 < len(constructed) <= held
