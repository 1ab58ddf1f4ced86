"""The autotuners' objective is the cost execution charges.

Both tuners price each candidate with the trace the layer itself runs
(``repro.nn.conv.conv_pass_trace``), so a tuner's group costs under one
config must equal what a shape-only execution under that config charges
for its convolutions, map construction aside (the tuner probes maps it
already built).
"""

import numpy as np
import pytest

from repro.data import datasets
from repro.models.registry import get_workload
from repro.nn.context import ExecutionContext, FixedPolicy
from repro.nn.mapping_cost import map_build_trace
from repro.sparse.tensor import batch_sparse_tensors
from repro.tune import BindingScheme, SparseAutotuner, TrainingTuner
from repro.tune.space import TORCHSPARSEPP_SPACE, DesignSpace

DEVICE, PRECISION = "a100", "fp16"


@pytest.fixture(scope="module")
def preset():
    workload = get_workload("SK-M-0.5")
    sample = datasets.make_sample(
        workload.dataset, frames=workload.frames, seed=9_000_000, scale=0.05
    )
    return workload.build_model(), sample


def _executed_us(ctx):
    """(conv launches without map builds, of which map restructuring) in
    µs, from one pricing of everything ``ctx`` traced."""
    labels = {record.label for record in ctx.layers}
    build_stages = {
        launch.name
        for record in ctx.layers
        for launch in map_build_trace(record.kmap, "")
    }
    run = ctx.execution()
    conv_us = restructure_us = 0.0
    for launch, us in zip(run.trace, run.prices):
        layer, _, stage = launch.name.partition("/")
        if layer not in labels or stage.rsplit("/", 1)[-1] in build_stages:
            continue
        conv_us += us
        if stage.startswith("map/restructure"):
            restructure_us += us
    return conv_us, restructure_us


def _only(config):
    return DesignSpace(name="one", candidates=(config,))


@pytest.mark.parametrize(
    "config", TORCHSPARSEPP_SPACE.candidates,
    ids=[c.describe() for c in TORCHSPARSEPP_SPACE],
)
def test_inference_objective_is_the_executed_forward(preset, config):
    model, sample = preset
    model.eval()
    _, report = SparseAutotuner(space=_only(config), default=config).tune(
        model, [sample], DEVICE, PRECISION
    )
    ctx = ExecutionContext(
        DEVICE, PRECISION, FixedPolicy(config), simulate_only=True
    )
    model(sample, ctx)
    executed_us, _ = _executed_us(ctx)
    assert report.default_us == pytest.approx(executed_us, rel=1e-12)


def test_training_objective_omits_only_the_forward_conversion(preset):
    """The training tuner's all-roles cost misses exactly the executed
    forward storage-order conversion: what execution charges for
    restructuring maps, the same amount for every config of a dataflow
    family (transposed maps for implicit GEMM, hash-built ones for
    fetch-on-demand)."""
    model, sample = preset
    model.train()
    batch = batch_sparse_tensors([sample, sample])
    omitted = {}
    try:
        for config in TORCHSPARSEPP_SPACE:
            tuner = TrainingTuner(
                space=_only(config), default=config,
                scheme=BindingScheme.BIND_ALL,
            )
            _, report = tuner.tune(model, [batch], DEVICE, PRECISION)
            ctx = ExecutionContext(
                DEVICE, PRECISION, FixedPolicy(config), simulate_only=True,
                training=True,
            )
            out = model(batch, ctx)
            model.backward(
                np.zeros(out.feats.shape, dtype=ctx.precision.dtype), ctx
            )
            model.zero_grad()
            executed_us, restructure_us = _executed_us(ctx)
            assert report.bound_all_us + restructure_us == pytest.approx(
                executed_us, rel=1e-12
            )
            omitted.setdefault(config.dataflow, set()).add(
                round(restructure_us, 6)
            )
    finally:
        model.eval()
    assert len(omitted) == 2
    assert all(len(us) == 1 and min(us) > 0 for us in omitted.values())
