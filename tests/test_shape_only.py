"""Shape-only simulation: ``simulate_only`` executions carry no feature data.

A simulated run must emit exactly the launches of a numeric run (every
launch field equal, same latency) while every feature and gradient it
produces is a zero-strided view, so nothing it allocates scales with
``N x C``.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.models import CenterPointBackbone, MinkUNet
from repro.nn import ExecutionContext
from repro.opt import schedule as opt_schedule
from repro.serve import (
    ServeConfig,
    ServingRuntime,
    generate_requests,
    parse_traffic,
)
from repro.sparse import SparseTensor
from repro.sparse.kmap import build_kernel_map
from repro.sparse.tensor import shape_only_feats


def cloud(n=300, extent=16, channels=4, seed=0):
    rng = np.random.default_rng(seed)
    coords = np.unique(
        np.concatenate(
            [np.zeros((n, 1), np.int32),
             rng.integers(0, extent, (n, 3)).astype(np.int32)],
            axis=1,
        ),
        axis=0,
    )
    feats = rng.standard_normal((len(coords), channels)).astype(np.float32)
    return SparseTensor(coords, feats)


MODELS = {
    "minkunet": (lambda: MinkUNet(in_channels=4, num_classes=5, width=0.25),
                 dict(channels=4, extent=16)),
    "centerpoint": (lambda: CenterPointBackbone(in_channels=5),
                    dict(channels=5, extent=40)),
}


def run(name, simulate_only, backward, outputs=None):
    build, shape = MODELS[name]
    model = build()
    ctx = ExecutionContext(training=backward, simulate_only=simulate_only)
    if backward:
        model.train()
    if outputs is not None:
        _record_outputs(model, outputs)
    x = cloud(**shape)
    y = model(x, ctx)
    outputs_of_model = [y.feats]
    if backward:
        # The caller's gradient is shape-only too when simulating.
        make = shape_only_feats if simulate_only else _zeros
        grad = model.backward(make(*y.feats.shape, np.float16), ctx)
        outputs_of_model.append(grad)
        assert grad.shape == x.feats.shape
    if outputs is not None:
        outputs.extend(outputs_of_model)
    return ctx


def _zeros(n, c, dtype):
    return np.zeros((n, c), dtype=dtype)


def _record_outputs(model, outputs):
    """Append every submodule's forward/backward result to ``outputs``."""
    for _, module in list(model.named_modules())[1:]:
        for method in ("forward", "backward"):
            inner = getattr(module, method)

            def recorded(*args, _inner=inner):
                result = _inner(*args)
                parts = result if isinstance(result, tuple) else (result,)
                for part in parts:
                    outputs.append(
                        part.feats if isinstance(part, SparseTensor) else part
                    )
                return result

            setattr(module, method, recorded)


@pytest.mark.parametrize("backward", [False, True], ids=["fwd", "fwd+bwd"])
@pytest.mark.parametrize("name", sorted(MODELS))
class TestShapeOnly:
    def test_matches_numeric_trace_and_latency(self, name, backward):
        numeric = run(name, simulate_only=False, backward=backward)
        simulated = run(name, simulate_only=True, backward=backward)
        assert list(simulated.trace) == list(numeric.trace)
        assert simulated.latency_us() == numeric.latency_us()

    def test_every_output_is_zero_strided(self, name, backward):
        outputs = []
        run(name, simulate_only=True, backward=backward, outputs=outputs)
        assert len(outputs) > 10
        for feats in outputs:
            assert feats.strides == (0, 0)
            assert not feats.flags.writeable


def _peak_bytes(fn):
    # A cyclic collection inside the traced call frees garbage at a point
    # set by the process's allocation history, not by this call, which
    # moves the peak by ~1%; collect first and hold collection off.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def _peak_forward_bytes(width, x):
    model = MinkUNet(in_channels=4, num_classes=5, width=width)
    ctx = ExecutionContext(simulate_only=True)
    return _peak_bytes(lambda: model(x, ctx))


def _peak_build_and_forward_bytes(width, x):
    def build_and_forward():
        model = MinkUNet(in_channels=4, num_classes=5, width=width)
        model(x, ExecutionContext(simulate_only=True))

    return _peak_bytes(build_and_forward)


def test_forward_peak_allocation_independent_of_width():
    # Kernel maps depend on coordinates only; building them first on the
    # shared map cache leaves features as the only width-dependent cost.
    x = cloud(n=2000, extent=20)
    _peak_forward_bytes(0.25, x)
    narrow = _peak_forward_bytes(0.5, x)
    wide = _peak_forward_bytes(1.0, x)
    assert wide <= narrow * 1.01


def test_build_and_forward_peak_allocation_independent_of_width():
    # Parameters and running statistics are shape-only until a numeric
    # pass reads them, so building a wider model allocates no more either.
    x = cloud(n=2000, extent=20)
    _peak_build_and_forward_bytes(0.25, x)
    narrow = _peak_build_and_forward_bytes(0.5, x)
    wide = _peak_build_and_forward_bytes(1.0, x)
    assert wide <= narrow * 1.01


def test_map_sizes_counted_once_and_read_only():
    kmap = build_kernel_map(cloud().coords, kernel_size=3)
    sizes = kmap.map_sizes
    assert kmap.map_sizes is sizes
    assert not sizes.flags.writeable
    assert kmap.total_pairs == int(np.count_nonzero(kmap.nbmap >= 0))


def test_scheduled_latency_equals_estimate():
    ctx = ExecutionContext(simulate_only=True, gpu_streams=2)
    MinkUNet(in_channels=4, num_classes=5, width=0.25)(cloud(), ctx)
    run = ctx.execution()
    latency_us, events = run.latency_us, run.sync_events
    schedule = ctx.execution().schedule
    assert latency_us == ctx.latency_us() == schedule.makespan_us
    assert events == len(schedule.events) > 0


def test_multistream_serving_schedules_each_batch_once(monkeypatch):
    calls = []
    real = opt_schedule.best_schedule

    def counting(trace, device, precision, streams, graph=None, prices=None):
        # The suite's trace sanitizer schedules on 2 streams; count only
        # the runtime's own 3-stream schedules.
        if streams == 3:
            calls.append(1)
        return real(trace, device, precision, streams, graph, prices)

    monkeypatch.setattr(opt_schedule, "best_schedule", counting)
    requests = generate_requests(
        "NS-M-1f", parse_traffic("steady:rate=40", seed=0),
        count=4, num_streams=2, deadline_ms=300.0,
    )
    runtime = ServingRuntime(ServeConfig(
        device="rtx3090", precision="fp16", scene_scale=0.05,
        queue_depth=16, gpu_streams=3,
    ))
    runtime.warm_policy("NS-M-1f")
    metrics = runtime.serve(requests).metrics
    assert metrics.completed == len(requests)
    assert metrics.sync_events > 0
    assert len(calls) == metrics.batches
