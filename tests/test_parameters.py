"""Shape-only parameters: values are drawn on the first numeric read.

Every parameter knows its shape, dtype and byte count from its init
recipe.  Its values are drawn from the layer's own ``default_rng(seed)``
stream the first time ``.data`` is read, so they are byte-identical to an
eager draw, and simulate-only set-up and execution never draw them.
Serving admission reads each conv weight once through ``peek`` and keeps
no drawn values.
"""

import hashlib
import math
import pickle

import numpy as np
import pytest

from repro.analyze import trace_model
from repro.baselines.engines import get_engine
from repro.data.datasets import make_sample
from repro.models import WORKLOADS, MinkUNet, get_workload
from repro.nn import ExecutionContext
from repro.nn.conv import SparseConv3d
from repro.nn.module import ConstantInit, NormalInit, Parameter
from repro.nn.optim import SGD
from repro.resilience import model_weight_bytes
from repro.serve import ServingRuntime
from repro.sparse import SparseTensor
from repro.sparse.tensor import shape_only_feats

#: sha256 prefix of each preset's ``state_dict`` (sorted names, then raw
#: bytes), recorded from the eager-initialisation code this replaced.
STATE_DIGESTS = {
    "SK-M-0.5": "cdea3e767ff314d5",
    "SK-M-1.0": "1d1d79baac57f117",
    "NS-M-1f": "1d1d79baac57f117",
    "NS-M-3f": "1d1d79baac57f117",
    "NS-C-10f": "2d0a86d23ff59104",
    "WM-C-1f": "4a92ef7d2d9ef33a",
    "WM-C-3f": "4a92ef7d2d9ef33a",
}


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


def small_model():
    return MinkUNet(in_channels=4, num_classes=5, width=0.25)


@pytest.fixture
def no_draws(monkeypatch):
    """Make any parameter draw fail the test."""

    def draw(self):
        raise AssertionError(f"parameter drawn: {self}")

    monkeypatch.setattr(NormalInit, "draw", draw)
    monkeypatch.setattr(ConstantInit, "draw", draw)


def _digest(state):
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode())
        h.update(np.ascontiguousarray(state[name]).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("workload_id", sorted(WORKLOADS))
def test_lazy_state_dict_matches_eager_draw(workload_id):
    model = get_workload(workload_id).build_model()
    convs = {
        name: module for name, module in model.named_modules()
        if isinstance(module, SparseConv3d)
    }
    inits = {name: p.init for name, p in model.named_parameters()}
    state = model.state_dict()
    assert _digest(state) == STATE_DIGESTS[workload_id]
    for name, conv in convs.items():
        init = inits[f"{name}.weight"]
        shape = (conv.volume, conv.in_channels, conv.out_channels)
        assert init.shape == shape
        assert init.std == math.sqrt(2.0 / (conv.volume * conv.in_channels))
        eager = (
            np.random.default_rng(init.seed).standard_normal(shape) * init.std
        ).astype(np.float32)
        assert state[f"{name}.weight"].tobytes() == eager.tobytes()
    assert all(p.init is None for p in model.parameters())


def test_parameter_knows_shape_dtype_and_bytes_without_drawing(no_draws):
    param = Parameter(init=NormalInit(shape=(27, 16, 32), seed=3, std=0.1))
    assert param.shape == (27, 16, 32)
    assert param.dtype == np.float32
    assert param.nbytes == 27 * 16 * 32 * 4
    assert repr(param) == "Parameter(shape=(27, 16, 32))"
    view = param.shape_only()
    assert view.shape == param.shape and view.strides == (0, 0, 0)
    assert pickle.loads(pickle.dumps(param)).init == param.init


def test_parameter_takes_exactly_one_source():
    with pytest.raises(ValueError):
        Parameter()
    with pytest.raises(ValueError):
        Parameter(np.zeros(2), init=ConstantInit((2,), 0.0))


def test_simulated_setup_and_execution_never_draw(no_draws):
    models = [w.build_model() for w in WORKLOADS.values()]
    for model in models:
        assert model_weight_bytes(model, "fp16") == 2 * model.num_parameters()
        repr(model)
        for param in model.parameters():
            repr(param)

    workload = get_workload("SK-M-0.5")
    scene = make_sample(workload.dataset, frames=workload.frames, seed=1,
                        scale=0.02)
    for training in (False, True):
        model = workload.build_model()
        model.train(training)
        get_engine("torchsparse++").prepare(
            model, [scene], "a100", "fp16", training=training
        )

    model = small_model().train()
    ctx = ExecutionContext(training=True, simulate_only=True)
    y = model(cloud(), ctx)
    model.backward(shape_only_feats(*y.feats.shape, np.float16), ctx)
    assert all(p.grad is not None for p in model.parameters())
    assert all(p.init is not None for p in model.parameters())
    for _, module in model.named_modules():
        if isinstance(module, SparseConv3d):
            assert module.weight.grad.strides == (0, 0, 0)


def test_load_state_dict_before_any_read_never_draws(monkeypatch):
    state = small_model().state_dict()

    def draw(self):
        raise AssertionError("parameter drawn")

    monkeypatch.setattr(NormalInit, "draw", draw)
    monkeypatch.setattr(ConstantInit, "draw", draw)
    model = small_model()
    model.load_state_dict(state)
    restored = model.state_dict()
    assert sorted(restored) == sorted(state)
    for name, value in state.items():
        assert restored[name].tobytes() == value.tobytes()


def _sgd_steps(model, steps=3):
    model.train()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    x = cloud(n=200, extent=10)
    for _ in range(steps):
        x.cache.clear()
        ctx = ExecutionContext(precision="fp32", training=True)
        y = model(x, ctx)
        model.backward((y.feats - 1.0).astype(np.float32), ctx)
        optimizer.step()
        optimizer.zero_grad()
    return model.state_dict()


def test_numeric_training_from_lazy_and_eager_weights_is_identical():
    eager = small_model()
    for param in eager.parameters():
        param.data = param.init.draw()
    lazy = _sgd_steps(small_model())
    expected = _sgd_steps(eager)
    assert sorted(lazy) == sorted(expected)
    for name, value in expected.items():
        assert lazy[name].tobytes() == value.tobytes(), name


def test_peek_reads_without_keeping_a_draw():
    init = NormalInit(shape=(4, 3, 2), seed=5, std=0.5)
    param = Parameter(init=init)
    first = param.peek()
    assert param.init is init and param._data is None
    assert first.tobytes() == param.peek().tobytes() == init.draw().tobytes()
    held = param.data
    assert param.peek() is held


#: The two models the serving benchmark admits.
SERVING_MIX = ("SK-M-0.5", "NS-M-1f")


def test_serving_admission_draws_each_conv_once_and_keeps_none(monkeypatch):
    calls = {}
    draw = NormalInit.draw

    def counting_draw(self):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return draw(self)

    monkeypatch.setattr(NormalInit, "draw", counting_draw)
    runtime = ServingRuntime()
    weights = [
        module.weight
        for workload_id in SERVING_MIX
        for _, module in runtime.model(workload_id).named_modules()
        if isinstance(module, SparseConv3d)
    ]
    assert weights
    assert all(w.init is not None and w._data is None for w in weights)
    assert calls == {id(w.init): 1 for w in weights}


def _float64_stats(weight):
    """The value-range statistics as computed on a float64 copy."""
    w64 = np.asarray(weight, dtype=np.float64)
    return float(np.max(np.abs(w64))), float(np.sqrt(np.mean(w64 * w64)))


def _assert_ir_stats_match_float64(model, in_channels):
    ir = trace_model(model, in_channels=in_channels)
    modules = dict(model.named_modules(type(model).__name__))
    convs = [node for node in ir.nodes if node.kind == "conv"]
    assert convs
    for node in convs:
        expected = _float64_stats(modules[node.path].weight.data)
        got = (node.weight_abs_max, node.weight_rms)
        # Bit for bit: NaN payloads and the sign of zero included.
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (
            node.path, got, expected
        )


@pytest.mark.parametrize("workload_id", sorted(WORKLOADS))
def test_ir_weight_stats_match_float64_formula(workload_id):
    workload = get_workload(workload_id)
    _assert_ir_stats_match_float64(
        workload.build_model(), workload.dataset_config.in_channels
    )


def test_ir_weight_stats_match_float64_formula_on_special_values():
    model = small_model()
    state = model.state_dict()
    names = [
        name for name, module in model.named_modules()
        if isinstance(module, SparseConv3d)
    ]
    nan, inf, neg_zero = (f"{n}.weight" for n in names[:3])
    state[nan].flat[[0, 7]] = np.nan
    state[inf].flat[0] = np.inf
    state[inf].flat[-1] = -np.inf
    state[neg_zero][...] = -0.0
    model = small_model()
    model.load_state_dict(state)
    _assert_ir_stats_match_float64(model, in_channels=4)
    ir = {node.path: node for node in trace_model(model, in_channels=4).nodes}
    nan, inf, neg_zero = (ir[f"MinkUNet.{n}"] for n in names[:3])
    assert np.isnan(nan.weight_abs_max) and np.isnan(nan.weight_rms)
    assert inf.weight_abs_max == inf.weight_rms == np.inf
    # |-0.0| is +0.0: the maximum must not keep the sign of zero.
    assert np.float64(neg_zero.weight_abs_max).tobytes() == bytes(8)
    assert np.float64(neg_zero.weight_rms).tobytes() == bytes(8)
