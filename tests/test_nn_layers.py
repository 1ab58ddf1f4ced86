"""Tests for the nn layer substrate: conv, norm, activation, blocks."""

import numpy as np
import pytest

from repro.errors import ConfigError, MapError
from repro.gpusim.engine import launch_kind
from repro.gpusim.trace import LaunchKind
from repro.nn import (
    BatchNorm,
    ConvBlock,
    ExecutionContext,
    FixedPolicy,
    LayerConfig,
    ReLU,
    ResidualBlock,
    Sequential,
    SparseConv3d,
)
from repro.nn.context import GroupPolicy, Role
from repro.kernels.registry import Dataflow
from repro.sparse import SparseTensor


def make_tensor(n=200, extent=15, channels=4, seed=0):
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


class TestSparseConv3d:
    def test_submanifold_preserves_coords(self):
        x = make_tensor()
        conv = SparseConv3d(4, 8, 3)
        y = conv(x, ExecutionContext())
        assert np.array_equal(y.coords, x.coords)
        assert y.num_channels == 8

    def test_strided_downsamples(self):
        x = make_tensor()
        conv = SparseConv3d(4, 8, kernel_size=2, stride=2)
        y = conv(x, ExecutionContext())
        assert y.stride == (2, 2, 2)
        assert y.num_points < x.num_points

    def test_pointwise_is_pure_gemm(self):
        x = make_tensor()
        conv = SparseConv3d(4, 8, kernel_size=1)
        ctx = ExecutionContext()
        y = conv(x, ctx)
        expected = x.feats.astype(np.float16).astype(np.float32) @ \
            conv.weight.data[0].astype(np.float16).astype(np.float32)
        np.testing.assert_allclose(
            y.feats.astype(np.float32), expected, rtol=1e-2, atol=1e-2
        )
        assert len(ctx.trace.filter(LaunchKind.MAPPING)) == 0

    def test_map_cache_reused_across_layers(self):
        x = make_tensor()
        ctx = ExecutionContext()
        conv1 = SparseConv3d(4, 8, 3)
        conv2 = SparseConv3d(8, 8, 3)
        y = conv1(x, ctx)
        hash_launches_before = len(ctx.trace.filter_name("hash"))
        conv2(y, ctx)
        assert len(ctx.trace.filter_name("hash")) == hash_launches_before

    def test_transposed_requires_cached_map(self):
        x = make_tensor()
        up = SparseConv3d(4, 8, kernel_size=2, stride=2, transposed=True)
        coarse = SparseTensor(
            x.coords[x.coords[:, 1] % 2 == 0],
            x.feats[x.coords[:, 1] % 2 == 0], stride=2
        )
        with pytest.raises(MapError):
            up(coarse, ExecutionContext())

    def test_transposed_roundtrip_coords(self):
        x = make_tensor()
        ctx = ExecutionContext()
        down = SparseConv3d(4, 8, kernel_size=2, stride=2)
        up = SparseConv3d(8, 4, kernel_size=2, stride=2, transposed=True)
        y = down(x, ctx)
        z = up(y, ctx)
        assert np.array_equal(z.coords, x.coords)
        assert z.stride == (1, 1, 1)

    def test_bias_added(self):
        x = make_tensor()
        conv = SparseConv3d(4, 8, 1, bias=True)
        conv.bias.data[:] = 5.0
        y = conv(x, ExecutionContext())
        assert float(y.feats.mean()) > 1.0

    def test_channel_mismatch_raises(self):
        x = make_tensor(channels=4)
        conv = SparseConv3d(8, 8, 3)
        with pytest.raises(ConfigError):
            conv(x, ExecutionContext())

    def test_backward_requires_training_forward(self):
        conv = SparseConv3d(4, 8, 3)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 8)), ExecutionContext())

    def test_backward_gradient_check(self):
        # Finite-difference check of wgrad and dgrad through a tiny conv.
        x = make_tensor(n=30, extent=5)
        ctx = ExecutionContext(precision="fp32", training=True)
        conv = SparseConv3d(4, 3, 3)
        conv.train()
        y = conv(x, ctx)
        target = np.ones_like(y.feats)
        grad_out = (y.feats - target).astype(np.float32)  # d(0.5*mse)/dy
        grad_in = conv.backward(grad_out, ctx)

        def loss(weights):
            old = conv.weight.data.copy()
            conv.weight.data = weights
            out = conv(x, ExecutionContext(precision="fp32"))
            conv.weight.data = old
            return 0.5 * float(((out.feats - target) ** 2).sum())

        eps = 1e-3
        w = conv.weight.data
        for index in [(0, 0, 0), (13, 2, 1), (26, 3, 2)]:
            w_plus = w.copy(); w_plus[index] += eps
            w_minus = w.copy(); w_minus[index] -= eps
            numeric = (loss(w_plus) - loss(w_minus)) / (2 * eps)
            assert conv.weight.grad[index] == pytest.approx(numeric, rel=1e-2)
        # dgrad check against one feature element.
        def loss_feats(feats):
            out = conv(x.with_feats(feats), ExecutionContext(precision="fp32"))
            return 0.5 * float(((out.feats - target) ** 2).sum())

        f = x.feats
        for index in [(0, 0), (5, 2)]:
            f_plus = f.copy(); f_plus[index] += eps
            f_minus = f.copy(); f_minus[index] -= eps
            numeric = (loss_feats(f_plus) - loss_feats(f_minus)) / (2 * eps)
            assert grad_in[index] == pytest.approx(numeric, rel=5e-2, abs=2e-3)


class TestElementwiseLayers:
    def test_relu_clamps(self):
        x = make_tensor()
        y = ReLU()(x, ExecutionContext())
        assert float(y.feats.min()) >= 0.0

    def test_relu_backward_masks(self):
        x = make_tensor()
        relu = ReLU()
        relu.train()
        ctx = ExecutionContext(training=True)
        y = relu(x, ctx)
        grad = np.ones_like(y.feats)
        grad_in = relu.backward(grad, ctx)
        assert np.all((grad_in > 0) == (x.feats > 0))

    def test_batchnorm_normalizes_in_training(self):
        x = make_tensor(n=500)
        bn = BatchNorm(4)
        bn.train()
        y = bn(x, ExecutionContext(precision="fp32", training=True))
        assert abs(float(y.feats.mean())) < 1e-5
        assert float(y.feats.std()) == pytest.approx(1.0, abs=0.05)

    def test_batchnorm_uses_running_stats_in_eval(self):
        x = make_tensor(n=500)
        bn = BatchNorm(4)
        bn.train()
        ctx = ExecutionContext(precision="fp32", training=True)
        for _ in range(20):
            bn(x, ctx)
        bn.eval()
        y = bn(x, ExecutionContext(precision="fp32"))
        assert abs(float(y.feats.mean())) < 0.2

    def test_batchnorm_backward_shapes(self):
        x = make_tensor()
        bn = BatchNorm(4)
        bn.train()
        ctx = ExecutionContext(precision="fp32", training=True)
        y = bn(x, ctx)
        grad = bn.backward(np.ones_like(y.feats), ctx)
        assert grad.shape == x.feats.shape
        assert bn.gamma.grad is not None


class TestBlocksAndContainers:
    def test_residual_block_roundtrip(self):
        x = make_tensor()
        block = ResidualBlock(4, 16)
        block.train()
        ctx = ExecutionContext(training=True)
        y = block(x, ctx)
        assert y.num_channels == 16
        grad = block.backward(np.ones(y.feats.shape, dtype=np.float16), ctx)
        assert grad.shape == x.feats.shape

    def test_residual_identity_skip_when_channels_match(self):
        block = ResidualBlock(8, 8)
        assert block.projection is None

    def test_sequential_indexing(self):
        net = Sequential(ConvBlock(4, 8), ConvBlock(8, 8))
        assert len(net) == 2
        assert isinstance(net[0], ConvBlock)

    def test_module_parameter_discovery(self):
        net = Sequential(ConvBlock(4, 8, label="a"), ResidualBlock(8, 16))
        names = [n for n, _ in net.named_parameters()]
        assert any("weight" in n for n in names)
        assert net.num_parameters() > 0

    def test_train_eval_propagates(self):
        net = Sequential(ConvBlock(4, 8), ResidualBlock(8, 8))
        net.train()
        assert all(m.training for _, m in net.named_modules())
        net.eval()
        assert not any(m.training for _, m in net.named_modules())


class TestExecutionContext:
    def test_simulate_only_matches_numeric_trace_latency(self):
        x1, x2 = make_tensor(seed=5), make_tensor(seed=5)
        net1 = SparseConv3d(4, 8, 3, seed=9)
        net2 = SparseConv3d(4, 8, 3, seed=9)
        ctx_real = ExecutionContext(device="3090", precision="fp16")
        ctx_sim = ExecutionContext(
            device="3090", precision="fp16", simulate_only=True
        )
        net1(x1, ctx_real)
        net2(x2, ctx_sim)
        assert ctx_sim.latency_us() == pytest.approx(
            ctx_real.latency_us(), rel=1e-9
        )

    def test_group_policy_role_fallback(self):
        cfg = LayerConfig(dataflow=Dataflow.FETCH_ON_DEMAND)
        policy = GroupPolicy({("sig",): {Role.FORWARD: cfg}})
        assert policy.config(("sig",), Role.DGRAD) is cfg
        assert policy.config(("other",), Role.FORWARD).dataflow is (
            Dataflow.IMPLICIT_GEMM
        )

    def test_map_cost_scale(self):
        x1, x2 = make_tensor(seed=7), make_tensor(seed=7)
        conv1 = SparseConv3d(4, 8, 3)
        conv2 = SparseConv3d(4, 8, 3)
        ctx1 = ExecutionContext(simulate_only=True)
        ctx2 = ExecutionContext(simulate_only=True, map_cost_scale=3.0)
        conv1(x1, ctx1)
        conv2(x2, ctx2)
        map1 = ctx1.execution().split_us(launch_kind)["mapping"]
        map2 = ctx2.execution().split_us(launch_kind)["mapping"]
        assert map2 > map1
