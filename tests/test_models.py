"""Tests for the model zoo (MinkUNet, CenterPoint backbone, workloads)."""

import numpy as np
import pytest

from repro.models import CenterPointBackbone, MinkUNet, WORKLOADS, get_workload
from repro.models.registry import DETECTION_WORKLOADS, SEGMENTATION_WORKLOADS
from repro.nn import ExecutionContext
from repro.sparse import SparseTensor
from repro.errors import ConfigError


def small_cloud(n=400, extent=24, channels=4, seed=0):
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


class TestMinkUNet:
    def test_forward_output_on_input_coords(self):
        model = MinkUNet(in_channels=4, num_classes=19, width=0.25)
        x = small_cloud()
        ctx = ExecutionContext(simulate_only=True)
        y = model(x, ctx)
        assert np.array_equal(y.coords, x.coords)
        assert y.num_channels == 19

    def test_width_scales_parameters(self):
        small = MinkUNet(width=0.5).num_parameters()
        large = MinkUNet(width=1.0).num_parameters()
        assert large > 3 * small

    def test_training_roundtrip(self):
        model = MinkUNet(in_channels=4, num_classes=5, width=0.25)
        model.train()
        x = small_cloud()
        ctx = ExecutionContext(training=True, simulate_only=True)
        y = model(x, ctx)
        grad = model.backward(
            np.zeros(y.feats.shape, dtype=np.float16), ctx
        )
        assert grad.shape == x.feats.shape
        assert all(p.grad is not None for p in model.parameters())

    def test_backward_gradients_flow_numerically(self):
        # Non-simulated small model: gradients should be finite & nonzero.
        model = MinkUNet(in_channels=4, num_classes=3, width=0.25)
        model.train()
        x = small_cloud(n=150, extent=10)
        ctx = ExecutionContext(precision="fp32", training=True)
        y = model(x, ctx)
        model.backward((y.feats - 1.0).astype(np.float32), ctx)
        grads = [p.grad for p in model.parameters()]
        assert all(np.isfinite(g).all() for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)

    def test_unet_has_distinct_stride_levels(self):
        model = MinkUNet(width=0.25)
        x = small_cloud()
        from repro.tune import discover_groups

        sigs, _ = discover_groups(model, x)
        strides = {sig[0] for sig in sigs}
        assert (16, 16, 16) in strides  # four downsamplings deep


class TestCenterPoint:
    def test_forward_downsamples_16x(self):
        model = CenterPointBackbone(in_channels=5)
        x = small_cloud(extent=40, channels=5)
        ctx = ExecutionContext(simulate_only=True)
        y = model(x, ctx)
        assert y.stride == (16, 16, 16)
        assert y.num_channels == 128

    def test_training_roundtrip(self):
        model = CenterPointBackbone(in_channels=5)
        model.train()
        x = small_cloud(extent=40, channels=5)
        ctx = ExecutionContext(training=True, simulate_only=True)
        y = model(x, ctx)
        grad = model.backward(np.zeros(y.feats.shape, dtype=np.float16), ctx)
        assert grad.shape == x.feats.shape


class TestWorkloadRegistry:
    def test_seven_workloads(self):
        assert len(WORKLOADS) == 7
        assert len(SEGMENTATION_WORKLOADS) == 4
        assert len(DETECTION_WORKLOADS) == 3

    def test_lookup_case_insensitive(self):
        assert get_workload("sk-m-0.5").id == "SK-M-0.5"

    def test_unknown_workload(self):
        with pytest.raises(ConfigError):
            get_workload("kitti-pointpillars")

    def test_build_model_matches_dataset_channels(self):
        w = get_workload("WM-C-1f")
        model = w.build_model()
        assert model.input_conv[0].in_channels == 5

    def test_workload_input_generation(self):
        w = get_workload("NS-M-1f")
        x = w.make_input(seed=0)
        assert x.num_points > 5000
        assert x.num_channels == 4
