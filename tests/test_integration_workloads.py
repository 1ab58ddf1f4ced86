"""Integration tests: all seven workloads end to end at reduced scale."""

import numpy as np
import pytest

from repro.baselines import get_engine
from repro.data.datasets import make_sample
from repro.gpusim.engine import launch_kind
from repro.models import WORKLOADS, get_workload
from repro.nn import ExecutionContext


@pytest.fixture(scope="module")
def small_inputs():
    """Reduced-resolution samples for every workload (shared)."""
    out = {}
    for workload in WORKLOADS.values():
        out[workload.id] = make_sample(
            workload.dataset, frames=min(workload.frames, 2),
            seed=0, scale=0.1,
        )
    return out


class TestAllWorkloadsForward:
    @pytest.mark.parametrize("workload_id", sorted(WORKLOADS))
    def test_forward_simulated(self, small_inputs, workload_id):
        workload = get_workload(workload_id)
        model = workload.build_model()
        model.eval()
        ctx = ExecutionContext(simulate_only=True)
        out = model(small_inputs[workload_id], ctx)
        assert out.num_points > 0
        assert ctx.latency_us() > 0
        kinds = set(ctx.execution().split_us(launch_kind))
        assert {"gemm", "mapping"} <= kinds

    @pytest.mark.parametrize("workload_id", ["SK-M-0.5", "WM-C-1f"])
    def test_training_simulated(self, small_inputs, workload_id):
        workload = get_workload(workload_id)
        model = workload.build_model()
        model.train()
        ctx = ExecutionContext(simulate_only=True, training=True)
        sample = small_inputs[workload_id]
        sample.cache.clear()
        out = model(sample, ctx)
        grad = model.backward(
            np.zeros(out.feats.shape, dtype=np.float16), ctx
        )
        assert grad.shape == sample.feats.shape
        # Training must cost more than inference did.
        assert ctx.latency_us() > 0


class TestEngineConsistency:
    def test_all_engines_run_all_detection_workloads(self, small_inputs):
        workload = get_workload("WM-C-1f")
        model = workload.build_model()
        model.eval()
        sample = small_inputs["WM-C-1f"]
        latencies = {}
        for name in ("minkowskiengine", "spconv1", "torchsparse",
                     "spconv2", "torchsparse++"):
            engine = get_engine(name)
            engine.prepare(model, [sample], "a100", "fp16")
            ctx = engine.make_context("a100", "fp16")
            ctx.simulate_only = True
            model(sample, ctx)
            latencies[engine.name] = ctx.latency_us()
        assert latencies["TorchSparse++"] == min(latencies.values())

    def test_engines_numerically_equivalent(self, small_inputs):
        """Section 5.2's accuracy-parity claim: every engine computes the
        same convolution, so model outputs agree across engines."""
        workload = get_workload("NS-M-1f")
        model = workload.build_model()
        model.eval()
        sample = small_inputs["NS-M-1f"]
        outputs = {}
        for name in ("torchsparse", "spconv2", "torchsparse++"):
            engine = get_engine(name)
            sample.cache.clear()
            ctx = engine.make_context("a100", "fp32")
            out = model(sample, ctx)
            outputs[name] = out.feats.astype(np.float32)
        ref = outputs["torchsparse"]
        for name, feats in outputs.items():
            np.testing.assert_allclose(feats, ref, rtol=1e-4, atol=1e-5,
                                       err_msg=name)

    def test_deterministic_simulated_latency(self, small_inputs):
        workload = get_workload("NS-M-1f")
        model = workload.build_model()
        model.eval()
        sample = small_inputs["NS-M-1f"]
        results = []
        for _ in range(2):
            sample.cache.clear()
            ctx = ExecutionContext(simulate_only=True)
            model(sample, ctx)
            results.append(ctx.latency_us())
        assert results[0] == pytest.approx(results[1], rel=1e-12)


class TestReducedScaleGenerator:
    def test_scale_shrinks_point_count(self):
        full = make_sample("nuscenes", seed=1, scale=1.0)
        small = make_sample("nuscenes", seed=1, scale=0.1)
        assert small.num_points < 0.5 * full.num_points

    def test_invalid_scale(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            make_sample("nuscenes", scale=0.0)
