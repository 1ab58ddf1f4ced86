"""Tests for the GPU performance model (traces and the latency engine)."""

import numpy as np
import pytest

from repro.gpusim import (
    KernelLaunch,
    KernelTrace,
    LaunchKind,
    estimate_launch_us,
    estimate_trace_us,
    price_trace,
    wave_efficiency,
)
from repro.gpusim.engine import launch_kind
from repro.hw import A100, GTX_1080TI, JETSON_ORIN, RTX_2080TI, RTX_3090, get_device
from repro.errors import DeviceError
from repro.precision import Precision


class TestWaveEfficiency:
    def test_full_wave_is_perfect(self):
        assert wave_efficiency(216, 216) == 1.0

    def test_half_wave_is_half(self):
        assert wave_efficiency(108, 216) == pytest.approx(0.5)

    def test_partial_last_wave(self):
        # 3 full waves + 1 CTA -> 4 waves for 3*216+1 blocks.
        eff = wave_efficiency(3 * 216 + 1, 216)
        assert eff == pytest.approx((3 * 216 + 1) / (4 * 216))

    def test_many_ctas_approach_one(self):
        assert wave_efficiency(216 * 100, 216) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            wave_efficiency(0, 216)


class TestEstimateLaunch:
    def big_gemm(self, **kw):
        defaults = dict(
            name="g",
            kind=LaunchKind.GEMM,
            flops=1e12,
            dram_read_bytes=1e9,
            dram_write_bytes=1e8,
            ctas=100000,
            overlapped=True,
        )
        defaults.update(kw)
        return KernelLaunch(**defaults)

    def test_fp16_uses_tensor_cores(self):
        t16 = estimate_launch_us(self.big_gemm(), A100, Precision.FP16)
        t32 = estimate_launch_us(self.big_gemm(), A100, Precision.FP32)
        assert t32 > 4 * t16  # 312 vs 19.5 TFLOPS (memory bound floor)

    def test_tensor_core_ineligible_falls_back(self):
        fast = estimate_launch_us(self.big_gemm(), A100, Precision.FP16)
        slow = estimate_launch_us(
            self.big_gemm(tensor_core_eligible=False), A100, Precision.FP16
        )
        assert slow > fast

    def test_pascal_has_no_tensor_cores(self):
        t16 = estimate_launch_us(self.big_gemm(), GTX_1080TI, Precision.FP16)
        t32 = estimate_launch_us(self.big_gemm(), GTX_1080TI, Precision.FP32)
        assert t16 == pytest.approx(t32)

    def test_tf32_unsupported_on_turing(self):
        t = estimate_launch_us(self.big_gemm(), RTX_2080TI, Precision.TF32)
        t32 = estimate_launch_us(self.big_gemm(), RTX_2080TI, Precision.FP32)
        assert t == pytest.approx(t32)

    def test_overlap_hides_memory(self):
        compute_heavy = self.big_gemm(flops=1e13, dram_read_bytes=1e6)
        overlapped = estimate_launch_us(compute_heavy, A100, Precision.FP16)
        serial = estimate_launch_us(
            self.big_gemm(flops=1e13, dram_read_bytes=1e6, overlapped=False),
            A100,
            Precision.FP16,
        )
        assert serial >= overlapped

    def test_memory_bound_launch(self):
        launch = KernelLaunch(
            name="m",
            kind=LaunchKind.MEMORY,
            dram_read_bytes=1.555e9,  # 1 ms worth on A100
            ctas=100000,
        )
        t = estimate_launch_us(launch, A100, Precision.FP32)
        assert t == pytest.approx(1000.0 + A100.kernel_launch_us, rel=0.01)

    def test_atomic_serialization_penalty(self):
        base = KernelLaunch(
            name="a", kind=LaunchKind.MEMORY, dram_write_bytes=1e9, ctas=100000
        )
        atomic = KernelLaunch(
            name="a", kind=LaunchKind.MEMORY, atomic_write_bytes=1e9, ctas=100000
        )
        assert estimate_launch_us(atomic, A100, Precision.FP32) > estimate_launch_us(
            base, A100, Precision.FP32
        )

    def test_scalar_ops_add_time(self):
        with_scalar = self.big_gemm(scalar_ops=1e11)
        assert estimate_launch_us(
            with_scalar, A100, Precision.FP16
        ) > estimate_launch_us(self.big_gemm(), A100, Precision.FP16)

    def test_small_kernel_underutilises(self):
        one_cta = self.big_gemm(ctas=1, flops=1e9)
        many_cta = self.big_gemm(ctas=100000, flops=1e9)
        assert estimate_launch_us(one_cta, A100, Precision.FP16) > 10 * (
            estimate_launch_us(many_cta, A100, Precision.FP16)
            - A100.kernel_launch_us
        )

    def test_launch_overhead_floor(self):
        tiny = KernelLaunch(name="t", kind=LaunchKind.MAPPING, scalar_ops=1.0)
        assert estimate_launch_us(tiny, A100, Precision.FP32) >= A100.kernel_launch_us

    def test_efficiency_validation(self):
        with pytest.raises(ValueError):
            KernelLaunch(name="x", kind=LaunchKind.GEMM, compute_efficiency=0.0)
        with pytest.raises(ValueError):
            KernelLaunch(name="x", kind=LaunchKind.GEMM, flops=-1)


class TestTrace:
    def test_summary_aggregates(self):
        trace = KernelTrace()
        trace.add(KernelLaunch(name="a", kind=LaunchKind.GEMM, flops=10))
        trace.add(KernelLaunch(name="b", kind=LaunchKind.MEMORY, dram_read_bytes=5))
        s = trace.summary()
        assert s.launches == 2
        assert s.flops == 10
        assert s.dram_bytes == 5

    def test_filter_by_kind(self):
        trace = KernelTrace()
        trace.add(KernelLaunch(name="a", kind=LaunchKind.GEMM))
        trace.add(KernelLaunch(name="b", kind=LaunchKind.MAPPING))
        assert len(trace.filter(LaunchKind.GEMM)) == 1

    def test_filter_by_name(self):
        trace = KernelTrace()
        trace.add(KernelLaunch(name="conv1/main", kind=LaunchKind.GEMM))
        trace.add(KernelLaunch(name="conv2/main", kind=LaunchKind.GEMM))
        assert len(trace.filter_name("conv1")) == 1

    def test_extend_concatenates(self):
        a = KernelTrace([KernelLaunch(name="a", kind=LaunchKind.GEMM)])
        b = KernelTrace([KernelLaunch(name="b", kind=LaunchKind.GEMM)])
        a.extend(b)
        assert len(a) == 2

    def test_trace_latency_is_sum(self):
        launches = [
            KernelLaunch(name=f"l{i}", kind=LaunchKind.GEMM, flops=1e9, ctas=1000)
            for i in range(3)
        ]
        trace = KernelTrace(launches)
        total = estimate_trace_us(trace, A100, "fp16")
        single = estimate_launch_us(launches[0], A100, Precision.FP16)
        assert total == pytest.approx(3 * single)

    def test_breakdown_sums_to_total(self):
        trace = KernelTrace(
            [
                KernelLaunch(name="g", kind=LaunchKind.GEMM, flops=1e9, ctas=100),
                KernelLaunch(name="m", kind=LaunchKind.MAPPING, scalar_ops=1e8),
            ]
        )
        parts = price_trace(trace, RTX_3090, Precision.FP16).split_us(
            launch_kind
        )
        assert sum(parts.values()) == pytest.approx(
            estimate_trace_us(trace, RTX_3090, Precision.FP16)
        )
        assert set(parts) == {"gemm", "mapping"}


class TestDeviceRegistry:
    def test_aliases(self):
        assert get_device("3090") is RTX_3090
        assert get_device("orin") is JETSON_ORIN
        assert get_device("A100") is A100

    def test_passthrough(self):
        assert get_device(RTX_2080TI) is RTX_2080TI

    def test_unknown_raises(self):
        with pytest.raises(DeviceError):
            get_device("h100")

    def test_tensor_ratio_matches_paper(self):
        # Section 6.1: 16x on A100, ~3x on 2080 Ti.
        assert A100.tensor_to_cuda_ratio == pytest.approx(16.0)
        assert RTX_2080TI.tensor_to_cuda_ratio == pytest.approx(3.0, abs=0.1)

    def test_scaled_device(self):
        half_bw = RTX_3090.scaled(bandwidth_scale=0.5)
        assert half_bw.dram_bw_gbps == pytest.approx(468.0)
        assert half_bw.fp16_tensor_tflops == RTX_3090.fp16_tensor_tflops
        half_fl = RTX_3090.scaled(compute_scale=0.5)
        assert half_fl.fp16_tensor_tflops == pytest.approx(35.5)
        assert half_fl.dram_bw_gbps == RTX_3090.dram_bw_gbps
