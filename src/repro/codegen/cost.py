"""Utilization analysis: generated sparse kernels vs dense GEMM (Figure 8).

"Achieved utilization" is effective FLOP/s divided by the device's peak for
the precision; ``utilization_vs_cublas`` normalises a sparse kernel's
utilization by that of the *equivalent-size dense GEMM* run through the
same machine model (cuBLAS has no sparsity support, so the paper compares
against the dense problem of identical M x K x N)."""

from __future__ import annotations

from typing import Optional

from repro.codegen.tiling import enumerate_schedules
from repro.gpusim.engine import estimate_trace_us, price_trace
from repro.gpusim.trace import KernelTrace
from repro.hw.specs import DeviceSpec
from repro.kernels.base import KernelSchedule, dense_gemm_trace, launch_part
from repro.kernels.implicit_gemm import ImplicitGemmConfig, implicit_gemm_trace
from repro.precision import Precision
from repro.sparse.kmap import KernelMap


def achieved_utilization(
    trace: KernelTrace,
    device: DeviceSpec,
    precision: Precision,
    effective_flops: Optional[float] = None,
) -> float:
    """Effective FLOP/s over peak FLOP/s for a trace.

    ``effective_flops`` defaults to the trace's issued FLOPs; pass the
    useful-work count to exclude redundant computation.
    """
    time_us = estimate_trace_us(trace, device, precision)
    if time_us <= 0:
        return 0.0
    flops = effective_flops if effective_flops is not None else trace.summary().flops
    peak = device.gemm_tflops(precision) * 1e6  # FLOPs per us
    return flops / (time_us * peak)


def utilization_vs_cublas(
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    device: DeviceSpec,
    precision: Precision,
    schedule: Optional[KernelSchedule] = None,
    tune: bool = True,
) -> float:
    """Ratio of sparse-kernel utilization to dense cuBLAS utilization.

    Reproduces the Figure 8 experiment: run the layer's implicit GEMM
    (unsorted, kernel only) with either a fixed or a tile-tuned schedule
    and compare against the equivalent-size dense GEMM.  Values >= 1 mean
    the generated sparse kernel matches or beats cuBLAS utilization.  Only
    the layer's shape matters: ``C_in -> C_out`` over ``kmap``.
    """
    m, k, n = kmap.num_outputs, kmap.volume * c_in, c_out
    config = ImplicitGemmConfig(num_splits=1, sort=False)

    candidates = enumerate_schedules(schedule) if tune else [
        schedule or KernelSchedule()
    ]
    best_sparse = float("inf")
    for cand in candidates:
        trace = implicit_gemm_trace(
            kmap, c_in, c_out, cand, precision, config=config
        )
        parts = price_trace(trace, device, precision).attribute(launch_part)
        best_sparse = min(best_sparse, sum(parts["main"]))

    best_dense = float("inf")
    for cand in enumerate_schedules(schedule):
        best_dense = min(
            best_dense,
            estimate_trace_us(
                dense_gemm_trace(m, k, n, cand, precision), device, precision
            ),
        )
    # Equal effective work (2*M*K*N for dense; the sparse kernel does the
    # same nominal problem with sparsity in A), so utilization ratio is
    # simply the inverse time ratio.
    return best_dense / best_sparse
