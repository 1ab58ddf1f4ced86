"""Analytical GPU performance model.

Dataflow kernels in :mod:`repro.kernels` execute numerically *and* emit a
:class:`KernelTrace` — a list of kernel launches annotated with FLOPs, DRAM
traffic, scalar (addressing / boundary-check) operations and parallelism.
This package converts traces into latency for a :class:`repro.hw.DeviceSpec`.

The model captures the first-order effects the paper's analysis rests on:

* **overlap** — pipelined dataflows (fetch-on-demand, implicit GEMM) hide
  memory behind compute (Figure 3); gather-GEMM-scatter cannot;
* **wave-quantised occupancy** — kernels with few thread blocks underutilise
  wide GPUs, which is why extra mask splits help small segmentation
  workloads (Table 5) and why Orin behaves differently from A100;
* **tensor-core vs CUDA-core throughput** — mapping operations always run on
  CUDA cores, so on A100 (16x gap) mapping overhead dominates while on
  2080 Ti (3x gap) redundant computation does (Section 6.1);
* **atomics serialization** — fetch-on-demand's scattered write-back;
* **kernel launch overhead** — gather-GEMM-scatter needs 3 launches per
  kernel offset.
"""

from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind, TraceSummary
from repro.gpusim.engine import (
    enforce_memory_budget,
    estimate_launch_us,
    estimate_trace_us,
    launch_prices,
    memory_budget_bytes,
    price_trace,
    wave_efficiency,
)
from repro.gpusim.report import layer_report, timeline

__all__ = [
    "layer_report",
    "timeline",
    "KernelLaunch",
    "KernelTrace",
    "LaunchKind",
    "TraceSummary",
    "enforce_memory_budget",
    "estimate_launch_us",
    "estimate_trace_us",
    "launch_prices",
    "memory_budget_bytes",
    "price_trace",
    "wave_efficiency",
]
