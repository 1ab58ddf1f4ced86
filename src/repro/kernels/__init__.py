"""Sparse convolution dataflow kernels (Section 2.2 of the paper).

Each dataflow module builds the :class:`repro.gpusim.KernelTrace` of what a
GPU executing that dataflow would do, with final launch names and buffer
ids (:class:`repro.gpusim.trace.TraceScope`).  The numerics are shared:
:func:`repro.kernels.base.sparse_conv` computes every dataflow's output
and :func:`repro.kernels.registry.run_dataflow` pairs it with the trace.  The
three families:

* :mod:`repro.kernels.gather_scatter` — weight-stationary
  gather-GEMM-scatter (SparseConvNet / SpConv v1) and the fused,
  adaptively-grouped variant (TorchSparse, MLSys'22);
* :mod:`repro.kernels.fetch_on_demand` — kernel-fused weight-stationary
  dataflow (MinkowskiEngine; block-fused variant from PCEngine);
* :mod:`repro.kernels.implicit_gemm` — output-stationary implicit GEMM
  (SpConv v2) extended with unsorted execution and arbitrary mask splits
  (TorchSparse++, Figure 10).

Weight-gradient (wgrad) numerics and traces live in
:mod:`repro.kernels.wgrad`.
"""

from repro.kernels.base import (
    KernelSchedule,
    dense_gemm_trace,
    gemm_efficiency,
    sparse_conv,
)
from repro.kernels.gather_scatter import gather_gemm_scatter_trace
from repro.kernels.fetch_on_demand import fetch_on_demand_trace
from repro.kernels.implicit_gemm import ImplicitGemmConfig, implicit_gemm_trace
from repro.kernels.wgrad import wgrad, wgrad_trace
from repro.kernels.registry import (
    DATAFLOWS,
    Dataflow,
    dataflow_choices,
    run_dataflow,
    trace_dataflow,
)

__all__ = [
    "KernelSchedule",
    "dense_gemm_trace",
    "gemm_efficiency",
    "sparse_conv",
    "gather_gemm_scatter_trace",
    "fetch_on_demand_trace",
    "ImplicitGemmConfig",
    "implicit_gemm_trace",
    "wgrad",
    "wgrad_trace",
    "DATAFLOWS",
    "Dataflow",
    "dataflow_choices",
    "run_dataflow",
    "trace_dataflow",
]
