"""Dataflow registry: name-addressable forward kernels for the autotuner.

:func:`trace_dataflow` is the one dispatch from a dataflow to its trace
generator; the numerics are :func:`~repro.kernels.base.sparse_conv`, the
same for every dataflow.
"""

from __future__ import annotations

import enum
from typing import Tuple

import numpy as np

from repro.errors import ConfigError
from repro.gpusim.trace import UNSCOPED, KernelTrace, TraceScope
from repro.kernels.base import DEFAULT_SCHEDULE, KernelSchedule, sparse_conv
from repro.kernels.fetch_on_demand import fetch_on_demand_trace
from repro.kernels.gather_scatter import gather_gemm_scatter_trace
from repro.kernels.implicit_gemm import ImplicitGemmConfig, implicit_gemm_trace
from repro.precision import Precision
from repro.sparse.kmap import KernelMap


class Dataflow(enum.Enum):
    """The dataflow families in the TorchSparse++ design space (Figure 9)."""

    GATHER_SCATTER = "gather_scatter"
    GATHER_SCATTER_FUSED = "gather_scatter_fused"
    FETCH_ON_DEMAND = "fetch_on_demand"
    FETCH_ON_DEMAND_UNFUSED = "fetch_on_demand_unfused"
    IMPLICIT_GEMM = "implicit_gemm"

    @property
    def weight_stationary(self) -> bool:
        """Whether the dataflow needs weight-stationary maps (Section 4.2)."""
        return self is not Dataflow.IMPLICIT_GEMM


#: All dataflow names, for CLI/docs enumeration.
DATAFLOWS = tuple(d.value for d in Dataflow)


def dataflow_choices() -> Tuple[str, ...]:
    """Valid dataflow names, for CLI choice listings and error messages."""
    return DATAFLOWS


def _parse_dataflow(dataflow: "Dataflow | str") -> Dataflow:
    """The :class:`Dataflow` named ``dataflow``; unknown names raise
    :class:`~repro.errors.ConfigError` listing the valid ones."""
    if isinstance(dataflow, Dataflow):
        return dataflow
    try:
        return Dataflow(dataflow)
    except ValueError:
        raise ConfigError(
            f"unknown dataflow {dataflow!r}; expected one of {DATAFLOWS}"
        ) from None


def trace_dataflow(
    dataflow: "Dataflow | str",
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    schedule: KernelSchedule = DEFAULT_SCHEDULE,
    precision: "Precision | str" = Precision.FP32,
    ig_config: ImplicitGemmConfig = ImplicitGemmConfig(),
    tensor_cores: bool = True,
    charge_mapping: bool = True,
    gs_chunks: int = 1,
    scope: TraceScope = UNSCOPED,
) -> KernelTrace:
    """Trace one sparse convolution without executing numerics.

    Trace quantities depend only on the kernel map and shapes, never on
    feature values, so numeric and shape-only runs build the same trace
    here, and the autotuner and full-scale workload simulations skip the
    matrix arithmetic entirely.  ``gs_chunks`` sub-batches the
    gather-scatter staging buffers (workspace relief for the degradation
    ladder); ``charge_mapping=False`` omits implicit GEMM's
    map-restructuring launches for layers reusing a warm map; other
    dataflows ignore both.  ``scope`` gives every launch and buffer its
    final name (:class:`~repro.gpusim.trace.TraceScope`).
    """
    dataflow = _parse_dataflow(dataflow)
    precision = Precision.parse(precision)

    if dataflow is Dataflow.GATHER_SCATTER:
        return gather_gemm_scatter_trace(
            kmap, c_in, c_out, schedule, precision,
            fused=False, tensor_cores=tensor_cores, chunks=gs_chunks,
            scope=scope,
        )
    if dataflow is Dataflow.GATHER_SCATTER_FUSED:
        return gather_gemm_scatter_trace(
            kmap, c_in, c_out, schedule, precision,
            fused=True, tensor_cores=tensor_cores, scope=scope,
        )
    if dataflow is Dataflow.FETCH_ON_DEMAND:
        return fetch_on_demand_trace(
            kmap, c_in, c_out, schedule, precision,
            block_fused=True, tensor_cores=tensor_cores, scope=scope,
        )
    if dataflow is Dataflow.FETCH_ON_DEMAND_UNFUSED:
        return fetch_on_demand_trace(
            kmap, c_in, c_out, schedule, precision,
            block_fused=False, tensor_cores=tensor_cores, scope=scope,
        )
    return implicit_gemm_trace(
        kmap, c_in, c_out, schedule, precision,
        config=ig_config, tensor_cores=tensor_cores,
        charge_mapping=charge_mapping, scope=scope,
    )


def run_dataflow(
    dataflow: "Dataflow | str",
    feats: np.ndarray,
    weights: np.ndarray,
    kmap: KernelMap,
    schedule: KernelSchedule = DEFAULT_SCHEDULE,
    precision: "Precision | str" = Precision.FP32,
    ig_config: ImplicitGemmConfig = ImplicitGemmConfig(),
    tensor_cores: bool = True,
    gs_chunks: int = 1,
    charge_mapping: bool = True,
) -> Tuple[np.ndarray, KernelTrace]:
    """Execute one sparse convolution with the named dataflow.

    Returns ``(out_feats, trace)``: the output features of
    :func:`~repro.kernels.base.sparse_conv` and the unscoped
    :func:`trace_dataflow` trace.  Every dataflow produces numerically
    equivalent output.
    """
    dataflow = _parse_dataflow(dataflow)
    precision = Precision.parse(precision)
    out = sparse_conv(feats, weights, kmap, precision)
    trace = trace_dataflow(
        dataflow, kmap, weights.shape[1], weights.shape[2], schedule,
        precision, ig_config, tensor_cores, charge_mapping, gs_chunks,
    )
    return out, trace
