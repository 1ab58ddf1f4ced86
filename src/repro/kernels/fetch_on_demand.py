"""Fetch-on-demand dataflow (Section 2.2.2).

The gather, GEMM and scatter stages are fused into one kernel: input
features are fetched on demand into shared memory, multiplied on chip, and
partial sums are scattered straight from the register file with atomic adds.
Compute overlaps memory (Figure 3c) and the staging buffers disappear, but
every (input, output) pair still writes ``C_out`` partial sums to DRAM —
``sum(|M_delta|) / N_out`` (4-10x) more write-back traffic than the
output-stationary optimum, serialized by atomics on conflicts.

``block_fused=True`` models the PCEngine/TorchSparse++ variant where the
host loop over offsets becomes a thread-block dimension (one launch total);
``block_fused=False`` models MinkowskiEngine's one-launch-per-offset kernels,
which also run on CUDA cores rather than tensor cores.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.trace import (
    UNSCOPED,
    KernelLaunch,
    KernelTrace,
    LaunchKind,
    TraceScope,
)
from repro.kernels.base import (
    ADDRESS_OPS_HOISTED,
    DEFAULT_SCHEDULE,
    KernelSchedule,
    gemm_ctas,
    gemm_efficiency,
)
from repro.precision import Precision
from repro.sparse.kmap import KernelMap


def _offset_launch(
    name: str,
    size: int,
    c_in: int,
    c_out: int,
    ctas: int,
    schedule: KernelSchedule,
    precision: Precision,
    tensor_cores: bool,
    weight_bytes: float,
    efficiency_m: int,
    workspace_bytes: float,
    scope: TraceScope,
) -> KernelLaunch:
    itemsize = precision.itemsize
    # Naive dynamic-shape addressing above the hoisted floor is
    # loop-invariant arithmetic the hoisting pass (repro.opt) may remove;
    # fixed-shape kernels already folded it at compile time.
    hoistable = 0.0
    if not schedule.fixed_shape and not schedule.hoist_invariants:
        hoistable = (
            (schedule.address_ops_per_element - ADDRESS_OPS_HOISTED)
            * size
            * c_in
        )
    return KernelLaunch(
        name=scope.name(name),
        kind=LaunchKind.GEMM,
        flops=2.0 * size * c_in * c_out,
        dram_read_bytes=itemsize * size * c_in + 8.0 * size + weight_bytes,
        dram_write_bytes=0.0,
        atomic_write_bytes=4.0 * size * c_out,
        scalar_ops=schedule.address_ops_per_element * size * c_in,
        workspace_bytes=workspace_bytes,
        ctas=ctas,
        overlapped=schedule.double_buffer,
        tensor_core_eligible=tensor_cores,
        compute_efficiency=gemm_efficiency(
            efficiency_m, c_out, c_in, schedule
        ),
        hoistable_scalar_ops=hoistable,
        # The streamed pair lists are the launch's whole workspace and are
        # not named ws: buffers (the kmap is external).
        untracked_workspace_bytes=workspace_bytes,
        reads=(
            scope.ext("feats_in", itemsize * size * c_in),
            scope.ext("kmap_pairs", 8.0 * size),
            scope.ext("weights", weight_bytes),
        ),
        # Every partial sum lands via atomic add: write order is resolved
        # by the hardware, so per-offset launches don't race each other.
        writes=(scope.ext("out_accum", 4.0 * size * c_out, atomic=True),),
    )


def fetch_on_demand_trace(
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    schedule: KernelSchedule = DEFAULT_SCHEDULE,
    precision: Precision = Precision.FP32,
    block_fused: bool = True,
    tensor_cores: bool = True,
    scope: TraceScope = UNSCOPED,
) -> KernelTrace:
    """Execution trace of the fetch-on-demand dataflow (no numerics),
    named in ``scope``."""
    itemsize = precision.itemsize
    map_sizes = kmap.map_sizes
    trace = KernelTrace()
    # The only DRAM the dataflow holds beyond features/weights is the
    # per-offset (in, out) pair lists it streams on demand — fetches stage
    # through shared memory and partials scatter straight from registers,
    # which is exactly why this is the minimal-footprint fallback.
    pair_bytes = 8.0 * kmap.total_pairs
    if block_fused:
        total = int(map_sizes.sum())
        ctas = sum(
            gemm_ctas(int(size), c_out, schedule)
            for size in map_sizes
            if size > 0
        )
        weight_bytes = float(itemsize * kmap.volume * c_in * c_out)
        mean_size = total / max(1, np.count_nonzero(map_sizes))
        trace.add(
            _offset_launch(
                "fetch_on_demand/fused",
                total,
                c_in,
                c_out,
                max(1, ctas),
                schedule,
                precision,
                tensor_cores,
                weight_bytes,
                efficiency_m=int(max(1, mean_size)),
                workspace_bytes=pair_bytes,
                scope=scope,
            )
        )
    else:
        for k, size in enumerate(map_sizes):
            if size == 0:
                continue
            trace.add(
                _offset_launch(
                    f"fetch_on_demand/offset{k}",
                    int(size),
                    c_in,
                    c_out,
                    gemm_ctas(int(size), c_out, schedule),
                    schedule,
                    precision,
                    tensor_cores,
                    float(itemsize * c_in * c_out),
                    efficiency_m=int(size),
                    workspace_bytes=pair_bytes,
                    scope=scope,
                )
            )
    # Output materialization: convert the atomically accumulated FP32
    # buffer to the storage dtype.
    trace.add(
        KernelLaunch(
            name=scope.name("fetch_on_demand/writeback"),
            kind=LaunchKind.MEMORY,
            dram_read_bytes=4.0 * kmap.num_outputs * c_out,
            dram_write_bytes=itemsize * kmap.num_outputs * c_out,
            ctas=max(1, kmap.num_outputs * c_out // 4096),
            reads=(scope.ext("out_accum", 4.0 * kmap.num_outputs * c_out),),
            writes=(
                scope.ext("feats_out", itemsize * kmap.num_outputs * c_out),
            ),
        )
    )
    return trace

