"""Weight-gradient (wgrad) kernels for training (Section 4.2 / Figure 19).

For every kernel offset the weight gradient is

``dW_delta = X_in[in_idx]^T @ dY[out_idx]``

— a GEMM of shape ``(M=C_in, N=C_out, K=|M_delta|)`` whose *K loop runs over
output points*.  This inverts the memory-access structure of forward/dgrad:
the long, innermost loop performs the indirect map accesses, which is why
online map reordering (an extra indirection in that loop) slows wgrad far
more than the other kernels (Section 6.2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpusim.trace import (
    UNSCOPED,
    KernelLaunch,
    KernelTrace,
    LaunchKind,
    TraceScope,
)
from repro.kernels.base import (
    DEFAULT_SCHEDULE,
    ONLINE_REORDER_OPS,
    KernelSchedule,
    check_conv_args,
    gemm_ctas,
    gemm_efficiency,
)
from repro.precision import Precision
from repro.sparse.kmap import KernelMap


#: Extra memory inefficiency when wgrad iterates a bitmask-sorted map: the
#: K loop visits output points in sorted (spatially random) order, so row
#: reads lose coalescing that the natural map order provides.
SORTED_MAP_READ_AMPLIFICATION = 2.0
#: Additional amplification when the map permutation is chased *online*
#: inside the wgrad K loop (Figure 19).
ONLINE_REORDER_WGRAD_AMPLIFICATION = 1.3


def wgrad_trace(
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    schedule: KernelSchedule = DEFAULT_SCHEDULE,
    precision: Precision = Precision.FP32,
    gathered: bool = False,
    online_reorder: bool = False,
    sorted_maps: bool = False,
    tensor_cores: bool = True,
    scope: TraceScope = UNSCOPED,
) -> KernelTrace:
    """Execution trace of the wgrad kernel (no numerics), named in
    ``scope``.

    ``gathered`` stages both operands through DRAM gather buffers
    (gather-GEMM-scatter-family wgrad) instead of indirect addressing
    inside the GEMM (implicit-GEMM-family wgrad).  ``online_reorder``
    marks that the forward pass reordered its maps online, so the wgrad
    K loop pays an extra indirection per element (Figure 19).
    ``sorted_maps`` marks that the maps were bitmask-sorted for the bound
    forward/dgrad kernels; the wgrad K loop then reads rows in a spatially
    random order (Section 6.2's locality argument), amplifying its DRAM
    traffic — the reason wgrad prefers unsorted dataflow parameters.
    """
    itemsize = precision.itemsize
    trace = KernelTrace()
    total_pairs = kmap.total_pairs
    # Pair lists are live for the whole kernel; the gathered variant adds
    # staged copies of both operands on top.
    pair_bytes = 8.0 * total_pairs
    staging_bytes = 0.0
    if gathered:
        staging_bytes = itemsize * total_pairs * (c_in + c_out)
        trace.add(
            KernelLaunch(
                name=scope.name("wgrad/gather"),
                kind=LaunchKind.MEMORY,
                dram_read_bytes=itemsize * total_pairs * (c_in + c_out)
                + 16.0 * total_pairs,
                dram_write_bytes=itemsize * total_pairs * (c_in + c_out),
                scalar_ops=4.0 * total_pairs,
                workspace_bytes=pair_bytes + staging_bytes,
                ctas=max(1, total_pairs * (c_in + c_out) // 4096),
                reads=(
                    scope.ext("feats_in", itemsize * total_pairs * c_in),
                    scope.ext("grad_out", itemsize * total_pairs * c_out),
                    scope.ext("kmap_pairs", 16.0 * total_pairs),
                ),
                writes=(scope.ws("wgrad_staged", staging_bytes),),
            )
        )
        k_loads_scalar = 0.0
        read_bytes = itemsize * total_pairs * (c_in + c_out)
    else:
        # Implicit wgrad: indirect loads of both operands in the K loop.
        per_element = schedule.address_ops_per_element + (
            ONLINE_REORDER_OPS if online_reorder else 0.0
        )
        k_loads_scalar = per_element * total_pairs * (c_in + c_out)
        amplification = SORTED_MAP_READ_AMPLIFICATION if sorted_maps else 1.0
        if online_reorder:
            # Chasing the permutation inside the long K loop destroys the
            # continuous access pattern entirely (Section 6.2) — the
            # dominant cost of online reordering in training (Figure 19).
            amplification *= ONLINE_REORDER_WGRAD_AMPLIFICATION
        read_bytes = (
            amplification * itemsize * total_pairs * (c_in + c_out)
            + 8.0 * total_pairs
        )

    # wgrad output tiles are few (C_in x C_out per offset); real kernels
    # split the long K loop (over output points) to fill the device, with
    # partial sums reduced by atomics into the FP32 gradient buffer.
    mean_k = total_pairs / max(1, kmap.volume)
    base_ctas = kmap.volume * gemm_ctas(c_in, c_out, schedule)
    k_splits = max(1, min(16, int(mean_k // (4 * schedule.tile_k) + 1)))
    ctas = base_ctas * k_splits
    if gathered:
        gemm_reads = [scope.ws("wgrad_staged", staging_bytes)]
    else:
        gemm_reads = [
            scope.ext("feats_in", itemsize * total_pairs * c_in),
            scope.ext("grad_out", itemsize * total_pairs * c_out),
            scope.ext("kmap_pairs", 8.0 * total_pairs),
        ]
    grad_w_bytes = 4.0 * kmap.volume * c_in * c_out
    # Gradients accumulate (+=) into the FP32 master buffer: the kernel
    # reads existing partials, which also serializes successive wgrad
    # launches over the same weights via a RAW chain.
    gemm_reads.append(scope.ext("grad_weights", grad_w_bytes))
    # One CTA per output tile writes its first partial plainly; the other
    # K-split partials land via atomic adds into the FP32 gradient buffer.
    gemm_writes = [scope.ext("grad_weights", grad_w_bytes)]
    if k_splits > 1:
        gemm_writes.append(
            scope.ext("grad_weights", grad_w_bytes * (k_splits - 1), atomic=True)
        )
    trace.add(
        KernelLaunch(
            name=scope.name("wgrad/gemm"),
            kind=LaunchKind.GEMM,
            flops=2.0 * total_pairs * c_in * c_out,
            dram_read_bytes=read_bytes,
            dram_write_bytes=4.0 * kmap.volume * c_in * c_out,
            atomic_write_bytes=4.0 * kmap.volume * c_in * c_out
            * (k_splits - 1),
            scalar_ops=k_loads_scalar,
            workspace_bytes=pair_bytes + staging_bytes,
            ctas=max(1, ctas),
            overlapped=schedule.double_buffer,
            tensor_core_eligible=tensor_cores,
            compute_efficiency=gemm_efficiency(
                c_in, c_out, int(math.ceil(mean_k / k_splits)), schedule
            ),
            reads=tuple(gemm_reads),
            writes=tuple(gemm_writes),
        )
    )
    return trace


def wgrad(
    feats: np.ndarray,
    grad_out: np.ndarray,
    kmap: KernelMap,
    precision: Precision = Precision.FP32,
) -> np.ndarray:
    """Weight gradients ``(V, C_in, C_out)`` for all kernel offsets, in
    FP32 (master weights accumulate in FP32); operands are rounded to the
    precision's storage dtype first (FP16 gradients under mixed precision,
    Figure 15).  ``feats`` are the ``(N_in, C_in)`` forward inputs and
    ``grad_out`` the ``(N_out, C_out)`` output gradient; the trace is
    :func:`wgrad_trace`'s.
    """
    if grad_out.ndim != 2:
        raise ValueError(f"grad_out must be 2-D, got {grad_out.shape}")
    c_in = feats.shape[1]
    c_out = grad_out.shape[1]
    check_conv_args(
        feats, np.zeros((kmap.volume, c_in, c_out), dtype=np.float32), kmap.volume
    )
    grad_w = np.zeros((kmap.volume, c_in, c_out), dtype=np.float32)
    for k, (in_idx, out_idx) in enumerate(kmap.pairs()):
        if len(in_idx) == 0:
            continue
        a = feats[in_idx].astype(precision.dtype, copy=False).astype(np.float32)
        b = grad_out[out_idx].astype(precision.dtype, copy=False).astype(np.float32)
        grad_w[k] = a.T @ b
    return grad_w
