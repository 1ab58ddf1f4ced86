"""Shared kernel infrastructure: schedules, efficiency and overhead models.

A :class:`KernelSchedule` is the contract between the Sparse Kernel Generator
(:mod:`repro.codegen`) and the dataflow kernels: it fixes the tile sizes and
says which of the paper's code-generation optimizations are applied.  The
scalar-overhead constants below are per-element instruction counts read off
the kernel templates (Figure 7), not fitted values:

* a *naive dynamic-shape* kernel recomputes the ``X_in`` address in the
  innermost ``ldA`` loop — an integer divide, modulo and pointer add against
  an RF-resident ``C_in`` (Section 3.2), roughly a dozen issue slots;
* *loop-invariant hoisting* lifts everything except one add out of the loop
  (4-8x fewer by the paper's count for ``LD_A_THR`` in {4, 8}, further
  reduced by hoisting across the outer loops);
* a *fixed-shape* (compile-time constant folded) kernel still performs the
  folded multiply-add addressing;
* an un-padded map adds a bounds predicate + branch per map access.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

import numpy as np

from repro.errors import ConfigError
from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind
from repro.precision import Precision
from repro.sparse.kmap import KernelMap

#: Scalar instructions per A-operand element for address generation.
ADDRESS_OPS_NAIVE_DYNAMIC = 12.0
ADDRESS_OPS_FIXED_SHAPE = 2.0
ADDRESS_OPS_HOISTED = 1.5
#: Scalar instructions per A-operand element for a map boundary check.
BOUNDARY_CHECK_OPS = 4.0
#: Extra indirection cost per element when the map is reordered *online*
#: (inside the kernel) instead of offline (Figure 19).
ONLINE_REORDER_OPS = 3.0
#: Software-pipeline depth in K-loop iterations (pipeline fill penalty).
PIPELINE_DEPTH = 3.0
#: Tile data-reuse balance point: a CTA tile computes ``tm*tn`` outputs
#: while streaming ``tm+tn`` operand rows/columns per K step, so its
#: arithmetic intensity is the harmonic mean ``tm*tn/(tm+tn)``.  Achieved
#: MMA throughput saturates once that reuse exceeds this constant —
#: large tiles (128x128, reuse 64) run near peak while small tiles
#: (64x32, reuse ~21) cap out around 60% (the reason adaptive tiling
#: matters, Section 6.2).
TILE_REUSE_BALANCE = 12.0


@dataclasses.dataclass(frozen=True)
class KernelSchedule:
    """Tiling and code-generation options for one kernel.

    Attributes:
        tile_m / tile_n / tile_k: CTA tile sizes of the GEMM loop nest.
        warp_rows: output rows executed in lockstep by one warp — the
            granularity of redundant computation (Figure 5).
        double_buffer: overlap DRAM loads with MMA (always on in generated
            kernels; exposed for ablations).
        hoist_invariants: apply loop-invariant hoisting to addressing
            (Figure 20).
        pad_maps: pad the map's first dimension to ``tile_m`` so boundary
            checks disappear (Figure 21).
        fixed_shape: pretend the workload shape is a compile-time constant
            (the idealized upper bound of Figure 8; impossible to deploy).
        codegen_quality: relative MMA efficiency of the kernel generator
            that produced this kernel (1.0 = TorchSparse++'s generator).
            SpConv v2's hand-rolled metaprogrammer produces kernels
            1.1-1.2x slower at identical dataflow parameters (Figure 23),
            modelled as ``codegen_quality ~= 0.87``.
    """

    tile_m: int = 128
    tile_n: int = 64
    tile_k: int = 32
    warp_rows: int = 32
    double_buffer: bool = True
    hoist_invariants: bool = True
    pad_maps: bool = True
    fixed_shape: bool = False
    codegen_quality: float = 1.0

    def __post_init__(self) -> None:
        for field in ("tile_m", "tile_n", "tile_k", "warp_rows"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1")
        if self.warp_rows > self.tile_m:
            raise ConfigError(
                f"warp_rows ({self.warp_rows}) cannot exceed tile_m "
                f"({self.tile_m})"
            )
        if not 0.0 < self.codegen_quality <= 1.0:
            raise ConfigError(
                f"codegen_quality must be in (0, 1], got {self.codegen_quality}"
            )

    @property
    def address_ops_per_element(self) -> float:
        """Scalar ops per A element from address generation (Section 3.2)."""
        if self.fixed_shape:
            return ADDRESS_OPS_FIXED_SHAPE
        if self.hoist_invariants:
            return ADDRESS_OPS_HOISTED
        return ADDRESS_OPS_NAIVE_DYNAMIC

    @property
    def boundary_ops_per_element(self) -> float:
        """Scalar ops per A element from boundary checking."""
        if self.pad_maps or self.fixed_shape:
            return 0.0
        return BOUNDARY_CHECK_OPS


#: Schedule pair used by adaptive tiling (Section 6.2): a large tile for
#: compute-heavy layers and a small tile for thin layers.
LARGE_TILE = KernelSchedule(tile_m=128, tile_n=128, tile_k=32, warp_rows=32)
SMALL_TILE = KernelSchedule(tile_m=64, tile_n=32, tile_k=16, warp_rows=16)
DEFAULT_SCHEDULE = KernelSchedule()


def check_conv_args(
    feats: np.ndarray, weights: np.ndarray, volume: int
) -> Tuple[int, int]:
    """Validate features against ``(V, C_in, C_out)`` weights; return channels."""
    if weights.ndim != 3:
        raise ConfigError(
            f"weights must be (V, C_in, C_out), got shape {weights.shape}"
        )
    if weights.shape[0] != volume:
        raise ConfigError(
            f"weights have {weights.shape[0]} offsets but the map has {volume}"
        )
    if feats.ndim != 2 or feats.shape[1] != weights.shape[1]:
        raise ConfigError(
            f"features {feats.shape} do not match weights C_in={weights.shape[1]}"
        )
    return weights.shape[1], weights.shape[2]


def gemm_efficiency(
    m: int, n: int, k: int, schedule: KernelSchedule
) -> float:
    """Fraction of peak MMA throughput a tiled GEMM sustains.

    Captures tile quantization along N and pipeline fill along K.  (M-side
    quantization is accounted explicitly by the callers: padded/redundant
    rows appear in the issued-FLOPs count instead.)
    """
    if min(m, n, k) <= 0:
        return 1.0
    n_eff = n / (math.ceil(n / schedule.tile_n) * schedule.tile_n)
    k_iters = max(1.0, k / schedule.tile_k)
    k_eff = k_iters / (k_iters + PIPELINE_DEPTH)
    reuse = (schedule.tile_m * schedule.tile_n) / (
        schedule.tile_m + schedule.tile_n
    )
    tile_eff = reuse / (reuse + TILE_REUSE_BALANCE)
    return max(1e-3, n_eff * k_eff * tile_eff * schedule.codegen_quality)


def matmul_accumulate(
    a: np.ndarray, w: np.ndarray, precision: Precision
) -> np.ndarray:
    """Tensor-core-style matmul: inputs in storage dtype, FP32 accumulate."""
    a_cast = a.astype(precision.dtype, copy=False)
    w_cast = w.astype(precision.dtype, copy=False)
    return a_cast.astype(np.float32) @ w_cast.astype(np.float32)


def sparse_conv(
    feats: np.ndarray,
    weights: np.ndarray,
    kmap: KernelMap,
    precision: Precision,
) -> np.ndarray:
    """Output features ``(N_out, C_out)`` of one sparse convolution, in the
    precision's storage dtype: the numerics every dataflow shares.

    Each offset's products accumulate in FP32, offset by offset, into the
    rows its pairs name.  An output row has at most one pair per offset, so
    the result does not depend on how a dataflow orders its work.
    """
    check_conv_args(feats, weights, kmap.volume)
    accum = np.zeros((kmap.num_outputs, weights.shape[2]), dtype=np.float32)
    for k, (in_idx, out_idx) in enumerate(kmap.pairs()):
        if len(in_idx):
            accum[out_idx] += matmul_accumulate(
                feats[in_idx], weights[k], precision
            )
    return accum.astype(precision.dtype)


def gemm_ctas(m: int, n: int, schedule: KernelSchedule) -> int:
    """Thread blocks launched for an ``m x n`` output tile grid."""
    return max(1, math.ceil(m / schedule.tile_m) * math.ceil(n / schedule.tile_n))


def launch_part(launch: KernelLaunch) -> str:
    """Attribution key by launch name: the kernel's ``"main"`` loop, its
    ``"mapping"`` work (bitmask, argsort, reorder), or ``"other"``."""
    for part in ("main", "mapping"):
        if part in launch.name:
            return part
    return "other"


def dense_gemm_trace(
    m: int,
    k: int,
    n: int,
    schedule: KernelSchedule,
    precision: Precision,
    name: str = "dense_gemm",
) -> KernelTrace:
    """Trace of an equivalent-size *dense* GEMM (the cuBLAS reference of
    Figure 8): ``C[m,n] = A[m,k] @ B[k,n]``."""
    itemsize = precision.itemsize
    m_pad = math.ceil(m / schedule.tile_m) * schedule.tile_m
    flops = 2.0 * m_pad * k * n
    trace = KernelTrace()
    trace.add(
        KernelLaunch(
            name=name,
            kind=LaunchKind.GEMM,
            flops=flops,
            # The B operand stays L2-resident across M tiles (stream + one
            # prefetch pass), matching the sparse kernels' weight model.
            dram_read_bytes=itemsize * (m * k + 2 * k * n),
            dram_write_bytes=itemsize * m * n,
            scalar_ops=ADDRESS_OPS_FIXED_SHAPE * m_pad * k,
            ctas=gemm_ctas(m_pad, n, schedule),
            overlapped=schedule.double_buffer,
            compute_efficiency=gemm_efficiency(m, n, k, schedule),
        )
    )
    return trace
