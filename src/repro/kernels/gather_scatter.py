"""Weight-stationary gather-GEMM-scatter dataflows (Section 2.2.1).

Two variants are provided:

* ``fused=False`` — the vanilla dataflow of SparseConvNet / SpConv v1: a
  host loop over kernel offsets, each iteration launching a gather kernel, a
  dense (cuBLAS) GEMM and a scatter kernel.  Three launches per offset, a
  DRAM round trip for both staging buffers, and no compute/memory overlap
  between stages (Figure 3a).
* ``fused=True`` — TorchSparse (MLSys'22): all gathers are fused into one
  locality-aware kernel, GEMMs for offsets with similar ``|M_delta|`` are
  batched together (padding the smaller ones — *adaptive grouping*), and all
  scatters are fused into one kernel.

Trace construction (``gather_gemm_scatter_trace``) is independent of feature
values, so the performance model and the autotuner can cost full-scale
workloads without executing the matrix arithmetic.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

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
    KernelSchedule,
    gemm_ctas,
    gemm_efficiency,
)
from repro.precision import Precision
from repro.sparse.kmap import KernelMap

#: Offsets whose map sizes are within this ratio share one batched GEMM
#: group in the adaptive-grouping variant (TorchSparse's tolerance).
GROUP_SIZE_TOLERANCE = 1.5


def adaptive_groups(map_sizes: Sequence[int]) -> List[List[int]]:
    """Group offset indices by similar map size (TorchSparse Section 3).

    Offsets are sorted by ``|M_delta|`` descending and greedily grouped while
    the largest member stays within :data:`GROUP_SIZE_TOLERANCE` of the
    smallest; batched GEMMs pad every member to the group maximum.
    """
    nonempty = [k for k, size in enumerate(map_sizes) if size > 0]
    nonempty.sort(key=lambda k: -map_sizes[k])
    groups: List[List[int]] = []
    for k in nonempty:
        if (
            groups
            and map_sizes[groups[-1][0]] <= GROUP_SIZE_TOLERANCE * map_sizes[k]
        ):
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def _gemm_launch(
    name: str,
    m: int,
    k: int,
    n: int,
    batch: int,
    schedule: KernelSchedule,
    precision: Precision,
    tensor_cores: bool,
) -> KernelLaunch:
    """A dense (possibly batched) GEMM over DRAM staging buffers."""
    itemsize = precision.itemsize
    m_pad = math.ceil(m / schedule.tile_m) * schedule.tile_m if m else 0
    return KernelLaunch(
        name=name,
        kind=LaunchKind.GEMM,
        flops=2.0 * batch * m_pad * k * n,
        dram_read_bytes=itemsize * batch * (m * k + k * n),
        dram_write_bytes=itemsize * batch * m * n,
        ctas=batch * gemm_ctas(max(m, 1), n, schedule),
        overlapped=schedule.double_buffer,
        tensor_core_eligible=tensor_cores,
        compute_efficiency=gemm_efficiency(m, n, k, schedule),
    )


def gather_gemm_scatter_trace(
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    schedule: KernelSchedule = DEFAULT_SCHEDULE,
    precision: Precision = Precision.FP32,
    fused: bool = False,
    tensor_cores: bool = True,
    chunks: int = 1,
    scope: TraceScope = UNSCOPED,
) -> KernelTrace:
    """Execution trace of the gather-GEMM-scatter dataflow (no numerics).

    ``chunks > 1`` splits each offset's gather/GEMM/scatter staging into
    that many sequential row chunks (SpConv-style sub-batching): the
    staging workspace shrinks by ``chunks`` at the cost of extra kernel
    launches.  Only the unfused variant chunks — the fused variant's whole
    point is one monolithic staging pass.  ``scope`` names the launches
    and buffers (:class:`~repro.gpusim.trace.TraceScope`).
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    itemsize = precision.itemsize
    trace = KernelTrace()
    map_sizes = kmap.map_sizes
    total_pairs = kmap.total_pairs
    # Weight-stationary engines keep the kmap as per-offset (in, out) index
    # pair lists: two int32 entries per pair, live for the whole dataflow.
    pair_bytes = 8.0 * total_pairs

    if not fused:
        for k, size in enumerate(map_sizes):
            if size == 0:
                continue
            size = int(size)
            n_chunks = min(chunks, size)
            base, extra = divmod(size, n_chunks)
            for ci in range(n_chunks):
                rows = base + (1 if ci < extra else 0)
                suffix = f".chunk{ci}" if n_chunks > 1 else ""
                stage_in = f"gs_in.k{k}{suffix}"
                stage_out = f"gs_out.k{k}{suffix}"
                # Each triple is one fusable producer/consumer chain; the
                # group id is also the fused launch's name, chosen so the
                # race checker still sees a single-offset scatter class.
                group = f"gather_gemm_scatter/offset{k}{suffix}"
                trace.add(
                    KernelLaunch(
                        name=scope.name(f"gather/offset{k}{suffix}"),
                        kind=LaunchKind.MEMORY,
                        dram_read_bytes=itemsize * rows * c_in + 8.0 * rows,
                        dram_write_bytes=itemsize * rows * c_in,
                        scalar_ops=2.0 * rows,
                        workspace_bytes=pair_bytes + itemsize * rows * c_in,
                        ctas=max(1, rows * c_in // 4096),
                        reads=(
                            scope.ext("feats_in", itemsize * rows * c_in),
                            scope.ext("kmap_pairs", 8.0 * rows),
                        ),
                        writes=(scope.ws(stage_in, itemsize * rows * c_in),),
                        fuse_group=group,
                        untracked_workspace_bytes=pair_bytes,
                    )
                )
                gemm = _gemm_launch(
                    scope.name(f"gemm/offset{k}{suffix}"), rows, c_in, c_out, 1,
                    schedule, precision, tensor_cores,
                )
                gemm.workspace_bytes = (
                    pair_bytes + itemsize * rows * (c_in + c_out)
                )
                gemm.reads = (
                    scope.ws(stage_in, itemsize * rows * c_in),
                    scope.ext("weights", itemsize * c_in * c_out),
                )
                gemm.writes = (scope.ws(stage_out, itemsize * rows * c_out),)
                gemm.fuse_group = group
                gemm.untracked_workspace_bytes = pair_bytes
                trace.add(gemm)
                trace.add(
                    KernelLaunch(
                        name=scope.name(f"scatter/offset{k}{suffix}"),
                        kind=LaunchKind.MEMORY,
                        dram_read_bytes=itemsize * rows * c_out + 8.0 * rows
                        # scatter-accumulate reads the destination rows too
                        + 4.0 * rows * c_out,
                        dram_write_bytes=4.0 * rows * c_out,
                        scalar_ops=2.0 * rows,
                        workspace_bytes=pair_bytes + itemsize * rows * c_out,
                        ctas=max(1, rows * c_out // 4096),
                        reads=(
                            scope.ws(stage_out, itemsize * rows * c_out),
                            scope.ext("kmap_pairs", 8.0 * rows),
                            # read-modify-write accumulation: the RAW chain
                            # through ext:out_accum serializes the scatters.
                            scope.ext("out_accum", 4.0 * rows * c_out),
                        ),
                        writes=(scope.ext("out_accum", 4.0 * rows * c_out),),
                        fuse_group=group,
                        untracked_workspace_bytes=pair_bytes,
                    )
                )
    else:
        # The fused variant materializes one gather buffer for *all* offsets
        # and keeps every group's padded GEMM output staged until the single
        # fused scatter consumes it — this is the dataflow's workspace hog.
        gather_buf = itemsize * total_pairs * c_in
        groups = adaptive_groups(map_sizes)
        staged_out = itemsize * c_out * sum(
            int(max(map_sizes[k] for k in group)) * len(group)
            for group in groups
        )
        trace.add(
            KernelLaunch(
                name=scope.name("gather/fused"),
                kind=LaunchKind.MEMORY,
                dram_read_bytes=itemsize * total_pairs * c_in + 8.0 * total_pairs,
                dram_write_bytes=itemsize * total_pairs * c_in,
                scalar_ops=2.0 * total_pairs,
                workspace_bytes=pair_bytes + gather_buf,
                ctas=max(1, total_pairs * c_in // 4096),
                reads=(
                    scope.ext("feats_in", itemsize * total_pairs * c_in),
                    scope.ext("kmap_pairs", 8.0 * total_pairs),
                ),
                writes=(scope.ws("gs_in", gather_buf),),
                untracked_workspace_bytes=pair_bytes,
            )
        )
        # Each group stages its padded output in its own buffer, so the
        # batched GEMMs are mutually independent (no WAW between groups).
        staged_group: List[Tuple[str, float]] = []
        for g, group in enumerate(groups):
            padded_m = int(max(map_sizes[k] for k in group))
            group_out = itemsize * c_out * padded_m * len(group)
            staged_group.append((f"gs_staged.g{g}", group_out))
            gemm = _gemm_launch(
                scope.name(f"gemm/group{g}"), padded_m, c_in, c_out, len(group),
                schedule, precision, tensor_cores,
            )
            gemm.workspace_bytes = pair_bytes + gather_buf + staged_out
            group_rows = sum(int(map_sizes[k]) for k in group)
            gemm.reads = (
                scope.ws("gs_in", itemsize * group_rows * c_in),
                scope.ext("weights", itemsize * len(group) * c_in * c_out),
            )
            gemm.writes = (scope.ws(f"gs_staged.g{g}", group_out),)
            gemm.untracked_workspace_bytes = pair_bytes
            trace.add(gemm)
        # One kernel scatters every offset's partials at once, so rows
        # targeting the same output index race within the launch: only the
        # first touch of each output row can be a plain store; every
        # further accumulation must be an atomic add.  (The unfused
        # variant is conflict-free per launch because one offset maps each
        # output at most once, and launches serialize.)
        touched = int(np.count_nonzero((kmap.nbmap >= 0).any(axis=1)))
        conflicts = total_pairs - touched
        accum_writes = [scope.ext("out_accum", 4.0 * touched * c_out)]
        if conflicts:
            accum_writes.append(
                scope.ext("out_accum", 4.0 * conflicts * c_out, atomic=True)
            )
        trace.add(
            KernelLaunch(
                name=scope.name("scatter/fused"),
                kind=LaunchKind.MEMORY,
                dram_read_bytes=itemsize * total_pairs * c_out
                + 8.0 * total_pairs + 4.0 * total_pairs * c_out,
                dram_write_bytes=4.0 * touched * c_out,
                atomic_write_bytes=4.0 * conflicts * c_out,
                scalar_ops=2.0 * total_pairs,
                workspace_bytes=pair_bytes + staged_out,
                ctas=max(1, total_pairs * c_out // 4096),
                reads=tuple(
                    [scope.ws(name, nbytes) for name, nbytes in staged_group]
                    + [
                        scope.ext("kmap_pairs", 8.0 * total_pairs),
                        scope.ext("out_accum", 4.0 * total_pairs * c_out),
                    ]
                ),
                writes=tuple(accum_writes),
                untracked_workspace_bytes=pair_bytes,
            )
        )

    # Final output materialization (accumulator -> storage dtype).
    trace.add(
        KernelLaunch(
            name=scope.name("writeback"),
            kind=LaunchKind.MEMORY,
            dram_read_bytes=4.0 * kmap.num_outputs * c_out,
            dram_write_bytes=itemsize * kmap.num_outputs * c_out,
            ctas=max(1, kmap.num_outputs * c_out // 4096),
            reads=(scope.ext("out_accum", 4.0 * kmap.num_outputs * c_out),),
            writes=(scope.ext("feats_out", itemsize * kmap.num_outputs * c_out),),
        )
    )
    return trace

