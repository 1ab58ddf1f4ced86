"""Output-stationary implicit GEMM dataflow (Sections 2.2.3 and 4.1).

The sparse convolution is executed as one GEMM
``X_out[M, N] = X_im2col[M, K] @ W[K, N]`` with ``M = N_out``,
``N = C_out`` and ``K = V * C_in``, where the A operand is never
materialised: loads from ``X_in`` go through the output-stationary map with
one level of indirection (Figure 7).  Write-back traffic is the theoretical
minimum, but warp-lockstep execution issues redundant MACs wherever a warp's
rows disagree about neighbour presence (Figure 5).

Configuration axes (the TorchSparse++ design-space extension, Figure 9/10):

* ``sort`` — reorder rows by descending neighbour bitmask (SpConv v2 style,
  Figure 6); ``sort=False`` is the *unsorted* dataflow SpConv v2 excluded
  and the paper rehabilitates (Table 3);
* ``num_splits`` — split the K loop over offsets into ``s`` independently
  sorted segments computing into separate partial-sum buffers, reduced by a
  final summation kernel (Figure 10, SplitK analogue);
* ``offline_reorder`` — materialise the reordered map ahead of time instead
  of chasing the permutation inside the kernel (Section 4.1 / Figure 19).
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigError
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
    ONLINE_REORDER_OPS,
    KernelSchedule,
    gemm_ctas,
    gemm_efficiency,
)
from repro.precision import Precision
from repro.sparse.bitmask import mac_slot_counts
from repro.sparse.kmap import KernelMap

#: Scalar ops per radix-sort pass per key (compare/scatter on CUDA cores).
SORT_OPS_PER_PASS = 16.0
#: Bits retired per radix-sort pass.
RADIX_BITS = 8
#: Random-scatter DRAM amplification: 4-16 byte scattered accesses move
#: full 32-byte sectors, so sorting/reordering runs far below peak
#: bandwidth — the reason sorting overhead is end-to-end significant
#: (Tables 3/4, Figure 17).
SECTOR_FACTOR = 8.0
#: Warp widths every slot count covers: ``min(32, tile_m)`` over the
#: tile candidates.  Another ``warp_rows`` is added on first use.
WARP_WIDTHS = (16, 32)
#: Loss of gathered-row contiguity when the permutation is chased inside
#: the kernel instead of materialised offline (Figure 19).
ONLINE_REORDER_READ_AMPLIFICATION = 2.0


@dataclasses.dataclass(frozen=True)
class ImplicitGemmConfig:
    """Dataflow parameters for implicit GEMM.

    ``num_splits=1, sort=False`` is the unsorted dataflow ("split 0" in the
    paper's Table 5 notation); ``num_splits=1, sort=True`` matches SpConv v2.
    """

    num_splits: int = 1
    sort: bool = True
    offline_reorder: bool = True

    def __post_init__(self) -> None:
        if self.num_splits < 1:
            raise ConfigError(f"num_splits must be >= 1, got {self.num_splits}")
        if not self.sort and self.num_splits > 1:
            raise ConfigError("mask splitting requires sorting (Figure 10)")

    @classmethod
    def from_paper_notation(cls, split: int) -> "ImplicitGemmConfig":
        """Table 5 notation: 0 = unsorted, s >= 1 = sorted with s splits."""
        if split == 0:
            return cls(num_splits=1, sort=False)
        return cls(num_splits=split, sort=True)


def _mapping_trace(
    kmap: KernelMap,
    config: ImplicitGemmConfig,
    num_rows: int,
    scope: TraceScope,
) -> KernelTrace:
    """Launches for bitmask computation, sorting and (offline) reordering."""
    trace = KernelTrace()
    if not config.sort or kmap.volume <= 1:
        # Nothing to sort for pointwise (V = 1) convolutions.
        return trace
    volume = kmap.volume
    seg_bits = math.ceil(volume / config.num_splits)
    passes = max(1, math.ceil(seg_bits / RADIX_BITS))
    # The dense output-stationary map (4 bytes x V per row) is live through
    # every mapping stage; sort keys and the radix ping-pong buffers come
    # and go around it.
    map_bytes = 4.0 * num_rows * volume
    key_bytes = 8.0 * num_rows * config.num_splits
    trace.add(
        KernelLaunch(
            name=scope.name("mapping/bitmask"),
            kind=LaunchKind.MAPPING,
            dram_read_bytes=4.0 * num_rows * volume,
            dram_write_bytes=8.0 * num_rows * config.num_splits,
            scalar_ops=2.0 * num_rows * volume,
            workspace_bytes=map_bytes + key_bytes,
            ctas=max(1, num_rows // 256),
            reads=(scope.ext("nbmap", map_bytes),),
            writes=(scope.ws("ig_keys", key_bytes),),
            # The dense map is charged as transient here but read through
            # the external nbmap buffer: untracked by ws: liveness.
            untracked_workspace_bytes=map_bytes,
        )
    )
    trace.add(
        KernelLaunch(
            name=scope.name("mapping/argsort"),
            kind=LaunchKind.MAPPING,
            dram_read_bytes=16.0 * num_rows * passes * config.num_splits,
            # Radix scatter writes are random: sector-amplified.
            dram_write_bytes=SECTOR_FACTOR
            * 16.0 * num_rows * passes * config.num_splits,
            scalar_ops=SORT_OPS_PER_PASS * num_rows * passes * config.num_splits,
            # Keys plus the (key, index) ping-pong pair of the radix sort.
            workspace_bytes=map_bytes + 3.0 * key_bytes,
            ctas=max(1, num_rows // 256),
            reads=(scope.ws("ig_keys", key_bytes),),
            writes=(scope.ws("ig_perm", 4.0 * num_rows),),
            # Dense map + radix ping-pong buffers beyond the named keys/perm.
            untracked_workspace_bytes=map_bytes
            + 2.0 * key_bytes
            - 4.0 * num_rows,
        )
    )
    if config.offline_reorder:
        trace.add(
            KernelLaunch(
                name=scope.name("mapping/reorder"),
                kind=LaunchKind.MAPPING,
                # Row gather through the permutation: random row reads.
                dram_read_bytes=SECTOR_FACTOR * 4.0 * num_rows * volume
                + 4.0 * num_rows,
                dram_write_bytes=4.0 * num_rows * volume,
                scalar_ops=2.0 * num_rows * volume,
                # Source map + materialised reordered copy + permutation.
                workspace_bytes=2.0 * map_bytes + 4.0 * num_rows,
                ctas=max(1, num_rows // 256),
                reads=(
                    scope.ext("nbmap", map_bytes),
                    scope.ws("ig_perm", 4.0 * num_rows),
                ),
                writes=(scope.ws("ig_map_sorted", map_bytes),),
                # The external source map is charged transient here.
                untracked_workspace_bytes=map_bytes,
            )
        )
    return trace


def implicit_gemm_trace(
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    schedule: KernelSchedule = DEFAULT_SCHEDULE,
    precision: Precision = Precision.FP32,
    config: ImplicitGemmConfig = ImplicitGemmConfig(),
    tensor_cores: bool = True,
    charge_mapping: bool = True,
    scope: TraceScope = UNSCOPED,
) -> KernelTrace:
    """Execution trace of the implicit GEMM dataflow (no numerics).

    The trace includes the mapping launches (bitmask / sort / reorder) so
    end-to-end comparisons see the sorting overhead the paper highlights
    (Tables 3/4, Figure 17).  Pass ``charge_mapping=False`` for layers that
    reuse an already-reordered map (all but the first layer of a group);
    the map reads are then external-class, matching the warm-cache
    reality.  ``scope`` names the launches and buffers.
    """
    itemsize = precision.itemsize
    nbmap = kmap.nbmap
    num_rows = kmap.num_outputs
    if config.num_splits > kmap.volume:
        # A map cannot be split finer than one offset per segment
        # (pointwise convolutions have V = 1).
        config = dataclasses.replace(
            config, num_splits=kmap.volume
        )
    if charge_mapping:
        trace = _mapping_trace(kmap, config, num_rows, scope)
    else:
        trace = KernelTrace()

    pad_rows = (
        math.ceil(max(num_rows, 1) / schedule.tile_m) * schedule.tile_m
        if schedule.pad_maps
        else num_rows
    )
    # One slot pass per (map, splits, sort) counts every warp width.
    cache_key = ("ig_slots", config.num_splits, config.sort)
    effective_total, issued = kmap.analysis_cache.get(cache_key, (0, {}))
    if schedule.warp_rows not in issued:
        widths = {*WARP_WIDTHS, schedule.warp_rows, *issued}
        effective_total, issued = kmap.analysis_cache[cache_key] = (
            mac_slot_counts(nbmap, config.num_splits, config.sort, widths)
        )
    issued_total = issued[schedule.warp_rows]
    ctas_total = config.num_splits * gemm_ctas(pad_rows, c_out, schedule)

    a_loads = float(issued_total) * c_in
    scalar_per_element = (
        schedule.address_ops_per_element + schedule.boundary_ops_per_element
    )
    # Naive dynamic-shape addressing above the hoisted floor is the
    # loop-invariant arithmetic the hoisting pass (repro.opt) removes —
    # exactly the Figure 20 quantity.  Boundary checks and online-reorder
    # indirections are per-element and stay.
    hoistable_per_element = 0.0
    if not schedule.fixed_shape and not schedule.hoist_invariants:
        hoistable_per_element = (
            schedule.address_ops_per_element - ADDRESS_OPS_HOISTED
        )
    a_read_amplification = 1.0
    if config.sort and not config.offline_reorder:
        # Online reordering chases the permutation inside the kernel: an
        # extra indirection per element plus disrupted access contiguity
        # on the gathered rows (Section 6.2 / Figure 19).
        scalar_per_element += ONLINE_REORDER_OPS
        a_read_amplification = ONLINE_REORDER_READ_AMPLIFICATION

    split_k = max(1, kmap.volume // config.num_splits) * c_in
    # Weights are small enough to stay L2-resident across output tiles
    # (a 27x256x256 FP16 tensor is ~3.5 MB); charge one streaming read
    # plus one prefetch pass rather than a re-read per M tile.
    weight_reads = 2.0 * itemsize * kmap.volume * c_in * c_out
    split_buffers = config.num_splits > 1
    out_bytes_per_split = (4.0 if split_buffers else itemsize) * num_rows * c_out
    # Workspace of the main launch: the dense map (doubled when a reordered
    # copy was materialised offline, plus the permutation when it is chased
    # online) and, with mask splitting, one FP32 partial-sum buffer per
    # split segment.  Output rows accumulate in registers — no staging.
    sorted_here = config.sort and kmap.volume > 1
    map_bytes = 4.0 * num_rows * kmap.volume
    main_workspace = map_bytes
    if sorted_here:
        if config.offline_reorder:
            main_workspace += map_bytes
        else:
            main_workspace += 4.0 * num_rows * config.num_splits
    if split_buffers:
        main_workspace += 4.0 * config.num_splits * num_rows * c_out
    # Map structures produced by the mapping launches above are trace-local
    # workspace; when the layer reuses an already-reordered map (warm cache,
    # ``charge_mapping=False``) they pre-exist and are external.
    map_cls = scope.ws if charge_mapping else scope.ext
    if not sorted_here:
        map_reads = [scope.ext("nbmap", map_bytes)]
    elif config.offline_reorder:
        map_reads = [map_cls("ig_map_sorted", map_bytes)]
    else:
        map_reads = [
            scope.ext("nbmap", map_bytes),
            map_cls("ig_perm", 4.0 * num_rows),
        ]
    main_writes = (
        (scope.ws("ig_partials", 4.0 * config.num_splits * num_rows * c_out),)
        if split_buffers
        else (scope.ext("feats_out", itemsize * num_rows * c_out),)
    )
    # Workspace the main launch holds beyond its named ws: accesses (the
    # dense map read through external buffers, the online permutation when
    # maps are warm): the reuse planner must keep this much headroom.
    tracked_ws = 0.0
    if sorted_here and charge_mapping:
        tracked_ws += map_bytes if config.offline_reorder else 4.0 * num_rows
    if split_buffers:
        tracked_ws += 4.0 * config.num_splits * num_rows * c_out
    trace.add(
        KernelLaunch(
            name=scope.name("implicit_gemm/main"),
            kind=LaunchKind.GEMM,
            flops=2.0 * issued_total * c_in * c_out,
            dram_read_bytes=(
                a_read_amplification * itemsize * effective_total * c_in
                + 4.0 * issued_total  # map loads
                + weight_reads
            ),
            dram_write_bytes=out_bytes_per_split * config.num_splits,
            scalar_ops=scalar_per_element * a_loads,
            workspace_bytes=main_workspace,
            ctas=max(1, ctas_total),
            overlapped=schedule.double_buffer,
            tensor_core_eligible=tensor_cores,
            compute_efficiency=gemm_efficiency(
                num_rows, c_out, split_k, schedule
            ),
            reads=tuple(
                [
                    scope.ext("feats_in", itemsize * effective_total * c_in),
                    scope.ext("weights", weight_reads),
                ]
                + map_reads
            ),
            writes=main_writes,
            hoistable_scalar_ops=hoistable_per_element * a_loads,
            untracked_workspace_bytes=main_workspace - tracked_ws,
        )
    )
    if split_buffers:
        trace.add(
            KernelLaunch(
                name=scope.name("implicit_gemm/reduce"),
                kind=LaunchKind.REDUCTION,
                flops=float(config.num_splits) * num_rows * c_out,
                dram_read_bytes=4.0 * config.num_splits * num_rows * c_out,
                dram_write_bytes=float(itemsize) * num_rows * c_out,
                workspace_bytes=4.0 * config.num_splits * num_rows * c_out,
                ctas=max(1, num_rows * c_out // 4096),
                overlapped=True,
                reads=(
                    scope.ws("ig_partials", 4.0 * config.num_splits * num_rows * c_out),
                ),
                writes=(scope.ext("feats_out", itemsize * num_rows * c_out),),
            )
        )
    return trace

