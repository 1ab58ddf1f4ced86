"""Kernel maps: the input/output mappings at the heart of sparse convolution.

Section 2.2 of the paper defines two storage orders for the maps
:math:`\\mathcal{M}`:

* **weight-stationary** (gather-GEMM-scatter, fetch-on-demand): for each
  kernel offset ``delta`` a list of ``(input_idx, output_idx)`` pairs;
* **output-stationary** (implicit GEMM): a dense ``(N_out, K^D)`` matrix
  ``M`` where ``M[n, k]`` is the input index of output ``n``'s ``k``-th
  neighbour, or ``-1`` when the neighbour is absent (Figure 5).

A :class:`KernelMap` holds the output-stationary form canonically and derives
the weight-stationary form on demand; both views are exact and kernels using
either produce identical results.  Map construction statistics (hash-table
probes, query counts) are retained because mapping cost is a first-class
quantity in the paper's analysis (Tables 3/4, Section 6.3).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MapError, ShapeError
from repro.sparse.coords import pack_coords, pack_shifted
from repro.sparse.hashmap import CoordinateHashMap, HashMapStats
from repro.sparse.kernel_offsets import (
    KernelSize,
    kernel_offsets,
    normalize_kernel_size,
)


@dataclasses.dataclass(frozen=True)
class MapKey:
    """Identity of a kernel map; layers sharing a key share maps (Section 4.2)."""

    kernel_size: Tuple[int, ...]
    stride: Tuple[int, ...]
    tensor_stride: Tuple[int, ...]
    transposed: bool = False


class KernelMap:
    """Input/output mapping for one (kernel size, stride, tensor stride).

    Attributes:
        nbmap: ``(N_out, V)`` int32 output-stationary map (``-1`` = missing).
        offsets: ``(V, D)`` int32 kernel offsets in voxel units.
        num_inputs / num_outputs: point counts on either side.
        out_coords: ``(N_out, 1 + D)`` coordinates of the output tensor.
        build_stats: hash-table accounting from map construction.
        key: the :class:`MapKey` identifying this map for group-based tuning.
    """

    def __init__(
        self,
        nbmap: np.ndarray,
        offsets: np.ndarray,
        num_inputs: int,
        out_coords: np.ndarray,
        build_stats: HashMapStats,
        key: MapKey,
        in_coords: Optional[np.ndarray] = None,
    ) -> None:
        nbmap = np.asarray(nbmap, dtype=np.int32)
        if nbmap.ndim != 2:
            raise ShapeError(f"nbmap must be 2-D, got shape {nbmap.shape}")
        if nbmap.shape[1] != len(offsets):
            raise MapError(
                f"nbmap has {nbmap.shape[1]} columns but {len(offsets)} offsets"
            )
        if len(out_coords) != len(nbmap):
            raise MapError("out_coords and nbmap disagree on N_out")
        if nbmap.size and nbmap.max() >= num_inputs:
            raise MapError("nbmap refers to input index out of range")
        self.nbmap = nbmap
        self.offsets = np.asarray(offsets, dtype=np.int32)
        self.num_inputs = int(num_inputs)
        self.out_coords = out_coords
        self.in_coords = in_coords
        self.build_stats = build_stats
        self.key = key
        self._pairs: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        #: Memoized mask-reordering analyses keyed by dataflow config —
        #: mirrors real systems, which reorder each map once and reuse it
        #: across every layer in the group (Section 4.2) — plus the
        #: transposed map under ``"transposed"``.
        self.analysis_cache: Dict[Any, Any] = {}
        #: Storage order the map was materialised in.  Hash-built maps are
        #: natively output-stationary (the nbmap); *transposed* maps are
        #: natively weight-stationary (on device, swapping each pair list's
        #: roles is free, but regrouping the pairs by output is not).
        #: Converting to the other order costs a reordering pass (Section
        #: 4.2) — the asymmetry that makes implicit GEMM cheap on
        #: downsampling layers and fetch-on-demand cheap on decoder layers
        #: (Figure 18).
        self.native_weight_stationary: bool = False

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_outputs(self) -> int:
        return self.nbmap.shape[0]

    @property
    def volume(self) -> int:
        """Number of kernel offsets ``V = K^D``."""
        return self.nbmap.shape[1]

    @functools.cached_property
    def map_sizes(self) -> np.ndarray:
        """``|M_delta|`` per offset: valid pairs for each weight.

        Counted once (``nbmap`` is never reassigned) and read-only, since
        every caller shares the one array.
        """
        sizes: np.ndarray = np.count_nonzero(self.nbmap >= 0, axis=0)
        sizes.flags.writeable = False
        return sizes

    @functools.cached_property
    def total_pairs(self) -> int:
        """``sum_delta |M_delta|``: total gathered rows / effective MAC rows."""
        return int(self.map_sizes.sum())

    @property
    def mean_neighbors(self) -> float:
        """Average neighbours per output point (4-10 in real workloads)."""
        if self.num_outputs == 0:
            return 0.0
        return self.total_pairs / self.num_outputs

    # ------------------------------------------------------------------ #
    # Representations
    # ------------------------------------------------------------------ #
    def pairs(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Weight-stationary view: ``[(in_idx, out_idx)]`` per offset.

        Both int32, ``out_idx`` ascending; one ``nonzero`` over the
        offset-major view, split at the per-offset counts.
        """
        if self._pairs is None:
            cols, rows = np.nonzero(self.nbmap.T >= 0)
            bounds = np.cumsum(self.map_sizes)[:-1]
            out_idx = np.split(rows.astype(np.int32), bounds)
            in_idx = np.split(self.nbmap[rows, cols], bounds)
            # ``np.split`` yields one piece even for no bounds at V == 0.
            self._pairs = list(zip(in_idx, out_idx))[: self.volume]
        return self._pairs

    def padded_nbmap(self, cta_m: int) -> np.ndarray:
        """Output-stationary map padded to a multiple of ``cta_m`` rows.

        Section 3.2: padding removes the boundary check on map loads in the
        innermost loop of the generated kernel.  Padded rows are all ``-1``
        and therefore contribute only zero rows to the implicit GEMM.
        """
        if cta_m <= 0:
            raise ValueError(f"cta_m must be positive, got {cta_m}")
        padded_rows = -(-self.num_outputs // cta_m) * cta_m
        if padded_rows == self.num_outputs:
            return self.nbmap
        padded = np.full((padded_rows, self.volume), -1, dtype=np.int32)
        padded[: self.num_outputs] = self.nbmap
        return padded

    def transposed(self) -> "KernelMap":
        """Map for the transposed convolution (dgrad / inverse conv).

        Swaps the roles of inputs and outputs while keeping the same weight
        index per pair: if ``(p, q)`` is in ``M_delta`` then the transposed
        map contains ``(q, p)`` in its own ``M_delta`` (the dgrad kernel
        multiplies by ``W_delta^T``).  Well-defined because for a fixed
        offset each input matches at most one output: one scatter relabels
        every pair, and a duplicate input would overwrite an entry, leaving
        fewer valid entries than pairs.  Built once per map; later calls
        return the same object.
        """
        cached: Optional[KernelMap] = self.analysis_cache.get("transposed")
        if cached is not None:
            return cached
        rows, cols = np.nonzero(self.nbmap >= 0)
        t_nbmap = np.full((self.num_inputs, self.volume), -1, dtype=np.int32)
        t_nbmap[self.nbmap[rows, cols], cols] = rows
        if np.count_nonzero(t_nbmap >= 0) != len(rows):
            raise MapError(
                "transposed map ill-defined: duplicate inputs in one offset"
            )
        stats = HashMapStats()  # transposition is free on device (relabeling)
        key = dataclasses.replace(self.key, transposed=not self.key.transposed)
        # The transposed map's outputs are the original inputs and vice
        # versa; coordinates swap accordingly (inverse convolutions in a
        # U-Net decoder land exactly on the encoder's coordinates).
        if self.in_coords is None:
            out_coords = np.zeros(
                (self.num_inputs, self.out_coords.shape[1]), dtype=np.int32
            )
        else:
            out_coords = self.in_coords
        out = KernelMap(
            nbmap=t_nbmap,
            offsets=-self.offsets,
            num_inputs=self.num_outputs,
            out_coords=out_coords,
            build_stats=stats,
            key=key,
            in_coords=self.out_coords,
        )
        out.native_weight_stationary = True
        out.map_sizes = self.map_sizes  # transposition keeps every count
        self.analysis_cache["transposed"] = out
        return out

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"KernelMap(V={self.volume}, in={self.num_inputs}, "
            f"out={self.num_outputs}, pairs={self.total_pairs})"
        )


def downsample_coords(
    coords: np.ndarray, stride: Tuple[int, ...], tensor_stride: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Output coordinates of a strided convolution, and their packed keys.

    Outputs live on the coarser grid ``tensor_stride * stride``; a cell is
    occupied when it contains at least one input point.  Cells keep the
    order of their first input, and the keys
    (:func:`~repro.sparse.coords.pack_coords` of the outputs) come from
    the one packing that deduplicates them.
    """
    step = np.asarray(stride, dtype=np.int64) * np.asarray(
        tensor_stride, dtype=np.int64
    )
    out = coords.copy()
    spatial = out[:, 1:].astype(np.int64)
    spatial = np.floor_divide(spatial, step) * step
    out[:, 1:] = spatial.astype(np.int32)
    keys = pack_coords(out)
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return out[first], keys[first]


def build_kernel_map(
    in_coords: np.ndarray,
    kernel_size: KernelSize,
    stride: "int | Tuple[int, ...]" = 1,
    tensor_stride: "int | Tuple[int, ...]" = 1,
) -> KernelMap:
    """Construct the kernel map for a convolution layer.

    Args:
        in_coords: ``(N_in, 1 + D)`` int32 input coordinates.
        kernel_size: scalar or per-dimension ``K``.
        stride: convolution stride ``s``; ``1`` selects submanifold
            convolution (outputs == inputs).
        tensor_stride: the input tensor's stride ``t``; kernel offsets are
            dilated by ``t`` so convolutions on downsampled tensors reach
            their true spatial neighbours.

    Each input and output coordinate is packed once.  The query key of
    output ``c`` at dilated offset ``d`` is ``pack(c) + sum_i d_i << 16 *
    (D - i)``, which equals ``pack(c + d)`` because packing is additive
    within a 16-bit field.  That identity needs every ``c + d`` inside the
    packable range ``[-32768, 32767]``, so the range is checked once from
    the per-dimension output and offset extremes; a query outside it raises
    the ``ShapeError`` :func:`~repro.sparse.coords.pack_coords` gives
    rather than carrying into the next field (another batch's keys).

    A submanifold map (stride 1, every ``K`` odd) is built from half the
    probes.  Its offsets are symmetric, ``offsets[V - 1 - v] ==
    -offsets[v]``, so column ``V - 1 - v`` is the inverse of column ``v``:
    ``nbmap[j, v] == i`` exactly when ``nbmap[i, V - 1 - v] == j``.  The
    table is probed for ``v < V // 2``; the centre column is the identity
    and the mirrored half is scattered from the probed one.  Their queries
    are charged from the table layout
    (:meth:`~repro.sparse.hashmap.CoordinateHashMap.charge_known`), so the
    statistics equal probing every offset.
    """
    in_coords = np.asarray(in_coords, dtype=np.int32)
    ndim = in_coords.shape[1] - 1
    sizes = normalize_kernel_size(kernel_size, ndim)
    stride_t = normalize_kernel_size(stride, ndim)  # same validation rules
    tstride = normalize_kernel_size(tensor_stride, ndim)
    offsets = kernel_offsets(sizes, ndim)

    in_keys = pack_coords(in_coords)
    table = CoordinateHashMap(in_keys)
    if all(s == 1 for s in stride_t):
        out_coords, out_keys = in_coords, in_keys
    else:
        out_coords, out_keys = downsample_coords(in_coords, stride_t, tstride)
    dilated = offsets.astype(np.int64) * np.asarray(tstride, dtype=np.int64)
    # Query all offsets in one vectorised batch, as a fused GPU kernel would.
    queries = pack_shifted(out_coords, out_keys, dilated)
    if out_coords is in_coords and all(k % 2 == 1 for k in sizes):
        volume, num = queries.shape
        half = volume // 2
        found = np.empty(queries.shape, dtype=np.int32)
        found[:half] = table.query(queries[:half].ravel()).reshape(half, num)
        found[half] = np.arange(num, dtype=np.int32)
        found[half + 1:] = -1
        column, row = np.nonzero(found[:half] >= 0)
        found[volume - 1 - column, found[column, row]] = row
        table.charge_known(queries[half:].ravel(), found[half:].ravel())
    else:
        found = table.query(queries.ravel()).reshape(queries.shape)
    nbmap = np.ascontiguousarray(found.T)

    key = MapKey(
        kernel_size=sizes,
        stride=stride_t,
        tensor_stride=tstride,
        transposed=False,
    )
    return KernelMap(
        nbmap=nbmap,
        offsets=offsets,
        num_inputs=len(in_coords),
        out_coords=out_coords,
        build_stats=table.stats,
        key=key,
        in_coords=in_coords,
    )
