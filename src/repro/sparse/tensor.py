"""The user-facing :class:`SparseTensor` and its shared kernel-map cache."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import DTypeLike

from repro.errors import ShapeError
from repro.sparse.kmap import KernelMap, TableSlot
from repro.utils.validation import check_2d, check_same_length

CacheKey = Tuple  # (tensor_stride, kernel_size, stride, transposed)


class MapCache:
    """Kernel maps shared across the layers of one network execution.

    Real libraries (TorchSparse, SpConv) key their map cache by
    ``(tensor_stride, kernel_size, stride)``: within a single forward pass a
    tensor stride uniquely identifies a coordinate system, so layers with the
    same key reuse maps.  This reuse is precisely what defines the
    autotuner's layer *groups* (Section 4.2) and why decoder layers are
    cheaper than downsampling layers (Figure 18).

    ``table_slot`` keeps the hash table of the last coordinate array a map
    was built on, for the next build on the same array.
    """

    def __init__(self) -> None:
        self._maps: Dict[CacheKey, KernelMap] = {}
        self.table_slot = TableSlot()
        self.hits = 0
        self.misses = 0

    def get(self, key: CacheKey) -> Optional[KernelMap]:
        found = self._maps.get(key)
        if found is not None:
            self.hits += 1
        return found

    def put(self, key: CacheKey, kmap: KernelMap) -> KernelMap:
        self.misses += 1
        self._maps[key] = kmap
        return kmap

    def __len__(self) -> int:
        return len(self._maps)

    def clear(self) -> None:
        self._maps.clear()
        self.table_slot = TableSlot()
        self.hits = 0
        self.misses = 0


class SparseTensor:
    """A batched sparse tensor: integer coordinates plus dense features.

    Attributes:
        coords: ``(N, 1 + D)`` int32; column 0 is the batch index.
        feats: ``(N, C)`` floating-point features.
        stride: the tensor stride ``t`` (per spatial dimension); coordinates
            are multiples of ``t`` after downsampling layers.
        cache: the :class:`MapCache` shared along the network.
    """

    def __init__(
        self,
        coords: np.ndarray,
        feats: np.ndarray,
        stride: "int | Tuple[int, ...]" = 1,
        cache: Optional[MapCache] = None,
    ) -> None:
        coords = np.asarray(coords, dtype=np.int32)
        feats = np.asarray(feats)
        check_2d(coords, "coords")
        check_2d(feats, "feats")
        check_same_length(coords, feats, "coords", "feats")
        if not np.issubdtype(feats.dtype, np.floating):
            raise ShapeError(f"feats must be floating point, got {feats.dtype}")
        self.coords = coords
        self.feats = feats
        ndim = coords.shape[1] - 1
        if isinstance(stride, int):
            stride = (stride,) * ndim
        else:
            stride = tuple(int(s) for s in stride)
            if len(stride) != ndim:
                raise ShapeError(
                    f"stride has {len(stride)} entries for {ndim} dimensions"
                )
        self.stride: Tuple[int, ...] = stride
        self.cache = cache if cache is not None else MapCache()

    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        return self.coords.shape[0]

    @property
    def num_channels(self) -> int:
        return self.feats.shape[1]

    @property
    def ndim(self) -> int:
        """Number of spatial dimensions D."""
        return self.coords.shape[1] - 1

    @property
    def batch_size(self) -> int:
        if self.num_points == 0:
            return 0
        return int(self.coords[:, 0].max()) + 1

    def with_feats(self, feats: np.ndarray) -> "SparseTensor":
        """Same coordinates and cache, new features (cheap view)."""
        return SparseTensor(self.coords, feats, stride=self.stride, cache=self.cache)

    def dense(self, shape: Optional[Tuple[int, ...]] = None) -> np.ndarray:
        """Materialise as a dense array ``(B, *spatial, C)`` (testing aid)."""
        if self.num_points == 0:
            raise ShapeError("cannot densify an empty sparse tensor")
        spatial = self.coords[:, 1:]
        mins = spatial.min(axis=0)
        if shape is None:
            extent = spatial.max(axis=0) - mins + 1
        else:
            extent = np.asarray(shape, dtype=np.int64)
        dense = np.zeros(
            (self.batch_size, *extent.tolist(), self.num_channels),
            dtype=self.feats.dtype,
        )
        index = (self.coords[:, 0],) + tuple(
            (spatial[:, d] - mins[d]) for d in range(self.ndim)
        )
        dense[index] = self.feats
        return dense

    def __repr__(self) -> str:
        return (
            f"SparseTensor(points={self.num_points}, channels="
            f"{self.num_channels}, stride={self.stride})"
        )


def shape_only_feats(
    num_points: int, channels: int, dtype: DTypeLike
) -> np.ndarray:
    """Zero features of shape ``(num_points, channels)`` with no storage.

    A read-only, zero-strided view: it carries ``shape``, ``dtype`` and
    ``size`` for simulate-only execution, whose traces depend on shapes
    alone, while allocating nothing that scales with ``N x C``.
    """
    return np.broadcast_to(np.zeros((), dtype=dtype), (num_points, channels))


def batch_sparse_tensors(tensors: "list[SparseTensor]") -> SparseTensor:
    """Concatenate single-sample tensors into one batch.

    Each input must have batch column 0; sample ``i`` is assigned batch
    index ``i`` in the result.
    """
    if not tensors:
        raise ShapeError("cannot batch an empty list of tensors")
    coords: List[np.ndarray] = []
    feats: List[np.ndarray] = []
    for i, tensor in enumerate(tensors):
        if tensor.stride != tensors[0].stride:
            raise ShapeError("all tensors in a batch must share a stride")
        c = tensor.coords.copy()
        c[:, 0] = i
        coords.append(c)
        feats.append(tensor.feats)
    return SparseTensor(
        np.concatenate(coords, axis=0),
        np.concatenate(feats, axis=0),
        stride=tensors[0].stride,
    )
