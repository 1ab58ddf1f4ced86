"""Point cloud voxelization (Section 2 of the paper).

Raw LiDAR points are quantized by ``p = floor(p_raw / voxel_size)`` and
deduplicated so at most one point survives per voxel — exactly the
CenterPoint preprocessing the paper describes (0.1 m grid on Waymo).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ShapeError
from repro.sparse.coords import group_rows, pack_coords

VoxelSize = Union[float, Sequence[float]]


def sparse_quantize(
    points: np.ndarray,
    voxel_size: VoxelSize,
    features: Optional[np.ndarray] = None,
    batch_index: int = 0,
    reduce: str = "first",
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Voxelize raw points into integer coordinates.

    Args:
        points: ``(N, D)`` float array of raw coordinates (metres).
        voxel_size: scalar or per-dimension voxel edge length.
        features: optional ``(N, C)`` per-point features to reduce per voxel.
        batch_index: value written into the batch column of the output.
        reduce: ``"first"`` keeps the first point per voxel (hash-insert
            semantics of GPU libraries); ``"mean"`` averages features.

    Returns:
        ``(coords, feats)`` where ``coords`` is ``(M, 1 + D)`` int32 with the
        batch column prepended and ``feats`` is ``(M, C)`` or ``None``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeError(f"points must be (N, D), got {points.shape}")
    if reduce not in ("first", "mean"):
        raise ValueError(f"reduce must be 'first' or 'mean', got {reduce!r}")
    voxel = np.broadcast_to(
        np.asarray(voxel_size, dtype=np.float64), (points.shape[1],)
    )
    if np.any(voxel <= 0):
        raise ValueError(f"voxel sizes must be positive, got {voxel}")

    quantized = np.floor(points / voxel).astype(np.int32)
    coords = np.concatenate(
        [
            np.full((len(points), 1), batch_index, dtype=np.int32),
            quantized,
        ],
        axis=1,
    )
    first, inverse = group_rows(pack_coords(coords))
    unique = coords[first]
    if features is None:
        return unique, None

    features = np.asarray(features)
    if len(features) != len(points):
        raise ShapeError(
            f"features length {len(features)} != points length {len(points)}"
        )
    if reduce == "first":
        reduced = features[first]
    else:
        reduced = np.zeros((len(unique), features.shape[1]), dtype=np.float64)
        np.add.at(reduced, inverse, features.astype(np.float64))
        counts = np.bincount(inverse, minlength=len(unique)).reshape(-1, 1)
        reduced = (reduced / counts).astype(features.dtype)
    return unique, reduced
