"""Coordinate packing and uniqueness.

Coordinates are ``(N, 1 + D)`` int32 arrays whose first column is the batch
index and remaining ``D`` columns are integer voxel coordinates.  For hashing
and uniqueness we pack each row into a single int64 key: 16 bits of batch and
16 bits per spatial dimension (biased to be non-negative), which covers every
workload in the paper (LiDAR grids are at most a few thousand voxels across).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError

#: Bits allocated per packed field.
_FIELD_BITS = 16
#: Bias added to spatial coordinates so negatives pack cleanly.
_BIAS = 1 << (_FIELD_BITS - 1)
_FIELD_MASK = (1 << _FIELD_BITS) - 1


def _check_coords(coords: np.ndarray) -> np.ndarray:
    if coords.ndim != 2 or coords.shape[1] < 2:
        raise ShapeError(
            f"coords must be (N, 1 + D) with D >= 1, got shape {coords.shape}"
        )
    return coords


def _check_spatial_range(lo: int, hi: int) -> None:
    if lo < -_BIAS or hi >= _BIAS:
        raise ShapeError(
            "spatial coordinates out of packable range "
            f"[{-_BIAS}, {_BIAS - 1}]: min={lo}, max={hi}"
        )


def pack_coords(coords: np.ndarray) -> np.ndarray:
    """Pack ``(N, 1 + D)`` integer coordinates into int64 keys.

    The packing is injective for coordinates in ``[-32768, 32767]`` and batch
    indices in ``[0, 65535]``; values outside this range raise ``ShapeError``.
    """
    coords = _check_coords(np.asarray(coords))
    num_fields = coords.shape[1]
    if num_fields * _FIELD_BITS > 64:
        raise ShapeError(
            f"cannot pack {num_fields} fields of {_FIELD_BITS} bits into int64"
        )
    spatial = coords[:, 1:]
    if spatial.size:
        _check_spatial_range(spatial.min(), spatial.max())
    batch = coords[:, 0]
    if batch.size and (batch.min() < 0 or batch.max() > _FIELD_MASK):
        raise ShapeError("batch index out of packable range [0, 65535]")

    keys = batch.astype(np.int64)
    for dim in range(1, num_fields):
        keys = (keys << _FIELD_BITS) | (
            (coords[:, dim].astype(np.int64) + _BIAS) & _FIELD_MASK
        )
    return keys


def pack_shifted(
    coords: np.ndarray, keys: np.ndarray, deltas: np.ndarray
) -> np.ndarray:
    """Keys of ``coords`` shifted by every spatial offset in ``deltas``.

    Returns ``(V, N)`` int64 with row ``v`` equal to
    ``pack_coords(coords + [0, *deltas[v]])``, given ``keys ==
    pack_coords(coords)``.  Packing is additive within a field: when every
    shifted coordinate is packable, ``pack(c + d) == pack(c) +
    sum_i d_i << 16 * (D - i)``, so all ``V * N`` keys are one broadcast add.
    The precondition is checked in O(N + V) from the per-dimension extremes
    of ``coords`` and ``deltas``; a shifted coordinate out of range raises
    the same ``ShapeError`` as :func:`pack_coords` on the shifted rows, and
    never carries into the neighbouring field.
    """
    deltas = np.asarray(deltas, dtype=np.int64)
    spatial = coords[:, 1:]
    if spatial.size and deltas.size:
        _check_spatial_range(
            (spatial.min(axis=0) + deltas.min(axis=0)).min(),
            (spatial.max(axis=0) + deltas.max(axis=0)).max(),
        )
    shifts = _FIELD_BITS * np.arange(deltas.shape[1] - 1, -1, -1)
    steps = (deltas << shifts).sum(axis=1)
    shifted: np.ndarray = steps[:, np.newaxis] + np.asarray(keys, dtype=np.int64)
    return shifted


def unpack_coords(keys: np.ndarray, num_spatial_dims: int) -> np.ndarray:
    """Inverse of :func:`pack_coords`."""
    keys = np.asarray(keys, dtype=np.int64)
    out = np.empty((len(keys), 1 + num_spatial_dims), dtype=np.int32)
    remaining = keys.copy()
    for dim in range(num_spatial_dims, 0, -1):
        out[:, dim] = (remaining & _FIELD_MASK).astype(np.int32) - _BIAS
        remaining >>= _FIELD_BITS
    out[:, 0] = remaining.astype(np.int32)
    return out


def group_rows(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group rows by key: ``(first, group)``.

    ``first`` holds the row of each distinct key's first occurrence,
    ascending, and ``group[i]`` is the position in ``first`` of row ``i``'s
    key, so ``keys[first][group] == keys``.  The same answer as
    ``np.unique(keys, return_index=True, return_inverse=True)`` reordered by
    first occurrence, from one default (unstable) sort: a key's first
    occurrence is the least row of its sorted run, which
    ``np.minimum.reduceat`` finds in whatever order the sort left the run.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys)
    ranked = keys.take(order)
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    run_start = np.flatnonzero(starts)
    run_first = np.minimum.reduceat(order, run_start)
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[run_first] = True
    first = np.flatnonzero(is_first)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[first] = np.arange(len(first))
    run_length = np.diff(run_start, append=len(keys))
    group = np.empty(len(keys), dtype=np.intp)
    group[order] = np.repeat(rank.take(run_first), run_length)
    return first, group


def unique_coords(coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicate coordinate rows.

    Returns ``(unique, inverse)`` where ``unique`` preserves first-occurrence
    order (matching the behaviour of GPU hash-based deduplication, which keeps
    whichever point wins the hash insert — first occurrence here for
    determinism) and ``inverse`` maps each original row to its unique row.
    """
    coords = _check_coords(np.asarray(coords))
    first, inverse = group_rows(pack_coords(coords))
    return coords[first], inverse
