"""Neighbour bitmasks, sorting and mask splitting (Figures 5, 6 and 10).

In the implicit GEMM dataflow every output point carries a ``K^D``-bit mask
marking which neighbours exist.  Because all threads of a warp execute in
lockstep, a warp spends a MAC slot on offset ``k`` for *all* its rows
whenever *any* row has neighbour ``k`` — absent neighbours become redundant
computation.  SpConv v2 sorts the bitmasks (as numbers) so that similar rows
share warps; TorchSparse++ additionally splits the offsets into ``s``
segments sorted independently (Figure 10), trading extra partial-sum traffic
for even less redundancy and more parallelism.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError


def split_offsets(volume: int, num_splits: int) -> List[np.ndarray]:
    """Partition offsets ``0..volume-1`` into balanced contiguous segments."""
    if num_splits < 1:
        raise ConfigError(f"num_splits must be >= 1, got {num_splits}")
    if num_splits > volume:
        raise ConfigError(
            f"cannot split {volume} offsets into {num_splits} segments"
        )
    return [seg for seg in np.array_split(np.arange(volume), num_splits)]


def compute_bitmasks(nbmap: np.ndarray, segment: Optional[np.ndarray] = None) -> np.ndarray:
    """Boolean neighbour-presence matrix ``(N_out, |segment|)``."""
    if segment is None:
        return nbmap >= 0
    return nbmap[:, segment] >= 0


def sort_bitmasks(masks: np.ndarray) -> np.ndarray:
    """Row order sorting bitmasks descending as ``|segment|``-bit numbers.

    Column 0 is the most significant bit, matching Figure 6a where the mask
    is read left to right.  The sort is stable so equal masks keep their
    original relative order (deterministic, like the device radix sort).
    """
    if masks.ndim != 2:
        raise ConfigError(f"masks must be 2-D, got shape {masks.shape}")
    # np.lexsort uses its *last* key as primary; feed columns so that
    # column 0 dominates, negated for descending order.
    keys = tuple(~masks[:, k] for k in range(masks.shape[1] - 1, -1, -1))
    if not keys:
        return np.arange(len(masks))
    return np.lexsort(keys)


@dataclasses.dataclass
class MaskReordering:
    """Computation reordering for split implicit GEMM.

    Attributes:
        segments: offset indices per split.
        orders: per split, the row permutation applied to the map (identity
            when sorting is disabled — the *unsorted* dataflow of Figure 5).
        sorted: whether bitmask sorting was applied.
        sort_key_bits: bits per sort key (for the cost model).
    """

    segments: List[np.ndarray]
    orders: List[np.ndarray]
    sorted: bool

    @property
    def num_splits(self) -> int:
        return len(self.segments)

    def reordered_submaps(self, nbmap: np.ndarray) -> List[np.ndarray]:
        """The per-split reordered output-stationary maps."""
        return [
            nbmap[order][:, segment]
            for segment, order in zip(self.segments, self.orders)
        ]

    @classmethod
    def build(
        cls, nbmap: np.ndarray, num_splits: int = 1, sort: bool = True
    ) -> "MaskReordering":
        """Compute the reordering for ``num_splits`` segments.

        ``sort=False`` with ``num_splits=1`` reproduces the unsorted implicit
        GEMM dataflow ("split 0" in the paper's Table 5 notation).
        """
        segments = split_offsets(nbmap.shape[1], num_splits)
        if sort:
            orders = [
                sort_bitmasks(compute_bitmasks(nbmap, seg)) for seg in segments
            ]
        else:
            identity = np.arange(len(nbmap))
            orders = [identity for _ in segments]
        return cls(segments=segments, orders=orders, sorted=sort)


def warp_mac_slots(masks: np.ndarray, warp_rows: int) -> Tuple[int, int]:
    """Count effective and issued MAC slots at warp granularity.

    Args:
        masks: boolean ``(N, V)`` neighbour-presence matrix, already in
            execution order.
        warp_rows: rows mapped onto one warp (4 in the paper's figures,
            32 on real hardware for a 128-thread CTA with 128x... tiling —
            the model exposes it so tile configs can set it).

    Returns:
        ``(effective, issued)`` MAC slots, in units of
        ``rows x offsets`` (multiply by ``2 * C_in * C_out`` for FLOPs).
        ``issued - effective`` is the redundant computation of Figure 5.
        All-False rows appended at the end (map padding) change neither.
    """
    if warp_rows < 1:
        raise ConfigError(f"warp_rows must be >= 1, got {warp_rows}")
    n, volume = masks.shape
    effective = int(np.count_nonzero(masks))
    full = n - n % warp_rows
    grouped = masks[:full].reshape(-1, warp_rows, volume)
    active_warps = int(np.count_nonzero(grouped.any(axis=1)))
    if full < n:  # the last, partial warp
        active_warps += int(np.count_nonzero(masks[full:].any(axis=0)))
    return effective, active_warps * warp_rows


def mac_slots(
    nbmap: np.ndarray, num_splits: int, sort: bool, warp_rows: int
) -> Tuple[int, int]:
    """``(effective, issued)`` MAC slots summed over the split segments.

    Each segment is counted on its own bitmasks gathered in execution
    order (:func:`sort_bitmasks` when ``sort``, else map order), as
    :class:`MaskReordering` would run it; no reordered map is built.
    """
    present = compute_bitmasks(nbmap)
    effective_total = 0
    issued_total = 0
    for segment in split_offsets(nbmap.shape[1], num_splits):
        masks = present[:, segment[0]:segment[-1] + 1]
        if sort:
            masks = masks[sort_bitmasks(masks)]
        effective, issued = warp_mac_slots(masks, warp_rows)
        effective_total += effective
        issued_total += issued
    return effective_total, issued_total


def redundancy_ratio(
    nbmap: np.ndarray, num_splits: int, sort: bool, warp_rows: int = 32
) -> float:
    """``issued / effective`` MAC slots for a given split/sort configuration.

    This is the quantity plotted in Figure 11 (redundant computation vs the
    number of splits).  Returns ``inf`` for an empty map.
    """
    effective, issued = mac_slots(nbmap, num_splits, sort, warp_rows)
    if effective == 0:
        return float("inf")
    return issued / effective
