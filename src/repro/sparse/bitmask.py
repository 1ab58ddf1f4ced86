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
from typing import Dict, Iterable, List, Optional, Tuple

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


def compute_bitmasks(
    nbmap: np.ndarray, segment: Optional[np.ndarray] = None
) -> np.ndarray:
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
    order: np.ndarray = np.lexsort(keys)
    return order


@dataclasses.dataclass
class MaskReordering:
    """Computation reordering for split implicit GEMM.

    Attributes:
        segments: offset indices per split.
        orders: per split, the row permutation applied to the map (identity
            when sorting is disabled — the *unsorted* dataflow of Figure 5).
        sorted: whether bitmask sorting was applied.
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
        warp_rows: rows mapped onto one warp: 4 in the paper's figures,
            up to 32 (one row per lane) in the tile configs, which set it.

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


#: Bits per packed mask word.
WORD_BITS = 64


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Boolean ``(N, C)`` rows, ``C`` a multiple of 8, packed into
    ``(N, ceil(C / 64))`` ``uint64`` words.

    Column ``k`` is bit ``63 - k % 64`` of word ``k // 64``, so column 0
    is the most significant bit and comparing rows word by word compares
    them as numbers (the :func:`sort_bitmasks` order).
    """
    rows, columns = bits.shape
    packed = np.zeros((rows, -(-columns // WORD_BITS) * 8), dtype=np.uint8)
    packed[:, :columns // 8] = np.packbits(bits).reshape(rows, columns // 8)
    return packed.view(">u8").astype(np.uint64)


def _popcount(words: np.ndarray) -> int:
    """Set bits in ``words`` (``np.bitwise_count`` needs numpy 2)."""
    return int(np.count_nonzero(np.unpackbits(words.view(np.uint8))))


def mac_slot_counts(
    nbmap: np.ndarray, num_splits: int, sort: bool, warp_widths: Iterable[int]
) -> Tuple[int, Dict[int, int]]:
    """Effective MAC slots and issued slots per warp width, in one pass.

    The result is ``(effective, {warp_rows: issued})``, summed over the
    split segments, with the units of :func:`warp_mac_slots`.  Each row's
    mask is packed once into 64-bit words (:func:`_pack_rows`); a
    segment's masks are those words with the segment's bits kept.  With
    ``sort``, the masks are sorted descending *as values*: rows with
    equal masks are interchangeable, so the stable row order of
    :class:`MaskReordering` and any other order of the same sorted
    sequence give the same counts.  A segment over 64 offsets spans
    several words, ordered by :func:`numpy.lexsort`.  A warp of
    ``w`` rows issues ``w`` slots per bit of the OR of its masks; the
    short last warp counts as if padded with empty rows.
    """
    widths = sorted(set(warp_widths))
    if not widths or widths[0] < 1:
        raise ConfigError(f"warp widths must be >= 1, got {widths}")
    rows, volume = nbmap.shape
    present = np.zeros((rows, -(-volume // 8) * 8), dtype=bool)
    np.greater_equal(nbmap, 0, out=present[:, :volume])
    effective = int(np.count_nonzero(present))
    packed = _pack_rows(present)
    issued = dict.fromkeys(widths, 0)
    for segment in split_offsets(volume, num_splits):
        in_segment = np.zeros((1, present.shape[1]), dtype=bool)
        in_segment[0, segment] = True
        lo, hi = segment[0] // WORD_BITS, segment[-1] // WORD_BITS + 1
        masks: np.ndarray = packed[:, lo:hi] & _pack_rows(in_segment)[0, lo:hi]
        if sort and hi - lo == 1:
            masks = np.sort(masks, axis=0)[::-1]
        elif sort:
            masks = masks[np.lexsort(masks.T[::-1])[::-1]]
        for width in widths:
            warps = np.bitwise_or.reduceat(
                masks, np.arange(0, rows, width), axis=0
            )
            issued[width] += width * _popcount(warps)
    return effective, issued


def mac_slots(
    nbmap: np.ndarray, num_splits: int, sort: bool, warp_rows: int
) -> Tuple[int, int]:
    """``(effective, issued)`` MAC slots summed over the split segments,
    as :class:`MaskReordering` would run them.

    Counted by :func:`mac_slot_counts` on packed mask words sorted as
    values: :class:`MaskReordering`'s stable order only permutes rows
    with equal masks, which no warp's OR can tell apart.
    """
    effective, issued = mac_slot_counts(nbmap, num_splits, sort, (warp_rows,))
    return effective, issued[warp_rows]


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
