"""Tests for bitmask sorting, splitting and redundancy accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sparse.bitmask import (
    MaskReordering,
    compute_bitmasks,
    mac_slots,
    redundancy_ratio,
    sort_bitmasks,
    split_offsets,
    warp_mac_slots,
)


def figure5_nbmap():
    """The 8x9 output-stationary map from Figure 5 / Figure 6a.

    Figure 6a lists the neighbour bitmask of every output; entries here use
    arbitrary distinct input indices (values don't matter for masks).
    """
    bits = [
        [0, 0, 0, 0, 1, 1, 0, 0, 1],
        [0, 0, 0, 1, 1, 1, 0, 1, 0],
        [0, 0, 0, 1, 1, 0, 1, 0, 0],
        [1, 1, 1, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 1, 0, 0],
        [1, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 0, 0, 0],
    ]
    nbmap = np.full((8, 9), -1, dtype=np.int32)
    counter = 0
    for i in range(8):
        for j in range(9):
            if bits[i][j]:
                nbmap[i, j] = counter % 8
                counter += 1
    return nbmap


class TestSplitOffsets:
    def test_single_split_is_everything(self):
        (seg,) = split_offsets(27, 1)
        assert np.array_equal(seg, np.arange(27))

    def test_balanced_partition(self):
        segs = split_offsets(27, 4)
        sizes = [len(s) for s in segs]
        assert sum(sizes) == 27
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_and_ordered(self):
        segs = split_offsets(9, 3)
        assert np.array_equal(np.concatenate(segs), np.arange(9))

    def test_invalid_splits(self):
        with pytest.raises(ConfigError):
            split_offsets(9, 0)
        with pytest.raises(ConfigError):
            split_offsets(3, 4)


class TestSortBitmasks:
    def test_descending_numeric_order(self):
        masks = np.array(
            [[0, 1], [1, 0], [1, 1], [0, 0]], dtype=bool
        )
        order = sort_bitmasks(masks)
        # Values: 01=1, 10=2, 11=3, 00=0 -> descending: 11, 10, 01, 00
        assert np.array_equal(order, [2, 1, 0, 3])

    def test_stable_for_equal_masks(self):
        masks = np.array([[1, 0], [1, 0], [0, 1]], dtype=bool)
        order = sort_bitmasks(masks)
        assert list(order) == [0, 1, 2]

    def test_figure6_ranking(self):
        # Figure 6a ranks outputs by bitmask value:
        # x4 (17) 1st, x5 (20) 2nd, x0 (25) 3rd, x2 (52) 4th, x1 (58) 5th,
        # x7 (80) 6th, x6 (272) 7th, x3 (464) 8th -- descending order is
        # the reverse.
        masks = compute_bitmasks(figure5_nbmap())
        order = sort_bitmasks(masks)
        assert list(order) == [3, 6, 7, 1, 2, 0, 5, 4]

    def test_wide_masks_beyond_64_bits(self):
        rng = np.random.default_rng(0)
        masks = rng.random((50, 125)) < 0.3  # K=5, D=3 exceeds int64 packing
        order = sort_bitmasks(masks)
        values = [
            int("".join("1" if b else "0" for b in masks[i]), 2) for i in order
        ]
        assert values == sorted(values, reverse=True)


class TestWarpMacSlots:
    def test_figure5_unsorted_redundancy(self):
        # Figure 5: with 4-thread warps and no sorting, 22 effective MACs
        # and 34 redundant -> 56 issued slots.
        masks = compute_bitmasks(figure5_nbmap())
        effective, issued = warp_mac_slots(masks, warp_rows=4)
        assert effective == 22
        assert issued - effective == 34

    def test_figure6_sorted_redundancy(self):
        # Figure 6b: sorting reduces redundant computation to 26 MACs.
        nbmap = figure5_nbmap()
        masks = compute_bitmasks(nbmap)
        order = sort_bitmasks(masks)
        effective, issued = warp_mac_slots(masks[order], warp_rows=4)
        assert effective == 22
        assert issued - effective == 26

    def test_warp_of_one_has_no_redundancy(self):
        masks = compute_bitmasks(figure5_nbmap())
        effective, issued = warp_mac_slots(masks, warp_rows=1)
        assert effective == issued == 22

    def test_ragged_tail_padded(self):
        masks = np.array([[1], [1], [1]], dtype=bool)
        effective, issued = warp_mac_slots(masks, warp_rows=2)
        assert effective == 3
        assert issued == 4  # second warp half empty

    def test_invalid_warp_rows(self):
        with pytest.raises(ConfigError):
            warp_mac_slots(np.ones((2, 2), dtype=bool), warp_rows=0)


class TestMaskReordering:
    def test_figure10_three_splits_reduce_redundancy(self):
        # Figure 10: splitting the Figure 6 mask into 3 parts reduces
        # redundant computation from 26 to 22 MAC slots.
        nbmap = figure5_nbmap()
        reorder = MaskReordering.build(nbmap, num_splits=3, sort=True)
        effective = issued = 0
        for submap in reorder.reordered_submaps(nbmap):
            e, i = warp_mac_slots(submap >= 0, warp_rows=4)
            effective += e
            issued += i
        assert effective == 22
        assert issued - effective == 22

    def test_unsorted_orders_are_identity(self):
        reorder = MaskReordering.build(figure5_nbmap(), num_splits=1, sort=False)
        assert np.array_equal(reorder.orders[0], np.arange(8))

    def test_submaps_cover_all_pairs(self):
        nbmap = figure5_nbmap()
        for splits in (1, 2, 3):
            reorder = MaskReordering.build(nbmap, num_splits=splits)
            total = sum(
                np.count_nonzero(s >= 0)
                for s in reorder.reordered_submaps(nbmap)
            )
            assert total == np.count_nonzero(nbmap >= 0)


def reference_mac_slots(nbmap, num_splits, sort, warp_rows, pad_rows=0):
    """Warp-by-warp count over the reordered submaps, with ``pad_rows``
    all-absent rows appended (a map padded to the tile size)."""
    reorder = MaskReordering.build(nbmap, num_splits=num_splits, sort=sort)
    effective = issued = 0
    for submap in reorder.reordered_submaps(nbmap):
        masks = np.concatenate(
            [submap >= 0, np.zeros((pad_rows, submap.shape[1]), bool)]
        )
        effective += int(masks.sum())
        for start in range(0, len(masks), warp_rows):
            issued += warp_rows * int(
                masks[start:start + warp_rows].any(axis=0).sum()
            )
    return effective, issued


class TestMacSlots:
    @pytest.mark.parametrize("rows", [0, 1, 37, 96])
    @pytest.mark.parametrize("splits,sort", [(1, False), (1, True), (3, True),
                                             (4, False), (27, True)])
    @pytest.mark.parametrize("warp_rows", [1, 4, 32])
    def test_matches_padded_reordered_submaps(self, rows, splits, sort,
                                              warp_rows):
        rng = np.random.default_rng(rows * 100 + splits)
        nbmap = np.where(
            rng.random((rows, 27)) < 0.3, rng.integers(0, 64, (rows, 27)), -1
        ).astype(np.int32)
        got = mac_slots(nbmap, splits, sort, warp_rows)
        for pad_rows in (0, 5, 128):
            assert got == reference_mac_slots(
                nbmap, splits, sort, warp_rows, pad_rows
            )


class TestRedundancyRatio:
    def test_more_splits_never_increase_redundancy(self):
        rng = np.random.default_rng(7)
        nbmap = np.where(
            rng.random((256, 27)) < 0.25, rng.integers(0, 256, (256, 27)), -1
        ).astype(np.int32)
        ratios = [
            redundancy_ratio(nbmap, s, sort=True, warp_rows=8)
            for s in (1, 3, 9, 27)
        ]
        assert all(r >= 1.0 for r in ratios)
        # Monotone non-increasing within tolerance (sorting is per split).
        assert ratios[-1] <= ratios[0] + 1e-9

    def test_sorting_reduces_redundancy(self):
        rng = np.random.default_rng(11)
        nbmap = np.where(
            rng.random((512, 27)) < 0.3, rng.integers(0, 512, (512, 27)), -1
        ).astype(np.int32)
        unsorted = redundancy_ratio(nbmap, 1, sort=False, warp_rows=32)
        sorted_ = redundancy_ratio(nbmap, 1, sort=True, warp_rows=32)
        assert sorted_ <= unsorted

    def test_empty_map_is_inf(self):
        nbmap = np.full((4, 27), -1, dtype=np.int32)
        assert redundancy_ratio(nbmap, 1, sort=True) == float("inf")

    @given(st.integers(1, 27), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_property_ratio_at_least_one(self, splits, sort):
        rng = np.random.default_rng(splits)
        nbmap = np.where(
            rng.random((64, 27)) < 0.4, rng.integers(0, 64, (64, 27)), -1
        ).astype(np.int32)
        assert redundancy_ratio(nbmap, splits, sort=sort, warp_rows=4) >= 1.0
