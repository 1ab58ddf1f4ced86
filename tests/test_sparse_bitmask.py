"""Tests for bitmask sorting, splitting and redundancy accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.implicit_gemm as implicit_gemm
from repro.data.datasets import make_sample
from repro.errors import ConfigError
from repro.kernels.base import KernelSchedule
from repro.models.registry import get_workload
from repro.sparse.bitmask import (
    MaskReordering,
    compute_bitmasks,
    mac_slot_counts,
    mac_slots,
    redundancy_ratio,
    sort_bitmasks,
    split_offsets,
    warp_mac_slots,
)
from repro.sparse.kmap import build_kernel_map
from repro.sparse.tensor import batch_sparse_tensors
from repro.tune import SparseAutotuner, TrainingTuner


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


def bool_matrix_mac_slots(nbmap, num_splits, sort, warp_rows):
    """The bool-matrix count the packed one replaced: each segment's masks
    gathered in :func:`sort_bitmasks` order, counted warp by warp."""
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


EQUIVALENCE_WIDTHS = (1, 2, 4, 16, 32)


def assert_packed_matches_bool_matrix(nbmap, widths=EQUIVALENCE_WIDTHS):
    for splits in range(1, min(4, nbmap.shape[1]) + 1):
        for sort in (False, True):
            effective, issued = mac_slot_counts(nbmap, splits, sort, widths)
            for width in widths:
                assert (effective, issued[width]) == bool_matrix_mac_slots(
                    nbmap, splits, sort, width
                ), (nbmap.shape, splits, sort, width)


def record_slot_passes(monkeypatch):
    """Record every slot pass the implicit-GEMM cost model runs as
    ``(nbmap, splits, sort, widths, result)``; the map is kept alive, so
    ``id(nbmap)`` names it for the whole test."""
    passes = []

    def recording(nbmap, num_splits, sort, warp_widths):
        widths = tuple(sorted(warp_widths))
        result = mac_slot_counts(nbmap, num_splits, sort, widths)
        passes.append((nbmap, num_splits, sort, widths, result))
        return result

    monkeypatch.setattr(implicit_gemm, "mac_slot_counts", recording)
    return passes


OFFLINE_INFER_PRESETS = ("SK-M-0.5", "SK-M-1.0", "NS-M-1f", "NS-M-3f",
                         "NS-C-10f", "WM-C-1f", "WM-C-3f")


def held_out_scene(workload, batch=1):
    """The benchmark's held-out tuning scene of ``workload`` at scale 0.05."""
    scene = make_sample(
        workload.dataset, frames=workload.frames, seed=9_000_000, scale=0.05
    )
    return scene if batch == 1 else batch_sparse_tensors([scene] * batch)


@pytest.fixture(scope="module")
def offline_infer_passes():
    """Per preset, the slot passes of one ``SparseAutotuner.tune`` on the
    held-out scene, as the offline-infer benchmark set-up runs it."""
    per_preset = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for preset in OFFLINE_INFER_PRESETS:
            workload = get_workload(preset)
            model = workload.build_model()
            model.eval()
            passes = record_slot_passes(monkeypatch)
            SparseAutotuner().tune(
                model, [held_out_scene(workload)], "a100", "fp16"
            )
            per_preset[preset] = passes
    return per_preset


def distinct_maps(passes):
    return list({id(nbmap): nbmap for nbmap, *_ in passes}.values())


class TestPackedSlotCounts:
    @pytest.mark.parametrize("rows", [0, 1, 3, 31, 32, 100])
    @pytest.mark.parametrize("volume", [1, 8, 27, 64, 125])
    def test_matches_bool_matrix(self, rows, volume):
        # rows=0, rows < w and rows not a multiple of w; V=64 fills one
        # word exactly and V=125 spans two (an unsplit 5^3 kernel).
        rng = np.random.default_rng(rows * 1000 + volume)
        nbmap = np.where(
            rng.random((rows, volume)) < 0.3,
            rng.integers(0, 64, (rows, volume)), -1,
        ).astype(np.int32)
        assert_packed_matches_bool_matrix(nbmap)

    @pytest.mark.parametrize("volume", [27, 125])
    def test_repeated_masks_straddling_warps(self, volume):
        # Few distinct masks, so long runs of equal masks cross warp
        # boundaries; an all-absent column and an all-present column.
        rng = np.random.default_rng(volume)
        patterns = rng.random((5, volume)) < 0.5
        patterns[:, 0] = False
        patterns[:, -1] = True
        masks = patterns[rng.integers(0, 5, 203)]
        nbmap = np.where(masks, 7, -1).astype(np.int32)
        assert_packed_matches_bool_matrix(nbmap)

    def test_offline_infer_maps(self, offline_infer_passes):
        for passes in offline_infer_passes.values():
            for nbmap in distinct_maps(passes):
                assert_packed_matches_bool_matrix(nbmap)

    def test_invalid_widths(self):
        nbmap = np.zeros((4, 27), dtype=np.int32)
        with pytest.raises(ConfigError):
            mac_slot_counts(nbmap, 1, True, (0, 32))
        with pytest.raises(ConfigError):
            mac_slot_counts(nbmap, 1, True, ())


class TestOneSlotPassPerTriple:
    def test_sparse_autotuner(self, offline_infer_passes):
        calls = triples = 0
        for passes in offline_infer_passes.values():
            keys = [(id(nbmap), splits, sort) for nbmap, splits, sort, *_ in
                    passes]
            assert len(keys) == len(set(keys))
            calls += len(keys)
            triples += len(set(keys))
        assert calls == triples > 0

    def test_training_tuner(self, monkeypatch):
        workload = get_workload("SK-M-0.5")
        model = workload.build_model()
        model.train()
        passes = record_slot_passes(monkeypatch)
        TrainingTuner().tune(
            model, [held_out_scene(workload, batch=2)], "a100", "fp16"
        )
        keys = [(id(nbmap), splits, sort) for nbmap, splits, sort, *_ in passes]
        assert len(keys) == len(set(keys)) > 0
        # The counts the trace reads are the bool-matrix counts.
        for nbmap, splits, sort, widths, (effective, issued) in passes:
            for width in widths:
                assert (effective, issued[width]) == bool_matrix_mac_slots(
                    nbmap, splits, sort, width
                )

    def test_other_warp_width_extends_the_cached_counts(self, monkeypatch):
        rng = np.random.default_rng(3)
        coords = np.unique(np.concatenate(
            [np.zeros((300, 1), np.int32),
             rng.integers(0, 12, (300, 3)).astype(np.int32)], axis=1,
        ), axis=0)
        kmap = build_kernel_map(coords, 3)
        passes = record_slot_passes(monkeypatch)
        for warp_rows in (32, 16, 8, 32, 8):
            implicit_gemm.implicit_gemm_trace(
                kmap, 16, 16, KernelSchedule(warp_rows=warp_rows)
            )
        # The first pass counts the tile widths; warp 8 adds itself once.
        assert [widths for _, _, _, widths, _ in passes] == [
            (16, 32), (8, 16, 32)
        ]
        effective, issued = kmap.analysis_cache[("ig_slots", 1, True)]
        for width in (8, 16, 32):
            assert (effective, issued[width]) == bool_matrix_mac_slots(
                kmap.nbmap, 1, True, width
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
