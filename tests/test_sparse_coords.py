"""Tests for coordinate packing and uniqueness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.sparse.coords import (
    group_rows,
    pack_coords,
    unique_coords,
    unpack_coords,
)


def coords_array(rows, dims=3, lo=-5000, hi=5000, seed=0):
    rng = np.random.default_rng(seed)
    spatial = rng.integers(lo, hi, size=(rows, dims))
    batch = rng.integers(0, 4, size=(rows, 1))
    return np.concatenate([batch, spatial], axis=1).astype(np.int32)


class TestPackCoords:
    def test_roundtrip(self):
        coords = coords_array(100)
        keys = pack_coords(coords)
        assert np.array_equal(unpack_coords(keys, 3), coords)

    def test_injective_on_distinct_rows(self):
        coords = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [1, 1, 2, 3]], dtype=np.int32)
        keys = pack_coords(coords)
        assert len(np.unique(keys)) == 3

    def test_negative_coordinates(self):
        coords = np.array([[0, -100, -200, -300]], dtype=np.int32)
        assert np.array_equal(unpack_coords(pack_coords(coords), 3), coords)

    def test_out_of_range_raises(self):
        coords = np.array([[0, 40000, 0, 0]], dtype=np.int32)
        with pytest.raises(ShapeError):
            pack_coords(coords)

    def test_negative_batch_raises(self):
        coords = np.array([[-1, 0, 0, 0]], dtype=np.int32)
        with pytest.raises(ShapeError):
            pack_coords(coords)

    def test_1d_input_raises(self):
        with pytest.raises(ShapeError):
            pack_coords(np.array([1, 2, 3]))

    def test_2d_coordinates_supported(self):
        coords = np.array([[0, 5, -7], [1, 3, 2]], dtype=np.int32)
        assert np.array_equal(unpack_coords(pack_coords(coords), 2), coords)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(-3000, 3000),
                st.integers(-3000, 3000),
                st.integers(-3000, 3000),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip_and_injectivity(self, rows):
        coords = np.array(rows, dtype=np.int32)
        keys = pack_coords(coords)
        assert np.array_equal(unpack_coords(keys, 3), coords)
        unique_rows = len({tuple(r) for r in rows})
        assert len(np.unique(keys)) == unique_rows


class TestUniqueCoords:
    def test_removes_duplicates(self):
        coords = np.array(
            [[0, 1, 1, 1], [0, 2, 2, 2], [0, 1, 1, 1]], dtype=np.int32
        )
        unique, inverse = unique_coords(coords)
        assert len(unique) == 2
        assert np.array_equal(unique[inverse], coords)

    def test_preserves_first_occurrence_order(self):
        coords = np.array(
            [[0, 9, 9, 9], [0, 1, 1, 1], [0, 9, 9, 9], [0, 5, 5, 5]],
            dtype=np.int32,
        )
        unique, _ = unique_coords(coords)
        assert np.array_equal(
            unique,
            np.array([[0, 9, 9, 9], [0, 1, 1, 1], [0, 5, 5, 5]], dtype=np.int32),
        )

    def test_batch_column_distinguishes(self):
        coords = np.array([[0, 1, 1, 1], [1, 1, 1, 1]], dtype=np.int32)
        unique, _ = unique_coords(coords)
        assert len(unique) == 2

    def test_inverse_reconstructs(self):
        coords = coords_array(500, lo=-10, hi=10, seed=3)  # force duplicates
        unique, inverse = unique_coords(coords)
        assert np.array_equal(unique[inverse], coords)
        assert len(unique) < len(coords)


def reference_group_rows(keys):
    """``np.unique`` with a stable sort, reordered by first occurrence."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return np.sort(first), rank[inverse]


class TestGroupRows:
    def assert_matches_reference(self, keys):
        first, group = group_rows(keys)
        want_first, want_group = reference_group_rows(keys)
        assert first.dtype == want_first.dtype
        assert group.dtype == want_group.dtype
        assert np.array_equal(first, want_first)
        assert np.array_equal(group, want_group)

    @pytest.mark.parametrize("keys", [
        np.zeros(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(50, -3, dtype=np.int64),
        np.array([5, 5, 1, 5, 1, 9], dtype=np.int64),
    ], ids=["empty", "one-row", "all-duplicate", "mixed"])
    def test_edge_cases_match_unique(self, keys):
        self.assert_matches_reference(keys)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=80),
           st.integers(1, 6))
    def test_property_matches_unique(self, values, spread):
        # Few distinct values, so runs of equal keys are long.
        self.assert_matches_reference(np.array(values, dtype=np.int64) % spread)
        self.assert_matches_reference(np.array(values, dtype=np.int64))
