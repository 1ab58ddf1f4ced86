"""Tests for kernel-map construction (submanifold, strided, transposed)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_sample
from repro.errors import MapError, ShapeError
from repro.models.registry import WORKLOADS
from repro.sparse.coords import pack_coords, unique_coords
from repro.sparse.kernel_offsets import kernel_offsets, normalize_kernel_size
from repro.sparse.kmap import KernelMap, MapKey, build_kernel_map, downsample_coords
from repro.sparse.hashmap import CoordinateHashMap, HashMapStats


def line_coords():
    """Three collinear points: [0], [1], [2] on a 1-D grid (D=1)."""
    return np.array([[0, 0], [0, 1], [0, 2]], dtype=np.int32)


def figure2_coords():
    """The 8-point 2-D example used throughout the paper (Figure 2-ish).

    A small irregular 2-D pattern exercising partial neighbourhoods.
    """
    pts = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 3), (3, 1), (3, 3), (4, 2)]
    return np.array([[0, x, y] for x, y in pts], dtype=np.int32)


class TestSubmanifoldMap:
    def test_output_coords_equal_input(self):
        coords = figure2_coords()
        kmap = build_kernel_map(coords, kernel_size=3)
        assert np.array_equal(kmap.out_coords, coords)
        assert kmap.num_inputs == kmap.num_outputs == 8

    def test_identity_offset_maps_self(self):
        coords = figure2_coords()
        kmap = build_kernel_map(coords, kernel_size=3)
        centre = 4  # identity offset index for K=3, D=2
        assert np.array_equal(kmap.nbmap[:, centre], np.arange(8))

    def test_line_neighbours(self):
        kmap = build_kernel_map(line_coords(), kernel_size=3)
        # offsets for K=3, D=1 are [-1, 0, 1]
        assert np.array_equal(kmap.nbmap[0], [-1, 0, 1])
        assert np.array_equal(kmap.nbmap[1], [0, 1, 2])
        assert np.array_equal(kmap.nbmap[2], [1, 2, -1])

    def test_map_sizes_and_pairs_consistent(self):
        kmap = build_kernel_map(figure2_coords(), kernel_size=3)
        assert kmap.total_pairs == kmap.map_sizes.sum()
        for k, (in_idx, out_idx) in enumerate(kmap.pairs()):
            assert len(in_idx) == kmap.map_sizes[k]
            assert np.array_equal(kmap.nbmap[out_idx, k], in_idx)

    def test_pairs_match_coordinate_arithmetic(self):
        coords = figure2_coords()
        kmap = build_kernel_map(coords, kernel_size=3)
        for k, (in_idx, out_idx) in enumerate(kmap.pairs()):
            delta = kmap.offsets[k]
            for p, q in zip(in_idx, out_idx):
                assert np.array_equal(coords[p, 1:], coords[q, 1:] + delta)

    def test_mean_neighbors(self):
        kmap = build_kernel_map(figure2_coords(), kernel_size=3)
        assert kmap.mean_neighbors == kmap.total_pairs / 8

    def test_batch_isolation(self):
        # Identical spatial coords in different batches must not connect.
        coords = np.array([[0, 0, 0], [1, 0, 1]], dtype=np.int32)
        kmap = build_kernel_map(coords, kernel_size=3)
        assert kmap.total_pairs == 2  # only the two identity pairs


class TestStridedMap:
    def test_downsample_coords_coarsens(self):
        coords = figure2_coords()
        out, keys = downsample_coords(
            coords, stride=(2, 2), tensor_stride=(1, 1)
        )
        assert np.all(out[:, 1:] % 2 == 0)
        assert len(out) <= len(coords)
        # The keys are the outputs' packing, one per distinct cell.
        np.testing.assert_array_equal(keys, pack_coords(out))
        assert len(np.unique(keys)) == len(keys)

    def test_strided_map_output_count(self):
        coords = figure2_coords()
        kmap = build_kernel_map(coords, kernel_size=2, stride=2)
        # Every input must appear in exactly one output cell for K=2/s=2.
        assert kmap.total_pairs == len(coords)

    def test_every_input_covered_k2s2(self):
        coords = figure2_coords()
        kmap = build_kernel_map(coords, kernel_size=2, stride=2)
        seen = np.sort(np.concatenate([p for p, _ in kmap.pairs()]))
        assert np.array_equal(seen, np.arange(len(coords)))

    def test_tensor_stride_dilates_offsets(self):
        # Points at stride-2 positions: neighbours are +-2, not +-1.
        coords = np.array([[0, 0], [0, 2], [0, 4]], dtype=np.int32)
        kmap = build_kernel_map(coords, kernel_size=3, tensor_stride=2)
        assert np.array_equal(kmap.nbmap[1], [0, 1, 2])

    def test_k3_s2_reaches_adjacent_cells(self):
        coords = np.array([[0, 1], [0, 2]], dtype=np.int32)
        kmap = build_kernel_map(coords, kernel_size=3, stride=2)
        # Output cells are 0 and 2; cell 2's offset -1 reaches input at 1.
        assert kmap.total_pairs >= 3


class TestTransposedMap:
    def test_transposed_swaps_counts(self):
        kmap = build_kernel_map(figure2_coords(), kernel_size=2, stride=2)
        t = kmap.transposed()
        assert t.num_inputs == kmap.num_outputs
        assert t.num_outputs == kmap.num_inputs
        assert t.total_pairs == kmap.total_pairs

    def test_transposed_pairs_are_swapped(self):
        kmap = build_kernel_map(figure2_coords(), kernel_size=3)
        t = kmap.transposed()
        for (a_in, a_out), (b_in, b_out) in zip(kmap.pairs(), t.pairs()):
            assert sorted(zip(a_in, a_out)) == sorted(zip(b_out, b_in))

    def test_double_transpose_roundtrip(self):
        kmap = build_kernel_map(figure2_coords(), kernel_size=3)
        tt = kmap.transposed().transposed()
        assert np.array_equal(tt.nbmap, kmap.nbmap)

    def test_transposed_key_flag(self):
        kmap = build_kernel_map(figure2_coords(), kernel_size=3)
        assert kmap.key.transposed is False
        assert kmap.transposed().key.transposed is True


class TestValidation:
    def test_nbmap_out_of_range_rejected(self):
        with pytest.raises(MapError):
            KernelMap(
                nbmap=np.array([[5]], dtype=np.int32),
                offsets=np.zeros((1, 2), dtype=np.int32),
                num_inputs=2,
                out_coords=np.zeros((1, 3), dtype=np.int32),
                build_stats=HashMapStats(),
                key=MapKey((1,), (1,), (1,)),
            )

    def test_mismatched_offsets_rejected(self):
        with pytest.raises(MapError):
            KernelMap(
                nbmap=np.zeros((2, 3), dtype=np.int32),
                offsets=np.zeros((2, 2), dtype=np.int32),
                num_inputs=4,
                out_coords=np.zeros((2, 3), dtype=np.int32),
                build_stats=HashMapStats(),
                key=MapKey((1,), (1,), (1,)),
            )


def reference_kernel_map(in_coords, kernel_size, stride=1, tensor_stride=1):
    """Map construction by repeating every output row per offset, packing
    each query row with ``pack_coords`` and probing the table for every
    offset: the oracle for the broadcast-add query keys and the mirrored
    submanifold columns of ``build_kernel_map``."""
    in_coords = np.asarray(in_coords, dtype=np.int32)
    ndim = in_coords.shape[1] - 1
    sizes = normalize_kernel_size(kernel_size, ndim)
    stride_t = normalize_kernel_size(stride, ndim)
    tstride = normalize_kernel_size(tensor_stride, ndim)
    offsets = kernel_offsets(sizes, ndim)
    if all(s == 1 for s in stride_t):
        out_coords = in_coords
    else:
        out_coords, _ = downsample_coords(in_coords, stride_t, tstride)
    table = CoordinateHashMap(pack_coords(in_coords))
    volume = len(offsets)
    dilated = offsets.astype(np.int64) * np.asarray(tstride, dtype=np.int64)
    queries = np.repeat(out_coords[np.newaxis, :, :], volume, axis=0).astype(np.int64)
    queries[:, :, 1:] += dilated[:, np.newaxis, :]
    flat = queries.reshape(-1, in_coords.shape[1])
    nbmap = table.query(pack_coords(flat.astype(np.int32)))
    return nbmap.reshape(volume, len(out_coords)).T, out_coords, table.stats


def outcome(build, *args):
    """``(nbmap, out_coords, stats)`` of a map build, or its error."""
    try:
        result = build(*args)
    except (ShapeError, MapError) as err:
        return type(err), str(err)
    if isinstance(result, KernelMap):
        return result.nbmap, result.out_coords, result.build_stats
    return result


def assert_same_outcome(coords, kernel_size, stride=1, tensor_stride=1):
    got = outcome(build_kernel_map, coords, kernel_size, stride, tensor_stride)
    want = outcome(
        reference_kernel_map, coords, kernel_size, stride, tensor_stride
    )
    if isinstance(want[0], type):
        assert got == want
        return
    assert not isinstance(got[0], type), got
    nbmap, out_coords, stats = got
    assert nbmap.flags["C_CONTIGUOUS"]
    assert np.array_equal(nbmap, want[0])
    assert np.array_equal(out_coords, want[1])
    assert stats == want[2]  # inserts, insert/query probes and queries


#: Field values at and near the packable limits, where a shifted query
#: leaves the range or would carry into the neighbouring field.
_EDGES = [-32768, -32767, -32760, -1, 0, 32760, 32766, 32767]


@st.composite
def coordinate_sets(draw):
    ndim = draw(st.integers(1, 3))
    batches = draw(st.lists(
        st.integers(0, 65535) | st.sampled_from([0, 1, 32767, 65535]),
        min_size=1, max_size=3,
    ))
    anchor = [
        draw(st.integers(-32768, 32767) | st.sampled_from(_EDGES))
        for _ in range(ndim)
    ]
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(batches),
            *[st.integers(-6, 6) for _ in range(ndim)],
        ),
        min_size=1, max_size=40,
    ))
    coords = np.array(rows, dtype=np.int64)
    coords[:, 1:] = np.clip(coords[:, 1:] + anchor, -32768, 32767)
    unique, _ = unique_coords(coords.astype(np.int32))
    return unique


class TestAdditiveQueryKeys:
    """Query keys formed as ``pack(c) + packed delta``, and submanifold
    columns mirrored from half the offsets, match packing and probing every
    shifted row: same maps, coordinates, probe counts and errors."""

    @settings(max_examples=60, deadline=None)
    @given(coords=coordinate_sets())
    def test_matches_repack_oracle(self, coords):
        for kernel_size in (1, 2, 3, 5):
            for stride in (1, 2):
                for tensor_stride in (1, 2, 4):
                    assert_same_outcome(
                        coords, kernel_size, stride, tensor_stride
                    )

    @pytest.mark.parametrize("preset", sorted(WORKLOADS))
    def test_matches_repack_oracle_on_preset_scenes(self, preset):
        workload = WORKLOADS[preset]
        coords = make_sample(
            workload.dataset, frames=workload.frames, seed=0, scale=0.05
        ).coords
        # Walk the encoder's grids: submanifold maps at each tensor stride
        # and the downsampling maps between them.
        for tensor_stride in (1, 2, 4, 8):
            assert_same_outcome(coords, 3, 1, tensor_stride)
            assert_same_outcome(coords, 3, 2, tensor_stride)
            assert_same_outcome(coords, 2, 2, tensor_stride)
            coords, _ = downsample_coords(
                coords, (2, 2, 2), (tensor_stride,) * 3
            )

    @pytest.mark.parametrize("coords, tensor_stride, message", [
        ([[0, 32767, 0, 0]], 1, "min=-1, max=32768"),
        ([[0, 32766, 0, 0]], 2, "min=-2, max=32768"),
        ([[0, -32768, 5, 5]], 1, "min=-32769, max=6"),
    ])
    def test_out_of_range_query_raises(self, coords, tensor_stride, message):
        coords = np.array(coords, dtype=np.int32)
        with pytest.raises(ShapeError) as err:
            build_kernel_map(coords, 3, tensor_stride=tensor_stride)
        assert str(err.value) == (
            "spatial coordinates out of packable range [-32768, 32767]: "
            + message
        )
        assert_same_outcome(coords, 3, 1, tensor_stride)

    @settings(max_examples=60, deadline=None)
    @given(coords=coordinate_sets(), data=st.data())
    def test_mixed_kernel_sizes_match_oracle(self, coords, data):
        ndim = coords.shape[1] - 1
        kernel_size = data.draw(
            st.tuples(*[st.sampled_from([1, 2, 3, 5])] * ndim)
        )
        for tensor_stride in (1, 2, 4):
            assert_same_outcome(coords, kernel_size, 1, tensor_stride)

    @pytest.mark.parametrize("kernel_size, stride, mirrored", [
        (1, 1, True),
        (3, 1, True),
        (5, 1, True),
        ((3, 1, 5), 1, True),
        ((3, 2, 3), 1, False),
        (2, 1, False),
        (3, 2, False),
    ])
    @pytest.mark.parametrize("tensor_stride", [1, 2, 4])
    @pytest.mark.parametrize("coords", [
        np.zeros((0, 4), dtype=np.int32),
        np.array([[0, 5, -5, 7]], dtype=np.int32),
        np.array([[b, x, y, z] for b in (0, 1, 3)
                  for x, y, z in [(0, 0, 0), (0, 0, 1), (2, 0, 0),
                                  (1, 1, 1), (-4, 2, 0), (0, 4, 0)]],
                 dtype=np.int32),
    ], ids=["empty", "single", "multi-batch"])
    def test_mirror_path_edge_cases(
        self, monkeypatch, coords, kernel_size, stride, tensor_stride,
        mirrored,
    ):
        charged = []
        charge_known = CoordinateHashMap.charge_known

        def counting_charge_known(table, keys, values, stats=None):
            charged.append(len(keys))
            charge_known(table, keys, values, stats)

        monkeypatch.setattr(
            CoordinateHashMap, "charge_known", counting_charge_known
        )
        assert_same_outcome(coords, kernel_size, stride, tensor_stride)
        volume = len(kernel_offsets(kernel_size, 3))
        # The centre column and the mirrored half are charged, not probed.
        assert charged == ([(volume - volume // 2) * len(coords)]
                           if mirrored else [])

    @pytest.mark.parametrize("kernel_size", [3, 5, (3, 1, 5), (1, 1, 3)])
    def test_out_of_range_raises_before_any_probe(
        self, monkeypatch, kernel_size
    ):
        def forbidden(*args):
            raise AssertionError("probed an out-of-range coordinate set")

        monkeypatch.setattr(CoordinateHashMap, "query", forbidden)
        monkeypatch.setattr(CoordinateHashMap, "charge_known", forbidden)
        coords = np.array([[0, 0, 0, 32767], [0, 0, 0, 0]], dtype=np.int32)
        reach = normalize_kernel_size(kernel_size, 3)[2] // 2
        with pytest.raises(ShapeError) as err:
            build_kernel_map(coords, kernel_size)
        assert str(err.value) == (
            "spatial coordinates out of packable range [-32768, 32767]: "
            f"min={-reach}, max={32767 + reach}"
        )

    def test_top_of_range_never_aliases_next_batch(self):
        # pack((b, 32767, y, z)) + (1 << 32) == pack((b + 1, -32768, y, z)):
        # without the range check the +x query would find batch b + 1.
        coords = np.array([[0, 32767, 0, 0], [1, -32768, 0, 0]], np.int32)
        with pytest.raises(ShapeError):
            build_kernel_map(coords, 3)
        kmap = build_kernel_map(coords, 1)
        assert np.array_equal(kmap.nbmap, [[0], [1]])

    def test_top_batch_index_builds(self):
        kmap = build_kernel_map(np.array([[65535, 10, 10, 10]]), 3)
        assert kmap.total_pairs == 1
        assert kmap.build_stats == HashMapStats(
            inserts=1, insert_probes=1, queries=27, query_probes=36
        )
