"""Transposed kernel maps and the weight-stationary pair view against the
per-offset loops they replaced: same values, dtypes and errors."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.data import make_sample
from repro.errors import MapError, ShapeError
from repro.kernels.registry import Dataflow
from repro.models import MinkUNet
from repro.models.registry import WORKLOADS
from repro.nn import ExecutionContext
from repro.nn.context import FixedPolicy, LayerConfig
from repro.sparse import SparseTensor
from repro.sparse.hashmap import HashMapStats
from repro.sparse.kmap import KernelMap, MapKey, build_kernel_map, downsample_coords
from tests.test_sparse_kmap import coordinate_sets, figure2_coords

DUPLICATE = "transposed map ill-defined: duplicate inputs in one offset"


def reference_pairs(kmap):
    """One ``np.where`` per offset."""
    pairs = []
    for k in range(kmap.volume):
        out_idx = np.where(kmap.nbmap[:, k] >= 0)[0].astype(np.int32)
        pairs.append((kmap.nbmap[out_idx, k], out_idx))
    return pairs


def reference_transposed_nbmap(kmap):
    """One scatter and one ``np.unique`` injectivity check per offset."""
    t_nbmap = np.full((kmap.num_inputs, kmap.volume), -1, dtype=np.int32)
    for k, (in_idx, out_idx) in enumerate(reference_pairs(kmap)):
        if len(np.unique(in_idx)) != len(in_idx):
            raise MapError(DUPLICATE)
        t_nbmap[in_idx, k] = out_idx
    return t_nbmap


def assert_same_pairs(got, want):
    assert len(got) == len(want)
    for (g_in, g_out), (w_in, w_out) in zip(got, want):
        assert g_in.dtype == w_in.dtype == np.int32
        assert g_out.dtype == w_out.dtype == np.int32
        assert np.array_equal(g_in, w_in)
        assert np.array_equal(g_out, w_out)


def assert_matches_reference(kmap, mirrored=False):
    """``mirrored``: a submanifold map with every K odd, whose column
    ``V - 1 - v`` inverts column ``v``."""
    assert_same_pairs(kmap.pairs(), reference_pairs(kmap))
    t = kmap.transposed()
    want = reference_transposed_nbmap(kmap)
    assert t.nbmap.dtype == np.int32 and t.nbmap.flags["C_CONTIGUOUS"]
    assert np.array_equal(t.nbmap, want)
    assert np.array_equal(t.offsets, -kmap.offsets)
    assert t.num_inputs == kmap.num_outputs
    assert t.key == MapKey(
        kmap.key.kernel_size, kmap.key.stride, kmap.key.tensor_stride,
        transposed=not kmap.key.transposed,
    )
    if kmap.in_coords is None:
        assert np.array_equal(
            t.out_coords, np.zeros((kmap.num_inputs, 2), dtype=np.int32)
        )
    else:
        assert t.out_coords is kmap.in_coords
    assert t.in_coords is kmap.out_coords
    assert t.native_weight_stationary is True
    assert t.build_stats == HashMapStats()
    assert np.array_equal(
        t.map_sizes, np.count_nonzero(t.nbmap >= 0, axis=0)
    )
    assert t.total_pairs == int(np.count_nonzero(want >= 0))
    assert_same_pairs(t.pairs(), reference_pairs(t))
    if mirrored:
        assert np.array_equal(t.nbmap, kmap.nbmap[:, ::-1])
    assert np.array_equal(t.transposed().nbmap, kmap.nbmap)


@settings(max_examples=60, deadline=None)
@given(coords=coordinate_sets())
def test_matches_loop_reference(coords):
    for kernel_size in (1, 2, 3):
        for stride in (1, 2):
            for tensor_stride in (1, 2):
                try:
                    kmap = build_kernel_map(
                        coords, kernel_size, stride, tensor_stride
                    )
                except ShapeError:
                    continue  # a query left the packable range
                assert_matches_reference(
                    kmap, mirrored=stride == 1 and kernel_size % 2 == 1
                )


@pytest.mark.parametrize("preset", sorted(WORKLOADS))
def test_matches_loop_reference_on_preset_scenes(preset):
    workload = WORKLOADS[preset]
    coords = make_sample(
        workload.dataset, frames=workload.frames, seed=0, scale=0.05
    ).coords
    for tensor_stride in (1, 2, 4, 8):
        for kernel_size, stride in ((3, 1), (3, 2), (2, 2)):
            assert_matches_reference(
                build_kernel_map(coords, kernel_size, stride, tensor_stride),
                mirrored=stride == 1,
            )
        coords, _ = downsample_coords(coords, (2, 2, 2), (tensor_stride,) * 3)


@pytest.mark.parametrize("kernel_size", [3, (3, 1, 5), (1, 1, 3)])
def test_odd_submanifold_transpose_is_column_reversal(kernel_size):
    coords = np.array([[0, x, y, z] for x, y, z in
                       [(0, 0, 0), (0, 0, 1), (1, 1, 1), (2, 0, 0)]],
                      dtype=np.int32)
    assert_matches_reference(
        build_kernel_map(coords, kernel_size, 1), mirrored=True
    )


def hand_built(nbmap, num_inputs, kernel_size=3):
    """A 1-D map under a stride-1, odd-K key, built without the table."""
    nbmap = np.asarray(nbmap, dtype=np.int32)
    return KernelMap(
        nbmap=nbmap,
        offsets=np.arange(nbmap.shape[1])[:, None] - nbmap.shape[1] // 2,
        num_inputs=num_inputs,
        out_coords=np.zeros((len(nbmap), 2), dtype=np.int32),
        build_stats=HashMapStats(),
        key=MapKey((kernel_size,), (1,), (1,)),
    )


def test_duplicate_input_raises_for_hand_built_map():
    # Outputs 0 and 2 both read input 1 through offset 0.
    kmap = hand_built([[1, 0, -1], [-1, 1, 0], [1, 2, -1]], num_inputs=3)
    with pytest.raises(MapError) as want:
        reference_transposed_nbmap(kmap)
    with pytest.raises(MapError) as got:
        kmap.transposed()
    assert str(got.value) == str(want.value) == DUPLICATE
    assert "transposed" not in kmap.analysis_cache


def test_asymmetric_hand_built_map_is_not_reversed():
    # Valid but not mirror-symmetric: the column reversal would be wrong.
    kmap = hand_built([[-1, 0, -1], [0, 1, 2], [-1, 2, 1]], num_inputs=3)
    assert_matches_reference(kmap)
    assert not np.array_equal(kmap.transposed().nbmap, kmap.nbmap[:, ::-1])


def test_transposed_is_built_once():
    kmap = build_kernel_map(figure2_coords(), kernel_size=2, stride=2)
    t = kmap.transposed()
    assert kmap.transposed() is t
    assert t.transposed() is t.transposed()
    assert t.map_sizes is kmap.map_sizes
    assert not t.map_sizes.flags.writeable


@pytest.mark.parametrize("kmap", [
    hand_built(np.zeros((4, 0)), num_inputs=4),
    build_kernel_map(np.zeros((0, 4), dtype=np.int32), 3),
    build_kernel_map(np.zeros((0, 4), dtype=np.int32), 2, stride=2),
], ids=["V=0", "N_out=0 submanifold", "N_out=0 strided"])
def test_empty_maps_keep_one_pair_list_per_offset(kmap):
    assert len(kmap.pairs()) == kmap.volume
    assert kmap.total_pairs == 0
    assert_matches_reference(kmap)


def test_training_step_shares_one_transpose_per_map():
    """An inverse conv runs forward on the same transposed map its
    matching downsample's dgrad runs on, and each pass still charges its
    own reordering."""
    rng = np.random.default_rng(0)
    coords = np.unique(np.concatenate(
        [np.zeros((600, 1), np.int32),
         rng.integers(0, 16, (600, 3)).astype(np.int32)], axis=1,
    ), axis=0)
    model = MinkUNet(in_channels=4, num_classes=4, width=0.25)
    model.train()
    ctx = ExecutionContext(
        training=True, simulate_only=True,
        policy=FixedPolicy(LayerConfig(dataflow=Dataflow.IMPLICIT_GEMM)),
    )
    scan = SparseTensor(coords, np.zeros((len(coords), 4), np.float32))
    model(scan, ctx)
    model.backward(np.zeros((len(coords), 4), np.float32), ctx)
    maps = scan.cache._maps
    inverse = [key for key in maps if key[3]]
    assert len(inverse) == 4
    for stride, kernel_size, conv_stride, _ in inverse:
        base_stride = tuple(t // s for t, s in zip(stride, conv_stride))
        base = maps[(base_stride, kernel_size, conv_stride, False)]
        inverse_map = maps[(stride, kernel_size, conv_stride, True)]
        assert inverse_map is base.transposed()
    names = [launch.name for launch in ctx.trace]
    for i in range(4):
        assert f"dec{i}.up.conv/fwd:mapping/reorder" in names
        assert f"enc{i}.down.conv/dgrad:mapping/reorder" in names
