"""Kernel maps reuse what their coordinate set already gives.

* Builds through one :class:`~repro.sparse.kmap.TableSlot` share the hash
  table of consecutive builds on one coordinate array, and give the same
  map and per-map statistics as a fresh build.  The slot holds one table.
* The transpose of a mirrored map, and of a transposed map, is known
  without a search: no ``np.nonzero``, and the same result as the scatter.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ShapeError
from repro.kernels.registry import Dataflow
from repro.models import MinkUNet
from repro.nn import ExecutionContext
from repro.nn.context import FixedPolicy, LayerConfig
from repro.sparse import SparseTensor
from repro.sparse import kmap as kmap_module
from repro.sparse.hashmap import CoordinateHashMap
from repro.sparse.kmap import TableSlot, build_kernel_map
from tests.test_kmap_golden import pyramid, scenes
from tests.test_kmap_transpose import reference_transposed_nbmap
from tests.test_sparse_kmap import coordinate_sets

#: ``(kernel_size, stride)`` built on each pyramid level, in model order:
#: the submanifold build, then the strided builds on the same array.
KINDS = [(3, 1), (3, 2), (2, 2), (1, 1), (5, 1)]


def outcome(kmap):
    return (
        kmap.nbmap.tobytes(), kmap.nbmap.shape, kmap.out_coords.tobytes(),
        dataclasses.astuple(kmap.build_stats),
    )


@pytest.fixture
def table_count(monkeypatch):
    """The number of ``CoordinateHashMap`` tables constructed so far."""
    built = []
    init = CoordinateHashMap.__init__

    def counting_init(table, keys):
        built.append(len(keys))
        init(table, keys)

    monkeypatch.setattr(CoordinateHashMap, "__init__", counting_init)
    return lambda: len(built)


@pytest.fixture
def no_search(monkeypatch):
    """Call to make any later ``np.nonzero`` in the map module raise."""

    def forbid():
        def forbidden(*args, **kwargs):
            raise AssertionError("np.nonzero called")

        monkeypatch.setattr(kmap_module.np, "nonzero", forbidden)

    return forbid


@pytest.mark.parametrize(
    "scene", ["semantickitti-s0", "nuscenes-batch2", "empty", "one-point"]
)
def test_shared_table_builds_equal_fresh_builds(scene, table_count):
    levels = pyramid(scenes()[scene])
    before = table_count()
    slot = TableSlot()
    for t, coords in levels.items():
        for kernel_size, stride in KINDS:
            shared = build_kernel_map(coords, kernel_size, stride, t, slot=slot)
            fresh = build_kernel_map(coords, kernel_size, stride, t)
            assert outcome(shared) == outcome(fresh), (t, kernel_size, stride)
    # One table per level through the slot, one per fresh build.
    assert table_count() - before == len(levels) * (1 + len(KINDS))


def test_slot_holds_one_table_and_replaces_it(table_count):
    first = scenes()["semantickitti-s0"]
    second = pyramid(first)[2]
    before = table_count()
    slot = TableSlot()
    keys, table = slot.table(first)
    assert slot.table(first)[1] is table
    assert slot.table(first.copy())[1] is not table  # matched by identity
    held = weakref.ref(table)
    del keys, table
    gc.collect()
    assert held() is None  # the slot let the first table go
    slot.table(second)
    slot.table(second)
    assert table_count() - before == 3


def test_forward_builds_one_table_per_coordinate_array(table_count):
    rng = np.random.default_rng(0)
    coords = np.unique(np.concatenate(
        [np.zeros((600, 1), np.int32),
         rng.integers(0, 16, (600, 3)).astype(np.int32)], axis=1,
    ), axis=0)
    arrays = []
    build = kmap_module.build_kernel_map

    def recording_build(in_coords, *args, **kwargs):
        arrays.append(in_coords)
        return build(in_coords, *args, **kwargs)

    model = MinkUNet(in_channels=4, num_classes=4, width=0.25)
    ctx = ExecutionContext(
        simulate_only=True,
        policy=FixedPolicy(LayerConfig(dataflow=Dataflow.IMPLICIT_GEMM)),
    )
    scan = SparseTensor(coords, np.zeros((len(coords), 4), np.float32))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.nn.conv.build_kernel_map", recording_build)
        model(scan, ctx)
    runs = 1 + sum(a is not b for a, b in zip(arrays[1:], arrays[:-1]))
    assert len(arrays) > runs  # some array is built on twice in a row
    assert table_count() == runs


@settings(max_examples=40, deadline=None)
@given(coords=coordinate_sets())
def test_mirrored_transposes_equal_the_scatter(coords):
    for kernel_size in (1, 3, 5):
        try:
            kmap = build_kernel_map(coords, kernel_size)
        except ShapeError:
            continue  # a query left the packable range
        assert kmap.mirrored
        once = kmap.transposed()
        assert np.array_equal(once.nbmap, reference_transposed_nbmap(kmap))
        twice = once.transposed()
        assert np.array_equal(twice.nbmap, reference_transposed_nbmap(once))
        assert np.array_equal(twice.nbmap, kmap.nbmap)
        assert twice.nbmap is not kmap.nbmap  # a copy, not a shared array
        assert once.nbmap.flags["C_CONTIGUOUS"]


def test_strided_maps_are_not_mirrored():
    coords = scenes()["one-point"]
    assert not build_kernel_map(coords, 3, stride=2).mirrored
    assert not build_kernel_map(coords, 2, stride=1).mirrored


@pytest.mark.parametrize("kernel_size, stride", [(3, 1), (1, 1), (3, 2), (2, 2)])
def test_known_transposes_do_not_search(kernel_size, stride, no_search):
    coords = pyramid(scenes()["semantickitti-s0"])[2]
    kmap = build_kernel_map(coords, kernel_size, stride, 2)
    want = reference_transposed_nbmap(kmap)
    if not kmap.mirrored:
        once = kmap.transposed()  # the scatter: searches
        no_search()
    else:
        no_search()
        once = kmap.transposed()
    thrice = once.transposed().transposed()
    assert np.array_equal(once.nbmap, want)
    assert np.array_equal(thrice.nbmap, want)
    assert np.array_equal(once.transposed().nbmap, kmap.nbmap)


def test_identity_map_transposes_without_search(no_search):
    from repro.nn.conv import _identity_kmap
    from repro.sparse.tensor import shape_only_feats

    coords = scenes()["semantickitti-s0"]
    kmap = _identity_kmap(
        SparseTensor(coords, shape_only_feats(len(coords), 1, np.float32))
    )
    no_search()
    assert np.array_equal(kmap.transposed().nbmap, kmap.nbmap)
    assert kmap.transposed().transposed().nbmap is not kmap.nbmap
