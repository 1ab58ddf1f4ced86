"""Golden for transposed kernel maps on seeded LiDAR scenes.

``tests/golden/kmap_transposed.json`` pins, for every scene and build kind
of :mod:`tests.test_kmap_golden` plus the pointwise (``K=1``) identity map
at each tensor stride, what ``kmap.transposed()`` and
``kmap.transposed().transposed()`` hold: the SHA-256 of ``nbmap``,
``offsets``, ``out_coords``, ``in_coords`` and ``map_sizes``, and the
storage order, key and build statistics.  Every shortcut of
:meth:`~repro.sparse.kmap.KernelMap.transposed` must reproduce the scatter
construction exactly.  Regenerate (only after an intentional change) with:

    PYTHONPATH=src:. python -m tests.test_kmap_transposed_golden \
        > tests/golden/kmap_transposed.json
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.nn.conv import _identity_kmap
from repro.sparse.kmap import build_kernel_map
from repro.sparse.tensor import SparseTensor, shape_only_feats
from tests.test_kmap_golden import BUILDS, pyramid, scenes, sha256

GOLDEN = Path(__file__).parent / "golden" / "kmap_transposed.json"


def describe(kmap):
    return {
        "nbmap": sha256(kmap.nbmap),
        "offsets": sha256(kmap.offsets),
        "out_coords": sha256(kmap.out_coords),
        "in_coords": sha256(kmap.in_coords),
        "map_sizes": sha256(kmap.map_sizes),
        "native_weight_stationary": kmap.native_weight_stationary,
        "key": repr(kmap.key),
        "build_stats": repr(dataclasses.astuple(kmap.build_stats)),
    }


def scene_maps(coords):
    """``(name, map)`` for every build kind and identity map of a scene."""
    levels = pyramid(coords)
    for kernel_size, stride, tensor_strides in BUILDS:
        for t in tensor_strides:
            yield f"K{kernel_size}s{stride}t{t}", build_kernel_map(
                levels[t], kernel_size=kernel_size, stride=stride,
                tensor_stride=t,
            )
    for t, level in levels.items():
        tensor = SparseTensor(
            level, shape_only_feats(len(level), 1, np.float32), stride=t
        )
        yield f"K1s1t{t}", _identity_kmap(tensor)


def record_scene(coords):
    out = {}
    for name, kmap in scene_maps(coords):
        once = kmap.transposed()
        out[name] = {
            "transposed": describe(once),
            "transposed_twice": describe(once.transposed()),
        }
    return out


def record_all():
    return {name: record_scene(coords) for name, coords in scenes().items()}


@pytest.fixture(scope="module")
def recorded():
    return record_all()


def test_golden_covers_every_scene(recorded):
    assert set(json.loads(GOLDEN.read_text())) == set(recorded)


@pytest.mark.parametrize(
    "scene", ["semantickitti-s0", "nuscenes-batch2", "empty", "one-point"]
)
def test_transposed_maps_match_golden(recorded, scene):
    golden = json.loads(GOLDEN.read_text())
    assert recorded[scene] == golden[scene], (
        "transposed kernel maps drifted from the golden fixture; "
        "if intentional, regenerate per this module's docstring"
    )


if __name__ == "__main__":
    print(json.dumps(record_all(), indent=1, sort_keys=True))
