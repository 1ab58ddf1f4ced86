"""Golden for kernel-map construction on seeded LiDAR scenes.

``tests/golden/kmap_builds.json`` pins, for every build kind the model
presets use, the SHA-256 of the output-stationary ``nbmap``, the output
coordinates and ``dataclasses.astuple(build_stats)``:

* submanifold ``K=3`` at tensor strides 1, 2, 4, 8 and 16;
* ``K=2`` stride 2 at tensor strides 1, 2, 4 and 8;
* ``K=3`` stride 2 at tensor strides 1, 2 and 4;

on two scenes (one SemanticKITTI sweep, and a batch of two nuScenes
sweeps), plus an empty cloud and a one-point cloud.  Each scene is walked
down the stride pyramid with its own ``K=2`` stride-2 outputs, as the
U-Net presets do.  Any change to the hash table or the map builder that
moves one slot of a map or one probe of its accounting shows here.
Regenerate (only after an intentional change to either) with:

    PYTHONPATH=src:. python -m tests.test_kmap_golden \
        > tests/golden/kmap_builds.json
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_sample
from repro.sparse.kmap import build_kernel_map
from repro.sparse.tensor import batch_sparse_tensors

GOLDEN = Path(__file__).parent / "golden" / "kmap_builds.json"

#: ``(kernel_size, stride, tensor strides)`` of every build kind.
BUILDS = [
    (3, 1, (1, 2, 4, 8, 16)),
    (2, 2, (1, 2, 4, 8)),
    (3, 2, (1, 2, 4)),
]


def scenes():
    """Named input clouds at tensor stride 1."""
    batch = batch_sparse_tensors(
        [make_sample("nuscenes", seed=s, batch_index=s, scale=0.5)
         for s in (1, 2)]
    )
    return {
        "semantickitti-s0": make_sample("semantickitti", seed=0, scale=0.25).coords,
        "nuscenes-batch2": batch.coords,
        "empty": np.zeros((0, 4), dtype=np.int32),
        "one-point": np.array([[0, 5, -3, 7]], dtype=np.int32),
    }


def pyramid(coords):
    """The scene's coordinates at tensor strides 1, 2, 4, 8 and 16."""
    levels = {1: coords}
    for t in (1, 2, 4, 8):
        levels[2 * t] = build_kernel_map(
            levels[t], kernel_size=2, stride=2, tensor_stride=t
        ).out_coords
    return levels


def sha256(array):
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


def record_scene(coords):
    levels = pyramid(coords)
    out = {}
    for kernel_size, stride, tensor_strides in BUILDS:
        for t in tensor_strides:
            kmap = build_kernel_map(
                levels[t], kernel_size=kernel_size, stride=stride,
                tensor_stride=t,
            )
            out[f"K{kernel_size}s{stride}t{t}"] = {
                "nbmap": sha256(kmap.nbmap),
                "out_coords": sha256(kmap.out_coords),
                "build_stats": hashlib.sha256(
                    repr(dataclasses.astuple(kmap.build_stats)).encode()
                ).hexdigest(),
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
def test_kmap_builds_match_golden(recorded, scene):
    golden = json.loads(GOLDEN.read_text())
    assert recorded[scene] == golden[scene], (
        "kernel-map construction drifted from the golden fixture; "
        "if intentional, regenerate per this module's docstring"
    )


if __name__ == "__main__":
    print(json.dumps(record_all(), indent=1, sort_keys=True))
