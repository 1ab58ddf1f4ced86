"""Synthetic spinning-LiDAR scanner over procedural driving scenes.

A scene is a ground plane plus a set of axis-aligned boxes (vehicles,
buildings, poles).  The scanner casts one ray per (beam elevation, azimuth
step) from a roof-mounted sensor and returns the nearest hit, yielding point
clouds with the surface structure real scans have: dense rings on the
ground, vertical stripes on obstacles, and range-dependent sparsity — the
neighbour statistics (4-10 neighbours per voxel) that sparse convolution
performance depends on.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_rng


@dataclasses.dataclass(frozen=True)
class LidarConfig:
    """Scanner parameters.

    Defaults model a 64-beam sensor (SemanticKITTI / Waymo class); the
    nuScenes configuration uses 32 beams and fewer azimuth steps.
    """

    beams: int = 64
    azimuth_steps: int = 2048
    max_range: float = 80.0
    min_range: float = 2.0
    vertical_fov_deg: Tuple[float, float] = (-24.8, 2.0)
    sensor_height: float = 1.8
    range_noise_std: float = 0.02
    dropout: float = 0.08  # diffuse/no-return rays

    def __post_init__(self) -> None:
        if self.beams < 1 or self.azimuth_steps < 1:
            raise ValueError("beams and azimuth_steps must be >= 1")
        if self.max_range <= self.min_range:
            raise ValueError("max_range must exceed min_range")


@dataclasses.dataclass
class Box:
    """An axis-aligned obstacle."""

    center: np.ndarray  # (3,)
    size: np.ndarray  # (3,) full extents

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.size / 2

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.size / 2


@dataclasses.dataclass
class Scene:
    """A procedurally generated driving scene."""

    boxes: List[Box]
    ground_z: float = 0.0

    @classmethod
    def generate(
        cls,
        seed: SeedLike = None,
        num_vehicles: int = 24,
        num_buildings: int = 10,
        num_poles: int = 16,
        extent: float = 70.0,
    ) -> "Scene":
        """Random scene: cars near the road, buildings at the sides, poles."""
        rng = as_rng(seed)
        boxes: List[Box] = []
        for _ in range(num_vehicles):
            center_xy = rng.uniform(-extent * 0.7, extent * 0.7, 2)
            size = rng.uniform([3.5, 1.6, 1.4], [5.5, 2.2, 2.0])
            boxes.append(
                Box(np.array([*center_xy, size[2] / 2]), np.asarray(size))
            )
        for _ in range(num_buildings):
            side = rng.choice([-1.0, 1.0])
            center = np.array(
                [
                    rng.uniform(-extent, extent),
                    side * rng.uniform(14.0, extent * 0.9),
                    0.0,
                ]
            )
            size = rng.uniform([8.0, 6.0, 5.0], [25.0, 15.0, 18.0])
            center[2] = size[2] / 2
            boxes.append(Box(center, np.asarray(size)))
        for _ in range(num_poles):
            center_xy = rng.uniform(-extent * 0.8, extent * 0.8, 2)
            size = np.array([0.3, 0.3, rng.uniform(4.0, 8.0)])
            boxes.append(
                Box(np.array([*center_xy, size[2] / 2]), size)
            )
        # Perimeter walls (tree lines / facades): horizontal rays return
        # instead of escaping, as they do in real urban scans.
        wall_h = 12.0
        for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
            center = np.zeros(3)
            center[axis] = sign * extent
            center[2] = wall_h / 2
            size = np.array([2.0, 2 * extent + 4.0, wall_h])
            if axis == 1:
                size[[0, 1]] = size[[1, 0]]
            boxes.append(Box(center, size))
        return cls(boxes=boxes)

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``: the boxes' corners as two ``(len(boxes), 3)``
        arrays."""
        center = np.array([b.center for b in self.boxes]).reshape(-1, 3)
        size = np.array([b.size for b in self.boxes]).reshape(-1, 3)
        return center - size / 2, center + size / 2


def _ray_box_t(
    origins: np.ndarray, dirs: np.ndarray, box: Box
) -> np.ndarray:
    """Slab-method ray/AABB intersection; inf where missed.

    ``origins`` is ``(3,)``, ``dirs`` is ``(R, 3)``; returns ``(R,)`` entry
    distances.
    """
    with np.errstate(divide="ignore"):
        inv = 1.0 / dirs
    rays = np.arange(len(dirs))
    return _slab_t(
        origins, inv, box.lo[np.newaxis], box.hi[np.newaxis],
        np.zeros_like(rays), rays,
    )


def _slab_t(
    origins: np.ndarray,
    inv: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    box: np.ndarray,
    ray: np.ndarray,
) -> np.ndarray:
    """Entry distance of ray ``ray[p]`` into box ``box[p]``; inf where
    missed.

    ``inv`` holds the reciprocal ray directions, ``los``/``his`` the box
    corners.  ``fmax``/``fmin`` skip NaN slabs (a ray parallel to a slab
    face) exactly as ``nanmax``/``nanmin`` do, without their per-call
    overhead.
    """
    with np.errstate(invalid="ignore"):
        t0 = (los - origins)[box] * inv[ray]
        t1 = (his - origins)[box] * inv[ray]
    near = np.minimum(t0, t1)
    far = np.maximum(t0, t1)
    t_near = np.fmax(np.fmax(near[:, 0], near[:, 1]), near[:, 2])
    t_far = np.fmin(np.fmin(far[:, 0], far[:, 1]), far[:, 2])
    hit = (t_far >= t_near) & (t_far > 0)
    t = np.where(hit, np.maximum(t_near, 0.0), np.inf)
    return t


def _candidate_pairs(
    origin: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    elevations: np.ndarray,
    azimuth_steps: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(box, ray)`` index pairs covering every ray that can reach a box.

    Rays are numbered ``beam * azimuth_steps + step``.  Every elevation
    lies inside (-90°, 90°), so a ray's xy heading is its azimuth: a box
    whose xy footprint excludes the sensor is reachable only by rays
    inside the arc its corners subtend (less than π), and only by beams
    between the lowest and highest angle at which its bottom and top
    faces are seen over its xy distance range.  Both windows get a
    one-step margin on each side; a box whose footprint holds the sensor
    keeps every ray.
    """
    beams = len(elevations)
    step = 2 * math.pi / azimuth_steps
    rel_lo = los - origin
    rel_hi = his - origin
    inside = np.all((rel_lo[:, :2] <= 0) & (rel_hi[:, :2] >= 0), axis=1)

    # Azimuth window: the corner angles, unwrapped around the centre's.
    cx = np.stack([rel_lo[:, 0], rel_hi[:, 0], rel_lo[:, 0], rel_hi[:, 0]], 1)
    cy = np.stack([rel_lo[:, 1], rel_lo[:, 1], rel_hi[:, 1], rel_hi[:, 1]], 1)
    mid = np.arctan2(cy.mean(axis=1), cx.mean(axis=1))
    delta = np.arctan2(cy, cx) - mid[:, np.newaxis]
    delta = (delta + math.pi) % (2 * math.pi) - math.pi
    az_first = np.floor((mid + delta.min(axis=1)) / step).astype(np.int64) - 1
    az_last = np.ceil((mid + delta.max(axis=1)) / step).astype(np.int64) + 1
    az_count = az_last - az_first + 1
    whole = inside | (az_count >= azimuth_steps)
    az_first = np.where(whole, 0, az_first)
    az_count = np.where(whole, azimuth_steps, az_count)

    # Beam window: the bottom face seen lowest and the top face highest
    # over the nearest (r_near) and farthest (r_far) xy distance.
    gap = np.maximum(np.maximum(rel_lo[:, :2], -rel_hi[:, :2]), 0.0)
    r_near = np.hypot(gap[:, 0], gap[:, 1])
    reach = np.maximum(np.abs(rel_lo[:, :2]), np.abs(rel_hi[:, :2]))
    r_far = np.hypot(reach[:, 0], reach[:, 1])
    z_lo, z_hi = rel_lo[:, 2], rel_hi[:, 2]
    el_lo = np.arctan2(z_lo, np.where(z_lo >= 0, r_far, r_near))
    el_hi = np.arctan2(z_hi, np.where(z_hi >= 0, r_near, r_far))
    beam_first = np.maximum(
        np.searchsorted(elevations, el_lo, side="left") - 1, 0
    )
    beam_stop = np.minimum(
        np.searchsorted(elevations, el_hi, side="right") + 1, beams
    )
    beam_first = np.where(inside, 0, beam_first)
    beam_count = np.where(inside, beams, beam_stop - beam_first)

    counts = az_count * beam_count
    box = np.repeat(np.arange(len(los)), counts)
    k = np.arange(len(box)) - np.repeat(np.cumsum(counts) - counts, counts)
    width = az_count[box]
    beam = beam_first[box] + k // width
    az = (az_first[box] + k % width) % azimuth_steps
    return box, beam * azimuth_steps + az


def lidar_scan(
    config: LidarConfig = LidarConfig(),
    scene: Optional[Scene] = None,
    seed: SeedLike = None,
    ego_offset: Tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Simulate one LiDAR sweep; returns ``(N, 4)`` of xyz + intensity.

    ``ego_offset`` shifts the sensor in the scene (multi-frame sequences
    move the ego vehicle between sweeps, as real multi-frame models see).
    """
    rng = as_rng(seed)
    if scene is None:
        scene = Scene.generate(rng)

    lo_deg, hi_deg = config.vertical_fov_deg
    elevations = np.deg2rad(np.linspace(lo_deg, hi_deg, config.beams))
    azimuths = np.linspace(0, 2 * math.pi, config.azimuth_steps, endpoint=False)
    el, az = np.meshgrid(elevations, azimuths, indexing="ij")
    dirs = np.stack(
        [
            np.cos(el) * np.cos(az),
            np.cos(el) * np.sin(az),
            np.sin(el),
        ],
        axis=-1,
    ).reshape(-1, 3)
    origin = np.array(
        [ego_offset[0], ego_offset[1], config.sensor_height + scene.ground_z]
    )

    # Ground-plane hits, then one slab test over the candidate (box, ray)
    # pairs, folded in per ray with an exact, order-free minimum.
    dz = dirs[:, 2]
    with np.errstate(divide="ignore"):
        t_best = np.where(
            dz < -1e-6, (scene.ground_z - origin[2]) / dz, np.inf
        )
        inv = 1.0 / dirs
    los, his = scene.bounds()
    box, ray = _candidate_pairs(
        origin, los, his, elevations, config.azimuth_steps
    )
    np.minimum.at(t_best, ray, _slab_t(origin, inv, los, his, box, ray))

    valid = (t_best > config.min_range) & (t_best < config.max_range)
    keep = rng.random(len(dirs)) > config.dropout
    valid &= keep
    t_hit = t_best[valid] + rng.normal(
        0.0, config.range_noise_std, np.count_nonzero(valid)
    )
    points = origin + dirs[valid] * t_hit[:, np.newaxis]
    intensity = np.clip(
        rng.normal(0.3, 0.15, len(points))
        + 0.4 * (points[:, 2] > 0.5),  # obstacles reflect brighter
        0.0,
        1.0,
    )
    return np.concatenate([points, intensity[:, np.newaxis]], axis=1)


#: Preset scanner configurations matching the paper's sensor classes.
LIDAR_64_BEAM = LidarConfig(beams=64, azimuth_steps=2048, max_range=80.0)
LIDAR_32_BEAM = LidarConfig(
    beams=32, azimuth_steps=1090, max_range=70.0,
    vertical_fov_deg=(-30.0, 10.0),
)
