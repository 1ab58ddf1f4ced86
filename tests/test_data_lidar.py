"""Tests for the synthetic LiDAR scanner and dataset configurations."""

import dataclasses
import math

import numpy as np
import pytest

from repro.data import DATASETS, LidarConfig, Scene, lidar_scan, make_sample
from repro.data.datasets import make_batch
from repro.data.lidar import (
    LIDAR_32_BEAM,
    LIDAR_64_BEAM,
    Box,
    _candidate_pairs,
    _ray_box_t,
)
from repro.errors import ConfigError


class TestRayBox:
    def test_direct_hit(self):
        box = Box(center=np.array([10.0, 0.0, 1.0]), size=np.array([2.0, 2.0, 2.0]))
        dirs = np.array([[1.0, 0.0, 0.0]])
        t = _ray_box_t(np.zeros(3), dirs, box)
        assert t[0] == pytest.approx(9.0)

    def test_miss_is_inf(self):
        box = Box(center=np.array([10.0, 10.0, 1.0]), size=np.array([1.0, 1.0, 1.0]))
        dirs = np.array([[1.0, 0.0, 0.0]])
        assert np.isinf(_ray_box_t(np.zeros(3), dirs, box))[0]

    def test_behind_ray_is_inf(self):
        box = Box(center=np.array([-10.0, 0.0, 0.0]), size=np.array([1.0, 1.0, 1.0]))
        dirs = np.array([[1.0, 0.0, 0.0]])
        assert np.isinf(_ray_box_t(np.zeros(3), dirs, box))[0]

    def test_axis_parallel_ray_inside_slab(self):
        box = Box(center=np.array([5.0, 0.0, 0.0]), size=np.array([2.0, 2.0, 2.0]))
        dirs = np.array([[1.0, 0.0, 0.0]])  # zero y/z components
        t = _ray_box_t(np.zeros(3), dirs, box)
        assert t[0] == pytest.approx(4.0)


class TestLidarScan:
    def test_returns_points_with_intensity(self):
        points = lidar_scan(LidarConfig(beams=16, azimuth_steps=128), seed=0)
        assert points.shape[1] == 4
        assert len(points) > 100

    def test_respects_max_range(self):
        config = LidarConfig(beams=16, azimuth_steps=128, max_range=30.0)
        points = lidar_scan(config, seed=0)
        ranges = np.linalg.norm(points[:, :2], axis=1)
        assert ranges.max() < 31.0

    def test_deterministic_per_seed(self):
        scene = Scene.generate(seed=3)
        a = lidar_scan(LidarConfig(beams=8, azimuth_steps=64), scene, seed=1)
        b = lidar_scan(LidarConfig(beams=8, azimuth_steps=64), scene, seed=1)
        assert np.array_equal(a, b)

    def test_ego_offset_shifts_origin(self):
        scene = Scene.generate(seed=3)
        a = lidar_scan(LidarConfig(beams=8, azimuth_steps=64), scene, seed=1)
        b = lidar_scan(
            LidarConfig(beams=8, azimuth_steps=64), scene, seed=1,
            ego_offset=(5.0, 0.0),
        )
        assert not np.array_equal(a, b)

    def test_64_beam_denser_than_32(self):
        scene = Scene.generate(seed=0)
        dense = lidar_scan(LIDAR_64_BEAM, scene, seed=1)
        sparse = lidar_scan(LIDAR_32_BEAM, scene, seed=1)
        assert len(dense) > 2 * len(sparse)

    def test_ground_points_near_zero_height(self):
        # Empty scene: every downward ray returns a ground point at z ~ 0.
        empty = Scene(boxes=[])
        points = lidar_scan(
            LidarConfig(beams=32, azimuth_steps=256), empty, seed=4
        )
        assert len(points) > 0
        assert np.abs(points[:, 2]).max() < 0.5

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LidarConfig(beams=0)
        with pytest.raises(ValueError):
            LidarConfig(max_range=1.0, min_range=2.0)


def reference_scan(config, scene, seed):
    """``lidar_scan`` with a reciprocal per box and ``nanmax``/``nanmin``
    slab reductions: the oracle for the one-reciprocal scanner."""
    rng = np.random.default_rng(seed)
    lo_deg, hi_deg = config.vertical_fov_deg
    elevations = np.deg2rad(np.linspace(lo_deg, hi_deg, config.beams))
    azimuths = np.linspace(0, 2 * math.pi, config.azimuth_steps, endpoint=False)
    el, az = np.meshgrid(elevations, azimuths, indexing="ij")
    dirs = np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)],
        axis=-1,
    ).reshape(-1, 3)
    origin = np.array([0.0, 0.0, config.sensor_height + scene.ground_z])
    dz = dirs[:, 2]
    with np.errstate(divide="ignore"):
        t_best = np.where(dz < -1e-6, (scene.ground_z - origin[2]) / dz, np.inf)
    for box in scene.boxes:
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
            t0 = (box.lo - origin) * inv
            t1 = (box.hi - origin) * inv
        t_near = np.nanmax(np.minimum(t0, t1), axis=1)
        t_far = np.nanmin(np.maximum(t0, t1), axis=1)
        hit = (t_far >= t_near) & (t_far > 0)
        t_best = np.minimum(
            t_best, np.where(hit, np.maximum(t_near, 0.0), np.inf)
        )
    valid = (t_best > config.min_range) & (t_best < config.max_range)
    valid &= rng.random(len(dirs)) > config.dropout
    t_hit = t_best[valid] + rng.normal(
        0.0, config.range_noise_std, np.count_nonzero(valid)
    )
    points = origin + dirs[valid] * t_hit[:, np.newaxis]
    intensity = np.clip(
        rng.normal(0.3, 0.15, len(points)) + 0.4 * (points[:, 2] > 0.5),
        0.0,
        1.0,
    )
    return np.concatenate([points, intensity[:, np.newaxis]], axis=1)


class TestScanMatchesReference:
    @pytest.mark.parametrize("config", [LIDAR_64_BEAM, LIDAR_32_BEAM])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_byte_identical(self, config, seed):
        scene = Scene.generate(seed=seed)
        got = lidar_scan(config, scene, seed=seed + 100)
        want = reference_scan(config, scene, seed + 100)
        assert got.tobytes() == want.tobytes()


def per_box_scan(config, scene, seed, ego_offset=(0.0, 0.0)):
    """``lidar_scan`` with the slab test of every box run against every
    ray, box by box: the oracle for the windowed candidate-pair scan."""
    rng = np.random.default_rng(seed)
    lo_deg, hi_deg = config.vertical_fov_deg
    elevations = np.deg2rad(np.linspace(lo_deg, hi_deg, config.beams))
    azimuths = np.linspace(0, 2 * math.pi, config.azimuth_steps, endpoint=False)
    el, az = np.meshgrid(elevations, azimuths, indexing="ij")
    dirs = np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)],
        axis=-1,
    ).reshape(-1, 3)
    origin = np.array(
        [ego_offset[0], ego_offset[1], config.sensor_height + scene.ground_z]
    )
    dz = dirs[:, 2]
    with np.errstate(divide="ignore"):
        t_best = np.where(dz < -1e-6, (scene.ground_z - origin[2]) / dz, np.inf)
        inv = 1.0 / dirs
    for box in scene.boxes:
        with np.errstate(invalid="ignore"):
            t0 = (box.lo - origin) * inv
            t1 = (box.hi - origin) * inv
        near = np.minimum(t0, t1)
        far = np.maximum(t0, t1)
        t_near = np.fmax(np.fmax(near[:, 0], near[:, 1]), near[:, 2])
        t_far = np.fmin(np.fmin(far[:, 0], far[:, 1]), far[:, 2])
        hit = (t_far >= t_near) & (t_far > 0)
        t_best = np.minimum(
            t_best, np.where(hit, np.maximum(t_near, 0.0), np.inf)
        )
    valid = (t_best > config.min_range) & (t_best < config.max_range)
    valid &= rng.random(len(dirs)) > config.dropout
    t_hit = t_best[valid] + rng.normal(
        0.0, config.range_noise_std, np.count_nonzero(valid)
    )
    points = origin + dirs[valid] * t_hit[:, np.newaxis]
    intensity = np.clip(
        rng.normal(0.3, 0.15, len(points)) + 0.4 * (points[:, 2] > 0.5),
        0.0,
        1.0,
    )
    return np.concatenate([points, intensity[:, np.newaxis]], axis=1)


def scaled(config, scale):
    """``config`` at ``make_sample``'s reduced azimuth resolution."""
    steps = max(16, int(config.azimuth_steps * scale))
    return dataclasses.replace(config, azimuth_steps=steps)


def one_box(center, size):
    return Scene(boxes=[Box(np.array(center), np.array(size))])


#: Scenes that put boxes where the windows are hardest to get right.
EDGE_SCENES = {
    "sensor-inside-box": one_box([0.0, 0.0, 1.0], [4.0, 3.0, 2.0]),
    "canopy-over-sensor": one_box([1.0, 0.0, 4.0], [6.0, 6.0, 1.0]),
    "straddles-azimuth-0": one_box([20.0, 0.0, 2.0], [4.0, 6.0, 4.0]),
    "behind-sensor": one_box([-20.0, 0.0, 2.0], [4.0, 6.0, 4.0]),
    "taller-than-sensor": one_box([10.0, 5.0, 10.0], [4.0, 6.0, 20.0]),
    "face-through-sensor": one_box([8.0, 1.5, 3.0], [4.0, 3.0, 6.0]),
    "floats-above-sensor": one_box([6.0, 0.0, 2.6], [4.0, 4.0, 0.6]),
    "empty": Scene(boxes=[]),
}

OFFSETS = [0.0, -0.6, -5.4]


class TestWindowedScanMatchesPerBoxLoop:
    """The candidate-pair scan is byte-identical to the per-box full loop."""

    @pytest.mark.parametrize("config", [LIDAR_64_BEAM, LIDAR_32_BEAM])
    @pytest.mark.parametrize("scale", [0.1, 0.05])
    @pytest.mark.parametrize("seed", range(10))
    def test_generated_scenes(self, config, scale, seed):
        config = scaled(config, scale)
        scene = Scene.generate(seed=seed)
        for dx in OFFSETS:
            got = lidar_scan(config, scene, seed=seed, ego_offset=(dx, 0.0))
            want = per_box_scan(config, scene, seed, ego_offset=(dx, 0.0))
            assert got.tobytes() == want.tobytes(), dx

    @pytest.mark.parametrize("config", [LIDAR_64_BEAM, LIDAR_32_BEAM])
    def test_full_size_scan(self, config):
        scene = Scene.generate(seed=0)
        for dx in OFFSETS:
            got = lidar_scan(config, scene, seed=0, ego_offset=(dx, 0.0))
            want = per_box_scan(config, scene, 0, ego_offset=(dx, 0.0))
            assert got.tobytes() == want.tobytes(), dx

    @pytest.mark.parametrize("config", [LIDAR_64_BEAM, LIDAR_32_BEAM])
    @pytest.mark.parametrize("scale", [1.0, 0.1])
    @pytest.mark.parametrize("name", sorted(EDGE_SCENES))
    def test_edge_scenes(self, config, scale, name):
        config = scaled(config, scale)
        scene = EDGE_SCENES[name]
        for dx in OFFSETS:
            got = lidar_scan(config, scene, seed=5, ego_offset=(dx, 0.0))
            want = per_box_scan(config, scene, 5, ego_offset=(dx, 0.0))
            assert got.tobytes() == want.tobytes(), dx


class TestCandidatePairs:
    def inputs(self, config, scene, dx=0.0):
        origin = np.array([dx, 0.0, config.sensor_height])
        elevations = np.deg2rad(
            np.linspace(*config.vertical_fov_deg, config.beams)
        )
        los, his = scene.bounds()
        return origin, los, his, elevations

    @pytest.mark.parametrize(
        "scene",
        [Scene.generate(seed=seed) for seed in range(4)]
        + [EDGE_SCENES[name] for name in sorted(EDGE_SCENES)],
    )
    @pytest.mark.parametrize("dx", OFFSETS)
    def test_every_hit_is_a_candidate(self, scene, dx):
        # Conservative windows: each (box, ray) the full slab test hits
        # is among the candidates, not only each ray's nearest hit.
        config = LidarConfig(
            beams=48, azimuth_steps=160, vertical_fov_deg=(-30.0, 30.0)
        )
        origin, los, his, elevations = self.inputs(config, scene, dx)
        box, ray = _candidate_pairs(
            origin, los, his, elevations, config.azimuth_steps
        )
        candidates = set(zip(box.tolist(), ray.tolist()))
        el, az = np.meshgrid(
            elevations,
            np.linspace(0, 2 * math.pi, config.azimuth_steps, endpoint=False),
            indexing="ij",
        )
        dirs = np.stack(
            [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)],
            axis=-1,
        ).reshape(-1, 3)
        for b, obstacle in enumerate(scene.boxes):
            hits = np.flatnonzero(np.isfinite(_ray_box_t(origin, dirs, obstacle)))
            assert {(b, r) for r in hits.tolist()} <= candidates, b

    def test_windows_skip_most_pairs(self):
        config = LIDAR_64_BEAM
        scene = Scene.generate(seed=0)
        origin, los, his, elevations = self.inputs(config, scene)
        box, ray = _candidate_pairs(
            origin, los, his, elevations, config.azimuth_steps
        )
        every = len(scene.boxes) * config.beams * config.azimuth_steps
        assert len(box) < every // 20
        assert len(set(zip(box.tolist(), ray.tolist()))) == len(box)

    def test_sensor_inside_box_keeps_every_ray(self):
        config = LidarConfig(beams=8, azimuth_steps=64)
        scene = EDGE_SCENES["sensor-inside-box"]
        box, ray = _candidate_pairs(*self.inputs(config, scene), 64)
        assert np.array_equal(np.sort(ray), np.arange(8 * 64))

    def test_no_boxes_no_pairs(self):
        config = LidarConfig(beams=8, azimuth_steps=64)
        box, ray = _candidate_pairs(*self.inputs(config, Scene(boxes=[])), 64)
        assert len(box) == len(ray) == 0


class TestDatasets:
    def test_all_datasets_produce_samples(self):
        for name, config in DATASETS.items():
            sample = make_sample(name, seed=0)
            assert sample.num_points > 1000, name
            assert sample.num_channels == config.in_channels

    def test_multiframe_densifies(self):
        one = make_sample("nuscenes", frames=1, seed=0)
        three = make_sample("nuscenes", frames=3, seed=0)
        assert three.num_points > 1.5 * one.num_points

    def test_waymo_has_five_channels(self):
        assert make_sample("waymo", seed=0).num_channels == 5

    def test_batch_indices(self):
        batch = make_batch("nuscenes", batch_size=2, seed=0)
        assert batch.batch_size == 2
        assert set(np.unique(batch.coords[:, 0])) == {0, 1}

    def test_unknown_dataset(self):
        with pytest.raises(ConfigError):
            make_sample("kitti360")

    def test_invalid_frames(self):
        with pytest.raises(ConfigError):
            make_sample("waymo", frames=0)

    def test_voxel_neighbour_statistics_realistic(self):
        # Paper: points typically have 4-10 neighbours under Delta^3(3).
        from repro.sparse.kmap import build_kernel_map

        sample = make_sample("semantickitti", seed=0)
        kmap = build_kernel_map(sample.coords[:20000], kernel_size=3)
        assert 3.0 < kmap.mean_neighbors < 12.0
