"""Tests for the synthetic LiDAR scanner and dataset configurations."""

import math

import numpy as np
import pytest

from repro.data import DATASETS, LidarConfig, Scene, lidar_scan, make_sample
from repro.data.datasets import make_batch
from repro.data.lidar import LIDAR_32_BEAM, LIDAR_64_BEAM, Box, _ray_box_t
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
