"""Cross-dataflow numerical equivalence tests.

Every dataflow must compute exactly the same sparse convolution; this module
checks them against a brute-force dense reference and against each other,
over random geometries, strides, kernel sizes and precisions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    ImplicitGemmConfig,
    fetch_on_demand_trace,
    gather_gemm_scatter_trace,
    implicit_gemm_trace,
    run_dataflow,
)
from repro.kernels.base import KernelSchedule
from repro.precision import Precision
from repro.sparse.kmap import build_kernel_map
from repro.sparse.kernel_offsets import kernel_offsets


def random_coords(n, ndim=3, extent=12, batches=1, seed=0):
    rng = np.random.default_rng(seed)
    spatial = rng.integers(0, extent, size=(4 * n, ndim))
    batch = rng.integers(0, batches, size=(4 * n, 1))
    coords = np.concatenate([batch, spatial], axis=1).astype(np.int32)
    unique = np.unique(coords, axis=0)
    rng.shuffle(unique)
    return unique[:n]


def dense_reference(coords, feats, weights, kmap):
    """Brute-force evaluation of Equation 1 via the map's own pairs-free
    definition: direct coordinate arithmetic against the offset table."""
    out = np.zeros((kmap.num_outputs, weights.shape[2]), dtype=np.float64)
    lookup = {tuple(c): i for i, c in enumerate(coords.tolist())}
    for n, q in enumerate(kmap.out_coords):
        for k, delta in enumerate(kmap.offsets):
            p = (q[0], *(q[1:] + delta))
            j = lookup.get(tuple(int(v) for v in p))
            if j is not None:
                out[n] += feats[j].astype(np.float64) @ weights[k].astype(np.float64)
    return out


@pytest.fixture(scope="module")
def workload():
    coords = random_coords(60, seed=1)
    rng = np.random.default_rng(2)
    c_in, c_out = 5, 7
    feats = rng.standard_normal((len(coords), c_in)).astype(np.float32)
    weights = rng.standard_normal((27, c_in, c_out)).astype(np.float32) * 0.1
    kmap = build_kernel_map(coords, kernel_size=3)
    return coords, feats, weights, kmap


IG = "implicit_gemm"
ALL_DATAFLOWS = [
    "gather_scatter",
    "gather_scatter_fused",
    "fetch_on_demand",
    "fetch_on_demand_unfused",
    "implicit_gemm",
]


class TestAgainstDenseReference:
    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS)
    def test_submanifold_matches_reference(self, workload, dataflow):
        coords, feats, weights, kmap = workload
        expected = dense_reference(coords, feats, weights, kmap)
        out, _ = run_dataflow(dataflow, feats, weights, kmap)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS)
    def test_strided_matches_reference(self, dataflow):
        coords = random_coords(50, seed=5)
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((len(coords), 4)).astype(np.float32)
        weights = rng.standard_normal((8, 4, 6)).astype(np.float32) * 0.1
        kmap = build_kernel_map(coords, kernel_size=2, stride=2)
        expected = dense_reference(coords, feats, weights, kmap)
        out, _ = run_dataflow(dataflow, feats, weights, kmap)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_2d_convolution(self):
        coords = random_coords(30, ndim=2, seed=9)
        rng = np.random.default_rng(10)
        feats = rng.standard_normal((len(coords), 3)).astype(np.float32)
        weights = rng.standard_normal((9, 3, 3)).astype(np.float32) * 0.1
        kmap = build_kernel_map(coords, kernel_size=3)
        expected = dense_reference(coords, feats, weights, kmap)
        out, _ = run_dataflow(IG, feats, weights, kmap)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)


class TestCrossDataflowAgreement:
    # Pairwise dataflow-vs-gather_scatter checks moved to the differential
    # grid in test_dataflow_differential.py, which compares every
    # registered dataflow against the dense reference instead.

    @pytest.mark.parametrize("split", [0, 1, 2, 3, 4])
    def test_splits_do_not_change_results(self, workload, split):
        _, feats, weights, kmap = workload
        base, _ = run_dataflow(IG, feats, weights, kmap)
        cfg = ImplicitGemmConfig.from_paper_notation(split)
        out, _ = run_dataflow(IG, feats, weights, kmap, ig_config=cfg)
        np.testing.assert_allclose(out, base, rtol=1e-6)

    def test_fp16_storage_quantizes(self, workload):
        _, feats, weights, kmap = workload
        out16, _ = run_dataflow(IG, feats, weights, kmap, precision=Precision.FP16)
        out32, _ = run_dataflow(IG, feats, weights, kmap, precision=Precision.FP32)
        assert out16.dtype == np.float16
        assert out32.dtype == np.float32
        np.testing.assert_allclose(
            out16.astype(np.float32), out32, rtol=2e-2, atol=2e-2
        )

    def test_empty_offsets_handled(self):
        # Two isolated points: only the identity offset has pairs.
        coords = np.array([[0, 0, 0, 0], [0, 9, 9, 9]], dtype=np.int32)
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((2, 3)).astype(np.float32)
        weights = rng.standard_normal((27, 3, 4)).astype(np.float32)
        kmap = build_kernel_map(coords, kernel_size=3)
        expected = feats @ weights[13]
        for dataflow in ALL_DATAFLOWS:
            out, _ = run_dataflow(dataflow, feats, weights, kmap)
            np.testing.assert_allclose(out, expected, rtol=1e-5)

    @given(
        seed=st.integers(0, 1000),
        c_in=st.integers(1, 8),
        c_out=st.integers(1, 8),
        kernel=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_all_dataflows_agree(self, seed, c_in, c_out, kernel):
        coords = random_coords(25, extent=6, seed=seed)
        rng = np.random.default_rng(seed + 1)
        feats = rng.standard_normal((len(coords), c_in)).astype(np.float32)
        volume = kernel ** 3
        weights = rng.standard_normal((volume, c_in, c_out)).astype(np.float32)
        kmap = build_kernel_map(coords, kernel_size=kernel)
        results = [
            run_dataflow(d, feats, weights, kmap)[0] for d in ALL_DATAFLOWS
        ]
        for other in results[1:]:
            np.testing.assert_allclose(other, results[0], rtol=1e-4, atol=1e-5)


class TestTraceShapes:
    def test_gather_scatter_three_launches_per_offset(self, workload):
        _, feats, weights, kmap = workload
        trace = gather_gemm_scatter_trace(kmap, *weights.shape[1:], fused=False)
        nonempty = int(np.count_nonzero(kmap.map_sizes))
        assert len(trace) == 3 * nonempty + 1  # + writeback

    def test_fused_gather_scatter_fewer_launches(self, workload):
        _, feats, weights, kmap = workload
        plain = gather_gemm_scatter_trace(kmap, *weights.shape[1:], fused=False)
        fused = gather_gemm_scatter_trace(kmap, *weights.shape[1:], fused=True)
        assert len(fused) < len(plain)

    def test_fetch_on_demand_fused_single_compute_launch(self, workload):
        _, feats, weights, kmap = workload
        trace = fetch_on_demand_trace(kmap, *weights.shape[1:], block_fused=True)
        assert len(trace) == 2  # fused compute + writeback

    def test_fetch_on_demand_write_amplification(self, workload):
        _, feats, weights, kmap = workload
        fod = fetch_on_demand_trace(kmap, *weights.shape[1:])
        ig = implicit_gemm_trace(kmap, *weights.shape[1:])
        fod_main = fod.filter_name("fused").launches[0]
        ig_main = ig.filter_name("main").launches[0]
        fod_writes = fod_main.atomic_write_bytes + fod_main.dram_write_bytes
        ig_writes = ig_main.atomic_write_bytes + ig_main.dram_write_bytes
        # Write amplification equals mean neighbour count (4-10x in real
        # workloads; ~1.8x in this tiny fixture).
        assert fod_writes == pytest.approx(ig_writes * kmap.mean_neighbors)

    def test_implicit_gemm_has_minimum_writes(self, workload):
        _, feats, weights, kmap = workload
        cfg = ImplicitGemmConfig(num_splits=1, sort=False)
        trace = implicit_gemm_trace(kmap, *weights.shape[1:], config=cfg)
        main = trace.filter_name("main").launches[0]
        c_out = weights.shape[2]
        assert main.dram_write_bytes == pytest.approx(
            4 * kmap.num_outputs * c_out
        )

    def test_sorting_adds_mapping_launches(self, workload):
        _, feats, weights, kmap = workload
        unsorted = implicit_gemm_trace(
            kmap, *weights.shape[1:], config=ImplicitGemmConfig(sort=False)
        )
        sorted_ = implicit_gemm_trace(
            kmap, *weights.shape[1:], config=ImplicitGemmConfig(sort=True)
        )
        assert len(sorted_.filter_name("mapping")) == 3
        assert len(unsorted.filter_name("mapping")) == 0

    def test_splits_add_reduction(self, workload):
        _, feats, weights, kmap = workload
        trace = implicit_gemm_trace(
            kmap, *weights.shape[1:], config=ImplicitGemmConfig(num_splits=3)
        )
        assert len(trace.filter_name("reduce")) == 1

    def test_sorting_reduces_issued_flops(self):
        coords = random_coords(600, extent=16, seed=3)
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((len(coords), 16)).astype(np.float32)
        weights = rng.standard_normal((27, 16, 16)).astype(np.float32)
        kmap = build_kernel_map(coords, kernel_size=3)
        schedule = KernelSchedule(tile_m=32, warp_rows=32)
        unsorted = implicit_gemm_trace(
            kmap, *weights.shape[1:], schedule,
            config=ImplicitGemmConfig(sort=False),
        )
        sorted_ = implicit_gemm_trace(
            kmap, *weights.shape[1:], schedule,
            config=ImplicitGemmConfig(sort=True),
        )
        unsorted_flops = unsorted.filter_name("main").summary().flops
        sorted_flops = sorted_.filter_name("main").summary().flops
        assert sorted_flops < unsorted_flops

    def test_online_reorder_adds_scalar_ops(self, workload):
        _, feats, weights, kmap = workload
        offline = implicit_gemm_trace(
            kmap, *weights.shape[1:],
            config=ImplicitGemmConfig(sort=True, offline_reorder=True),
        )
        online = implicit_gemm_trace(
            kmap, *weights.shape[1:],
            config=ImplicitGemmConfig(sort=True, offline_reorder=False),
        )
        off_main = offline.filter_name("main").summary().scalar_ops
        on_main = online.filter_name("main").summary().scalar_ops
        assert on_main > off_main
        # ... and offline has the extra reorder launch instead.
        assert len(offline.filter_name("reorder")) == 1
        assert len(online.filter_name("reorder")) == 0
