"""Tests for the Sparse Kernel Generator: IR, passes, emission, tiling."""

import numpy as np
import pytest

from repro.codegen import (
    GeneratedKernel,
    SparseKernelGenerator,
    TILE_CANDIDATES,
    adaptive_schedule,
    enumerate_schedules,
    tune_tile_size,
    utilization_vs_cublas,
)
from repro.codegen import passes as P
from repro.codegen.ir import ForLoop, IntOp, Predicate
from repro.codegen.source import line_count
from repro.codegen.templates import implicit_gemm_template, wgrad_template
from repro.errors import CodegenError
from repro.hw import RTX_3090
from repro.kernels.base import (
    ADDRESS_OPS_FIXED_SHAPE,
    ADDRESS_OPS_HOISTED,
    ADDRESS_OPS_NAIVE_DYNAMIC,
    BOUNDARY_CHECK_OPS,
    KernelSchedule,
    LARGE_TILE,
    SMALL_TILE,
)
from repro.precision import Precision
from repro.sparse.kmap import build_kernel_map


NAIVE = KernelSchedule(hoist_invariants=False, pad_maps=False)
HOISTED_UNPADDED = KernelSchedule(hoist_invariants=True, pad_maps=False)
DEFAULT = KernelSchedule()
FIXED = KernelSchedule(fixed_shape=True)


class TestTemplates:
    def test_naive_innermost_cost_matches_constant(self):
        program = implicit_gemm_template(NAIVE, dynamic_shape=True)
        assert P.innermost_address_ops(program) == ADDRESS_OPS_NAIVE_DYNAMIC
        assert P.innermost_boundary_ops(program) == BOUNDARY_CHECK_OPS

    def test_innermost_is_ldA(self):
        program = implicit_gemm_template(DEFAULT)
        assert program.innermost().var == "ldA"

    def test_wgrad_has_two_indirect_operands(self):
        program = wgrad_template(DEFAULT)
        from repro.codegen.ir import Load

        indirect = [
            n for n in program.walk()
            if isinstance(n, Load) and n.indirect
        ]
        assert len(indirect) >= 3  # map + A + B


class TestPasses:
    def test_hoisting_leaves_only_inner_dependent_ops(self):
        program = implicit_gemm_template(NAIVE)
        hoisted = P.hoist_loop_invariants(program)
        assert P.innermost_address_ops(hoisted) == ADDRESS_OPS_HOISTED

    def test_hoisting_preserves_total_op_census(self):
        program = implicit_gemm_template(NAIVE)
        hoisted = P.hoist_loop_invariants(program)
        assert P.count_nodes(hoisted)["intops"] == P.count_nodes(program)["intops"]

    def test_hoisting_does_not_move_boundary_checks(self):
        program = implicit_gemm_template(NAIVE)
        hoisted = P.hoist_loop_invariants(program)
        assert P.innermost_boundary_ops(hoisted) == BOUNDARY_CHECK_OPS

    def test_boundary_elimination_keeps_guarded_loads(self):
        program = implicit_gemm_template(NAIVE)
        stripped = P.eliminate_boundary_checks(program)
        assert P.count_nodes(stripped)["predicates"] == 0
        assert P.count_nodes(stripped)["loads"] == P.count_nodes(program)["loads"]

    def test_constant_fold_reduces_div_mod(self):
        program = implicit_gemm_template(NAIVE)
        folded = P.constant_fold(program)
        assert P.innermost_address_ops(folded) < P.innermost_address_ops(program)

    def test_double_buffer_marks_k_loop(self):
        program = implicit_gemm_template(DEFAULT)
        buffered = P.double_buffer(program)
        assert buffered.find_loop("k_inner").pipelined

    def test_double_buffer_requires_k_loop(self):
        bogus = ForLoop(var="i", extent=4, body=[IntOp("x = 1")])
        with pytest.raises(CodegenError):
            P.double_buffer(bogus)

    def test_passes_are_pure(self):
        program = implicit_gemm_template(NAIVE)
        before = P.innermost_address_ops(program)
        P.hoist_loop_invariants(program)
        P.eliminate_boundary_checks(program)
        P.constant_fold(program)
        assert P.innermost_address_ops(program) == before


class TestGenerator:
    @pytest.fixture()
    def generator(self):
        return SparseKernelGenerator()

    def test_default_kernel_is_fully_optimized(self, generator):
        kernel = generator.generate("implicit_gemm", DEFAULT)
        assert kernel.address_ops_per_element == ADDRESS_OPS_HOISTED
        assert kernel.boundary_ops_per_element == 0.0

    def test_naive_kernel_costs(self, generator):
        kernel = generator.generate("implicit_gemm", NAIVE)
        assert kernel.address_ops_per_element == ADDRESS_OPS_NAIVE_DYNAMIC
        assert kernel.boundary_ops_per_element == BOUNDARY_CHECK_OPS

    def test_fixed_shape_kernel_costs(self, generator):
        kernel = generator.generate("implicit_gemm", FIXED)
        assert kernel.address_ops_per_element == ADDRESS_OPS_FIXED_SHAPE
        assert kernel.boundary_ops_per_element == 0.0

    def test_hoisted_dynamic_beats_fixed_shape(self, generator):
        # Figure 20: the hoisted dynamic kernel slightly outperforms the
        # original fixed-shape kernel.
        dyn = generator.generate("implicit_gemm", DEFAULT)
        fixed = generator.generate("implicit_gemm", FIXED)
        assert dyn.address_ops_per_element < fixed.address_ops_per_element

    def test_source_emission(self, generator):
        kernel = generator.generate("implicit_gemm", DEFAULT)
        assert "__global__" in kernel.source
        assert "mma.sync" in kernel.source
        assert "[red]" in kernel.source and "[blue]" in kernel.source
        assert kernel.source_lines == line_count(kernel.source)

    def test_fetch_on_demand_template_generates(self, generator):
        kernel = generator.generate("fetch_on_demand", DEFAULT)
        assert "atomicAdd" in kernel.source

    def test_unknown_template_raises(self, generator):
        with pytest.raises(CodegenError):
            generator.generate("winograd")

    def test_engineering_cost_far_below_spconv2(self, generator):
        report = generator.engineering_cost_report()
        ours = report["torchsparsepp_generator_lines"]
        theirs = report["spconv2_metaprogrammer_lines"]
        assert ours < 0.1 * theirs  # "less than one-tenth" (abstract)

    def test_schedules_name_mangling(self, generator):
        kernel = generator.generate("implicit_gemm", SMALL_TILE)
        assert "m64n32k16" in kernel.name


class TestTiling:
    def test_enumerate_covers_candidates(self):
        schedules = enumerate_schedules()
        assert len(schedules) == len(TILE_CANDIDATES)
        assert all(s.warp_rows <= s.tile_m for s in schedules)

    def test_adaptive_picks_large_for_heavy(self):
        heavy = adaptive_schedule(1e10)
        light = adaptive_schedule(1e6)
        assert heavy.tile_m * heavy.tile_n > light.tile_m * light.tile_n
        assert heavy == LARGE_TILE and light == SMALL_TILE

    def test_adaptive_preserves_base_flags(self):
        base = KernelSchedule(pad_maps=False)
        assert adaptive_schedule(1e10, base).pad_maps is False

    def test_tile_tuning_large_gemm_prefers_big_tiles(self):
        best = tune_tile_size(65536, 1728, 256, RTX_3090, Precision.FP16)
        assert best.tile_m * best.tile_n >= 64 * 64

    def test_tile_tuning_small_gemm_prefers_small_tiles(self):
        best = tune_tile_size(512, 64, 16, RTX_3090, Precision.FP16)
        assert best.tile_m <= 64


class TestUtilization:
    def test_tuned_sparse_kernel_near_cublas(self):
        # Figure 8: tile-size tuning alone reaches ~cuBLAS utilization.
        rng = np.random.default_rng(0)
        n_points = 2000
        coords = np.unique(
            np.concatenate(
                [
                    np.zeros((n_points, 1), dtype=np.int32),
                    rng.integers(0, 40, (n_points, 3)).astype(np.int32),
                ],
                axis=1,
            ),
            axis=0,
        )
        kmap = build_kernel_map(coords, kernel_size=3)
        c = 64
        ratio = utilization_vs_cublas(kmap, c, c, RTX_3090, Precision.FP16)
        assert ratio > 0.5  # within 2x of dense utilization at minimum
