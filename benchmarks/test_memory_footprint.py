"""Memory-footprint crossover grid: dataflow x device x batch size.

Not a paper figure — this sweeps the resilience package's footprint model
(:mod:`repro.resilience.footprint`) across the dataflow menu and every
modelled device, and writes the crossover table the degradation ladder
implicitly encodes: at which batch size each device is forced off
implicit GEMM (and onto fetch-on-demand, the minimal-workspace dataflow),
and where even the bottom of the ladder no longer fits.

Scenes run at ``SCALE`` resolution to keep the sweep fast, so device
budgets are shrunk by the same 1024x (GiB -> MiB): ratios — which is all
a crossover is — are preserved.  Shape claims asserted:

* warm steady-state: fetch-on-demand's footprint is strictly below
  implicit GEMM's at every batch size (the paper's workspace axis);
* footprints are monotone in batch size for every dataflow;
* the largest batch a device can serve on fetch-on-demand is never
  smaller than on implicit GEMM, and strictly larger on at least one
  device (the crossover exists);
* wherever implicit GEMM no longer fits but the ladder recovers, the
  planned walk switches dataflow to fetch-on-demand (warm gather-scatter
  never reduces) before resorting to batch chunking;
* on the smallest devices the scaled budget drops below the static
  weight footprint — the ladder floor — and the cell reports DOES NOT
  FIT, matching the serving runtime's admission rule.
"""

from __future__ import annotations

import pytest

from repro.data.datasets import make_sample
from repro.gpusim.engine import memory_budget_bytes
from repro.hw.specs import list_devices
from repro.kernels.registry import Dataflow
from repro.models import get_workload
from repro.nn.context import FixedPolicy, LayerConfig
from repro.precision import Precision
from repro.resilience import DegradationLadder, ExecState, model_footprint
from repro.utils.format import format_table

WORKLOAD = "SK-M-0.5"
SCALE = 0.25
HEADROOM = 0.1
BATCHES = (1, 2, 4, 8)
DATAFLOW_SWEEP = (
    Dataflow.IMPLICIT_GEMM,
    Dataflow.GATHER_SCATTER,
    Dataflow.FETCH_ON_DEMAND,
)
#: Scenes are ~1024x lighter than full-resolution batched deployments,
#: so device DRAM shrinks GiB -> MiB for the crossover comparison.
BUDGET_SHRINK = 1024.0

MIB = float(1 << 20)


@pytest.fixture(scope="module")
def grid():
    workload = get_workload(WORKLOAD)
    model = workload.build_model()
    model.eval()
    pool = [
        make_sample(
            workload.dataset, frames=workload.frames, seed=i, scale=SCALE
        )
        for i in range(max(BATCHES))
    ]
    memo = {}

    def footprint(state: ExecState, batch: int):
        key = (state, batch)
        if key not in memo:
            memo[key] = model_footprint(
                model,
                pool[:batch],
                precision=state.precision,
                policy=FixedPolicy(state.config),
                batch_chunks=state.batch_chunks,
                warm=True,
            )
        return memo[key]

    return footprint


def ig_state() -> ExecState:
    return ExecState(config=LayerConfig(), precision=Precision.FP16)


def device_budget(device) -> float:
    return memory_budget_bytes(device, HEADROOM) / BUDGET_SHRINK


def plan_cell(grid, device, batch):
    """Ladder plan for one (device, batch) cell, from the implicit-GEMM
    default — exactly what the serving runtime does on a simulated OOM."""
    budget = device_budget(device)
    return DegradationLadder().plan(
        lambda s: grid(s, batch).total_bytes, ig_state(), budget
    )


def crossover_table(grid) -> str:
    rows = []
    for device in sorted(list_devices(), key=lambda d: -d.dram_gib):
        budget = device_budget(device)
        for batch in BATCHES:
            totals = {
                df: grid(
                    ExecState(
                        config=LayerConfig(dataflow=df),
                        precision=Precision.FP16,
                    ),
                    batch,
                ).total_bytes
                for df in DATAFLOW_SWEEP
            }
            if totals[Dataflow.IMPLICIT_GEMM] <= budget:
                verdict = "implicit_gemm"
            else:
                plan = plan_cell(grid, device, batch)
                if plan.fits:
                    verdict = "degraded: " + " -> ".join(plan.taken)
                else:
                    verdict = "DOES NOT FIT"
            rows.append([
                device.name, str(batch), f"{budget / MIB:.1f}",
                *(f"{totals[df] / MIB:.1f}" for df in DATAFLOW_SWEEP),
                verdict,
            ])
    return format_table(
        ["device", "batch", "budget MiB", "ig MiB", "gs MiB", "fod MiB",
         "serving config"],
        rows,
        title=(
            f"memory crossovers: {WORKLOAD} fp16 warm steady state "
            f"(scale {SCALE:g}, budgets = DRAM/{BUDGET_SHRINK:.0f}, "
            f"headroom {HEADROOM:.0%})"
        ),
    )


def max_fitting_batch(grid, device, dataflow) -> int:
    budget = device_budget(device)
    state = ExecState(
        config=LayerConfig(dataflow=dataflow), precision=Precision.FP16
    )
    fitting = [
        b for b in BATCHES if grid(state, b).total_bytes <= budget
    ]
    return max(fitting, default=0)


def test_memory_crossover_grid(benchmark, grid, record_table):
    table = benchmark.pedantic(
        lambda: crossover_table(grid), iterations=1, rounds=1
    )
    record_table("memory", table + "\n")
    assert WORKLOAD in table


def test_fetch_on_demand_is_the_memory_floor_dataflow(grid):
    for batch in BATCHES:
        totals = {
            df: grid(
                ExecState(
                    config=LayerConfig(dataflow=df), precision=Precision.FP16
                ),
                batch,
            )
            for df in DATAFLOW_SWEEP
        }
        fod = totals[Dataflow.FETCH_ON_DEMAND]
        for df in (Dataflow.IMPLICIT_GEMM, Dataflow.GATHER_SCATTER):
            assert fod.total_bytes < totals[df].total_bytes
            assert fod.peak_workspace_bytes < totals[df].peak_workspace_bytes


def test_footprints_monotone_in_batch(grid):
    for df in DATAFLOW_SWEEP:
        state = ExecState(
            config=LayerConfig(dataflow=df), precision=Precision.FP16
        )
        totals = [grid(state, b).total_bytes for b in BATCHES]
        for lo, hi in zip(totals, totals[1:]):
            assert lo < hi


def test_fetch_on_demand_extends_every_devices_max_batch(grid):
    strictly_larger = 0
    for device in list_devices():
        ig = max_fitting_batch(grid, device, Dataflow.IMPLICIT_GEMM)
        fod = max_fitting_batch(grid, device, Dataflow.FETCH_ON_DEMAND)
        assert fod >= ig
        strictly_larger += fod > ig
    assert strictly_larger >= 1  # the crossover exists somewhere


def test_ladder_recovers_via_fetch_on_demand(grid):
    recovered = 0
    for device in list_devices():
        budget = device_budget(device)
        for batch in BATCHES:
            if grid(ig_state(), batch).total_bytes <= budget:
                continue
            plan = plan_cell(grid, device, batch)
            if not plan.fits:
                continue
            recovered += 1
            assert plan.taken[0] == "dataflow:fetch_on_demand"
            for step in plan.steps:
                if step.taken:
                    assert step.after_bytes < step.before_bytes
    assert recovered >= 1


def test_smallest_devices_hit_the_weight_floor(grid):
    report = grid(ig_state(), 1)
    floors = [
        device for device in list_devices()
        if device_budget(device) < report.weights_bytes
    ]
    assert floors  # 11 GiB parts fall below the scaled weight footprint
    for device in floors:
        assert not plan_cell(grid, device, 1).fits
