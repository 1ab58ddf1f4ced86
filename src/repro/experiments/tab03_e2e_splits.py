"""Table 3: end-to-end latency of unsorted vs sorted implicit GEMM.

Unsorted implicit GEMM is up to 1.2x *faster end to end* despite up to
1.7x more (redundant) computation, because sorting's mapping overhead
(bitmask, argsort, reorder) is paid on the critical path.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import ExperimentResult, fmt, workload_fixture
from repro.gpusim.trace import KernelLaunch, LaunchKind
from repro.kernels.implicit_gemm import ImplicitGemmConfig
from repro.nn.context import ExecutionContext, FixedPolicy, LayerConfig

CONFIGS = {
    "unsorted": ImplicitGemmConfig(num_splits=1, sort=False),
    "split=1": ImplicitGemmConfig(num_splits=1, sort=True),
    "split=2": ImplicitGemmConfig(num_splits=2, sort=True),
}


def _kernel_or_mapping(launch: KernelLaunch) -> str:
    """Table 4's split: convolution kernels (GEMMs and their split
    reductions) against everything else."""
    if launch.kind in (LaunchKind.GEMM, LaunchKind.REDUCTION):
        return "kernel"
    return "mapping"


def measure_config(
    model, sample, device: str, config: ImplicitGemmConfig,
    kernel_only: bool = False,
) -> float:
    """End-to-end (or kernel-only) latency under one fixed IG config."""
    ctx = ExecutionContext(
        device=device,
        precision="fp16",
        policy=FixedPolicy(LayerConfig(ig_config=config)),
        simulate_only=True,
        adaptive_tiling=True,
    )
    model.eval()
    model(sample, ctx)
    run = ctx.execution()
    if kernel_only:
        return sum(run.attribute(_kernel_or_mapping)["kernel"]) / 1e3
    return run.latency_us / 1e3


def run(quick: bool = True, kernel_only: bool = False) -> ExperimentResult:
    cases = [("NS-C-10f", ("rtx 3090", "jetson agx orin")),
             ("WM-C-1f", ("rtx 3090",))]
    if quick:
        cases = [("WM-C-1f", ("rtx 3090",)), ("NS-C-10f", ("rtx 3090",))]
    rows: List[List[object]] = []
    metrics: Dict[str, float] = {}
    for workload_id, devices in cases:
        _, model, inputs = workload_fixture(workload_id, (0,))
        for device in devices:
            latencies = {
                name: measure_config(
                    model, inputs[0], device, config, kernel_only
                )
                for name, config in CONFIGS.items()
            }
            rows.append(
                [workload_id, device] +
                [fmt(latencies[name]) for name in CONFIGS]
            )
            key = f"{workload_id}_{device}".replace(" ", "_")
            metrics[f"{key}_sorted_over_unsorted"] = (
                latencies["split=1"] / latencies["unsorted"]
            )
    which = "kernel-only" if kernel_only else "end-to-end"
    return ExperimentResult(
        experiment="tab04" if kernel_only else "tab03",
        title=f"Unsorted vs mask-split implicit GEMM, {which} latency "
        "(detection workloads, FP16, ms)",
        headers=["workload", "device"] + list(CONFIGS),
        rows=rows,
        metrics=metrics,
        notes="Paper Table 3: unsorted is up to 1.2x faster end to end; "
        "Table 4: sorted kernels are faster in isolation.",
    )
