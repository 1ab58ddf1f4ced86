"""Figure 21: boundary-check elimination via map padding.

The bounds predicate on map loads in the innermost loop costs up to 1.3x;
padding the map's first dimension to a multiple of ``cta_M`` removes it.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentResult, fmt, sample_layers
from repro.gpusim.engine import price_trace
from repro.hw import RTX_3090
from repro.kernels.base import KernelSchedule, launch_part
from repro.kernels.implicit_gemm import ImplicitGemmConfig
from repro.kernels.registry import trace_dataflow
from repro.precision import Precision

PADDED = KernelSchedule(pad_maps=True)
UNPADDED = KernelSchedule(pad_maps=False)


def _kernel_us(record, schedule: KernelSchedule) -> float:
    trace = trace_dataflow(
        "implicit_gemm", record.kmap, record.c_in, record.c_out,
        schedule=schedule, precision=Precision.FP16,
        ig_config=ImplicitGemmConfig(sort=False), charge_mapping=False,
    )
    parts = price_trace(trace, RTX_3090, Precision.FP16).attribute(launch_part)
    return sum(parts["main"])


def run(quick: bool = True) -> ExperimentResult:
    layers = sample_layers("SK-M-1.0", count=4 if quick else 7)
    rows: List[List[object]] = []
    ratios = []
    for record in layers:
        padded = _kernel_us(record, PADDED)
        unpadded = _kernel_us(record, UNPADDED)
        ratios.append(unpadded / padded)
        rows.append(
            [record.label, fmt(padded, 1), fmt(unpadded, 1),
             fmt(unpadded / padded)]
        )
    return ExperimentResult(
        experiment="fig21",
        title="Boundary checking vs offline map padding "
        "(MinkUNet layers, RTX 3090 FP16, us)",
        headers=["layer", "padded", "with boundary checks", "overhead"],
        rows=rows,
        metrics={
            "max_boundary_overhead": max(ratios),
            "min_boundary_overhead": min(ratios),
        },
        notes="Paper: boundary checks cost up to 1.3x; padding removes "
        "them entirely.",
    )
