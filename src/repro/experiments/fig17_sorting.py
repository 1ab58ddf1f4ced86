"""Figure 17: layerwise sorted vs unsorted implicit GEMM.

Sorting reduces computation time but its own overhead outweighs the
benefit on detection workloads (Waymo), while it pays off on the larger
SemanticKITTI segmentation model.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentResult, fmt, workload_fixture
from repro.gpusim.engine import price_trace
from repro.hw import RTX_3090
from repro.kernels.base import launch_part
from repro.kernels.implicit_gemm import ImplicitGemmConfig
from repro.kernels.registry import trace_dataflow
from repro.precision import Precision
from repro.tune.groups import discover_groups


def _layerwise(workload_id: str, precision: Precision):
    _, model, inputs = workload_fixture(workload_id, (0,))
    ordered, by_sig = discover_groups(model, inputs[0])
    rows = []
    totals = {"sorted_compute": 0.0, "sorted_overhead": 0.0,
              "unsorted_compute": 0.0}
    for sig in ordered:
        records = by_sig[sig]
        kmap = records[0].kmap
        if kmap.volume < 8:
            continue
        for i, record in enumerate(records):
            sorted_trace = trace_dataflow(
                "implicit_gemm", kmap, record.c_in, record.c_out,
                precision=precision,
                ig_config=ImplicitGemmConfig(num_splits=1, sort=True),
                charge_mapping=(i == 0),
            )
            unsorted_trace = trace_dataflow(
                "implicit_gemm", kmap, record.c_in, record.c_out,
                precision=precision,
                ig_config=ImplicitGemmConfig(sort=False),
                charge_mapping=False,
            )
            sorted_parts = price_trace(
                sorted_trace, RTX_3090, precision
            ).attribute(launch_part)
            unsorted_parts = price_trace(
                unsorted_trace, RTX_3090, precision
            ).attribute(launch_part)
            s_compute = sum(sorted_parts["main"])
            s_overhead = sum(sorted_parts.get("mapping", []))
            u_compute = sum(unsorted_parts["main"])
            totals["sorted_compute"] += s_compute
            totals["sorted_overhead"] += s_overhead
            totals["unsorted_compute"] += u_compute
            rows.append(
                [record.label, fmt(u_compute, 1), fmt(s_compute, 1),
                 fmt(s_overhead, 1)]
            )
    return rows, totals


def run(quick: bool = True) -> ExperimentResult:
    precision = Precision.FP16
    det_rows, det = _layerwise("WM-C-1f", precision)
    seg_rows, seg = _layerwise("SK-M-1.0" if not quick else "SK-M-0.5",
                               precision)
    rows: List[List[object]] = []
    rows.append(["-- Waymo detection --", "", "", ""])
    rows.extend(det_rows if not quick else det_rows[:6])
    rows.append(["-- SemanticKITTI segmentation --", "", "", ""])
    rows.extend(seg_rows if not quick else seg_rows[:6])
    det_sorted_total = det["sorted_compute"] + det["sorted_overhead"]
    seg_sorted_total = seg["sorted_compute"] + seg["sorted_overhead"]
    return ExperimentResult(
        experiment="fig17",
        title="Layerwise compute vs sorting overhead (us, RTX 3090 FP16)",
        headers=["layer", "unsorted compute", "sorted compute",
                 "sort overhead"],
        rows=rows,
        metrics={
            "det_sorted_over_unsorted": det_sorted_total
            / det["unsorted_compute"],
            "seg_sorted_over_unsorted": seg_sorted_total
            / seg["unsorted_compute"],
            "det_compute_reduction": det["unsorted_compute"]
            / det["sorted_compute"],
        },
        notes="Paper: sorting's gain is outweighed by its overhead on "
        "detection; it pays off on the larger segmentation model.",
    )
