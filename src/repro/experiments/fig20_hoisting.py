"""Figure 20: loop-invariant hoisting closes the dynamic-shape gap.

A naively converted dynamic-shape kernel is 1.5-1.7x slower than the
fixed-shape original because of repetitive pointer calculation; hoisting
the loop invariants eliminates the overhead, ending slightly *faster* than
fixed-shape in most sample workloads.

The hoisted column is produced by the real compiler pass
(:func:`repro.opt.passes.hoist_loop_invariants`) applied to the naive
dynamic-shape trace — not by re-tracing with a hand-modeled "hoisted"
schedule.  A hand-hoisted re-trace is kept as a cross-check:
``pass_vs_schedule_max_rel_diff`` measures how far the pass output drifts
from it (exactly 0 when the pass removes precisely the declared
loop-invariant address arithmetic).
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentResult, fmt, sample_layers
from repro.gpusim.engine import price_trace
from repro.gpusim.trace import KernelTrace
from repro.hw import RTX_3090
from repro.kernels.base import KernelSchedule, launch_part
from repro.kernels.implicit_gemm import ImplicitGemmConfig
from repro.kernels.registry import trace_dataflow
from repro.opt import optimize_trace
from repro.precision import Precision

FIXED = KernelSchedule(fixed_shape=True)
NAIVE = KernelSchedule(hoist_invariants=False)
HOISTED = KernelSchedule(hoist_invariants=True)


def _trace(record, schedule: KernelSchedule) -> KernelTrace:
    return trace_dataflow(
        "implicit_gemm", record.kmap, record.c_in, record.c_out,
        schedule=schedule, precision=Precision.FP16,
        ig_config=ImplicitGemmConfig(sort=False), charge_mapping=False,
    )


def _main_us(trace: KernelTrace) -> float:
    parts = price_trace(trace, RTX_3090, Precision.FP16).attribute(launch_part)
    return sum(parts["main"])


def _hoist_pass_us(naive_trace: KernelTrace) -> float:
    """Run the verified hoisting pass on the naive trace and price it."""
    hoisted, _ = optimize_trace(naive_trace, passes=["hoist-invariants"])
    return _main_us(hoisted)


def run(quick: bool = True) -> ExperimentResult:
    layers = sample_layers("SK-M-1.0", count=4 if quick else 7)
    rows: List[List[object]] = []
    naive_ratios = []
    hoisted_ratios = []
    pass_vs_schedule = []
    for record in layers:
        fixed = _main_us(_trace(record, FIXED))
        naive_trace = _trace(record, NAIVE)
        naive = _main_us(naive_trace)
        hoisted = _hoist_pass_us(naive_trace)
        schedule_hoisted = _main_us(_trace(record, HOISTED))
        pass_vs_schedule.append(
            abs(hoisted - schedule_hoisted) / schedule_hoisted
        )
        naive_ratios.append(naive / fixed)
        hoisted_ratios.append(hoisted / fixed)
        rows.append(
            [record.label, fmt(fixed, 1), fmt(naive, 1), fmt(hoisted, 1),
             fmt(naive / fixed), fmt(hoisted / fixed)]
        )
    faster_count = sum(1 for r in hoisted_ratios if r <= 1.0)
    return ExperimentResult(
        experiment="fig20",
        title="Fixed-shape vs naive dynamic vs pass-hoisted kernels "
        "(MinkUNet layers, RTX 3090 FP16, us)",
        headers=["layer", "fixed", "naive dynamic", "hoisted (pass)",
                 "naive/fixed", "hoisted/fixed"],
        rows=rows,
        metrics={
            "max_naive_overhead": max(naive_ratios),
            "min_naive_overhead": min(naive_ratios),
            "max_hoisted_overhead": max(hoisted_ratios),
            "hoisted_faster_than_fixed_fraction": faster_count / len(layers),
            "pass_vs_schedule_max_rel_diff": max(pass_vs_schedule),
        },
        notes="Paper: naive conversion is up to 1.7x slower; hoisting "
        "closes the gap and beats fixed-shape in 5 of 7 workloads.  The "
        "hoisted column is the HoistLoopInvariants pass output.",
    )
