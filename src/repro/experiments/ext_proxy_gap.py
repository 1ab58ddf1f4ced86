"""Extension experiment: first-order proxies mislead (Section 2.3).

The paper's motivation claims that "end-to-end optimal dataflows could
sometimes choose configurations with up to 6x computation overhead and 4x
larger DRAM footprint".  This experiment quantifies it on the
reproduction: for every tuned layer group, compare the *chosen* config's
issued FLOPs and DRAM traffic against the minimum over the design space —
if first-order proxies were reliable, every ratio would be 1.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentResult, fmt, workload_fixture
from repro.kernels.registry import trace_dataflow
from repro.precision import Precision
from repro.tune.groups import discover_groups
from repro.tune.space import TORCHSPARSEPP_SPACE
from repro.tune.tuner import SparseAutotuner


def _resources(record, config, precision):
    trace = trace_dataflow(
        config.dataflow, record.kmap, record.c_in, record.c_out,
        schedule=config.schedule, precision=precision,
        ig_config=config.ig_config, charge_mapping=True,
    )
    summary = trace.summary()
    return summary.flops, summary.dram_bytes


def run(quick: bool = True) -> ExperimentResult:
    workload_id = "NS-M-1f" if quick else "SK-M-1.0"
    device = "jetson agx orin"
    precision = Precision.FP16
    _, model, inputs = workload_fixture(workload_id, (0,))
    model.eval()
    policy, report = SparseAutotuner().tune(
        model, list(inputs), device, precision
    )
    _, by_sig = discover_groups(model, inputs[0])

    rows: List[List[object]] = []
    max_flop_ratio = 1.0
    max_dram_ratio = 1.0
    for group in report.groups:
        records = by_sig.get(group.signature)
        if not records or records[0].kmap.volume <= 1:
            continue
        record = records[0]
        chosen_flops, chosen_dram = _resources(
            record, group.chosen, precision
        )
        min_flops = min(
            _resources(record, c, precision)[0] for c in TORCHSPARSEPP_SPACE
        )
        min_dram = min(
            _resources(record, c, precision)[1] for c in TORCHSPARSEPP_SPACE
        )
        flop_ratio = chosen_flops / max(min_flops, 1.0)
        dram_ratio = chosen_dram / max(min_dram, 1.0)
        max_flop_ratio = max(max_flop_ratio, flop_ratio)
        max_dram_ratio = max(max_dram_ratio, dram_ratio)
        rows.append(
            [str(group.signature), group.chosen.describe(),
             fmt(flop_ratio), fmt(dram_ratio)]
        )
    return ExperimentResult(
        experiment="ext_proxy",
        title="Tuned configs vs first-order-proxy-optimal configs "
        f"({workload_id} on {device})",
        headers=["group", "chosen config", "flops / min-flops",
                 "dram / min-dram"],
        rows=rows,
        metrics={
            "max_compute_overhead_of_chosen": max_flop_ratio,
            "max_dram_overhead_of_chosen": max_dram_ratio,
        },
        notes="Paper (Section 2.3): end-to-end optimal configurations can "
        "carry up to 6x compute overhead and 4x DRAM footprint vs the "
        "proxy-optimal choice.",
    )
