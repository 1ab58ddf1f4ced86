"""Table 2: TorchSparse++ on RTX 3090 vs a scaled-up PointAcc ASIC.

PointAcc's systolic array is scaled from 64x64 to 128x128 (PointAcc-L) to
roughly match the 3090's MAC count; the measured TorchSparse++ latency is
scaled by 2.2x (1.7x clock x 1.3x peak-MAC difference) for fairness.
Paper: TorchSparse++ reaches 56% of the ASIC's speed.
"""

from __future__ import annotations

from repro.baselines import get_engine, measure_inference
from repro.experiments.common import ExperimentResult, fmt, workload_fixture
from repro.hw import POINTACC_L
from repro.tune.groups import discover_groups

#: Paper's fairness scaling: clock (1.7x) x peak MAC (1.3x).
LATENCY_SCALE = 2.2


def run(quick: bool = True) -> ExperimentResult:
    workload_id = "SK-M-0.5" if quick else "SK-M-1.0"
    workload, model, inputs = workload_fixture(workload_id, (0,))
    model.eval()
    # GPU side: tuned TorchSparse++ on the 3090.
    engine = get_engine("torchsparse++")
    gpu = measure_inference(
        engine, workload, "rtx 3090", "fp16", model=model, inputs=list(inputs)
    )
    gpu_scaled_ms = gpu.mean_ms * LATENCY_SCALE

    # ASIC side: per-layer systolic-array projection over the same layers.
    ordered, by_sig = discover_groups(model, inputs[0])
    layers = []
    seen_maps = set()
    for sig in ordered:
        for record in by_sig[sig]:
            build = id(record.kmap) not in seen_maps
            seen_maps.add(id(record.kmap))
            layers.append(
                dict(
                    map_sizes=record.kmap.map_sizes.tolist(),
                    c_in=record.c_in,
                    c_out=record.c_out,
                    num_inputs=record.kmap.num_inputs,
                    num_outputs=record.kmap.num_outputs,
                    build_map=build,
                )
            )
    asic_ms = POINTACC_L.network_latency_ms(layers)
    ratio = asic_ms / gpu_scaled_ms  # fraction of ASIC speed reached
    rows = [
        ["TorchSparse++ (3090, measured)", fmt(gpu.mean_ms)],
        [f"TorchSparse++ (scaled x{LATENCY_SCALE})", fmt(gpu_scaled_ms)],
        ["PointAcc-L (projected)", fmt(asic_ms)],
        ["GPU fraction of ASIC speed", fmt(100 * ratio, 1) + "%"],
    ]
    return ExperimentResult(
        experiment="tab02",
        title="TorchSparse++ vs scaled PointAcc ASIC "
        "(SemanticKITTI MinkUNet, ms)",
        headers=["system", "latency"],
        rows=rows,
        metrics={"gpu_fraction_of_asic": ratio},
        notes="Paper: scaled latencies 31.6 ms (GPU) vs 17.8 ms (ASIC) — "
        "the GPU achieves 56% of ASIC speed.",
    )
