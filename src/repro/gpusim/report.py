"""Trace inspection: human-readable timelines and engine comparisons.

The counterpart of ``nsys``-style profiling for the analytical model:
given a trace and a device, show where the time goes — per launch, per
kind, per layer prefix.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.gpusim.engine import launch_layer, price_trace
from repro.gpusim.trace import KernelTrace
from repro.hw.specs import DeviceSpec, get_device
from repro.precision import Precision
from repro.utils.format import format_si, format_table


def timeline(
    trace: KernelTrace,
    device: "DeviceSpec | str",
    precision: "Precision | str",
    top: Optional[int] = None,
) -> str:
    """Per-launch timeline, longest first when ``top`` is given."""
    device = get_device(device)
    precision = Precision.parse(precision)
    rows: List[Tuple[float, List[str]]] = []
    clock = 0.0
    prices = price_trace(trace, device, precision).prices
    for launch, duration in zip(trace, prices):
        rows.append(
            (
                duration,
                [
                    f"{clock:10.1f}",
                    f"{duration:9.1f}",
                    launch.kind.value,
                    format_si(launch.flops, "F"),
                    format_si(
                        launch.dram_read_bytes + launch.dram_write_bytes, "B"
                    ),
                    str(launch.ctas),
                    launch.name,
                ],
            )
        )
        clock += duration
    if top is not None:
        rows.sort(key=lambda r: -r[0])
        rows = rows[:top]
    return format_table(
        ["t (us)", "dur (us)", "kind", "flops", "dram", "ctas", "launch"],
        [r[1] for r in rows],
        title=f"trace timeline on {device.name} ({precision.value}), "
        f"total {clock:.1f} us over {len(trace)} launches",
    )


def layer_report(
    trace: KernelTrace,
    device: "DeviceSpec | str",
    precision: "Precision | str",
    top: int = 20,
) -> str:
    """Formatted per-layer latency table, heaviest layers first."""
    per_layer = price_trace(
        trace, get_device(device), precision
    ).split_us(launch_layer)
    total = sum(per_layer.values()) or 1.0
    ranked = sorted(per_layer.items(), key=lambda kv: -kv[1])[:top]
    rows = [
        [name, f"{us:.1f}", f"{100 * us / total:.1f}%"]
        for name, us in ranked
    ]
    return format_table(
        ["layer", "us", "share"], rows,
        title=f"per-layer latency (top {len(rows)} of {len(per_layer)})",
    )
