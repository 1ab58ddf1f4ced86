"""Trace inspection: human-readable timelines and engine comparisons.

The counterpart of ``nsys``-style profiling for the analytical model:
given a trace and a device, show where the time goes — per launch, per
kind, per layer prefix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.gpusim.engine import launch_prices
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
    for launch, duration in zip(trace, launch_prices(trace, device, precision)):
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


def by_layer(
    trace: KernelTrace,
    device: "DeviceSpec | str",
    precision: "Precision | str",
) -> Dict[str, float]:
    """Latency grouped by the layer prefix (text before the first '/')."""
    prices = launch_prices(trace, get_device(device), precision)
    out: Dict[str, float] = {}
    for launch, price in zip(trace, prices):
        layer = launch.name.split("/", 1)[0]
        out[layer] = out.get(layer, 0.0) + price
    return out


def layer_report(
    trace: KernelTrace,
    device: "DeviceSpec | str",
    precision: "Precision | str",
    top: int = 20,
) -> str:
    """Formatted per-layer latency table, heaviest layers first."""
    per_layer = by_layer(trace, device, precision)
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
