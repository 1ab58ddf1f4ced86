"""Model inspection: per-layer parameter / workload summaries."""

from __future__ import annotations

import dataclasses
from typing import List

from repro.nn.context import ExecutionContext
from repro.nn.module import Module
from repro.sparse.tensor import SparseTensor
from repro.utils.format import format_si, format_table


@dataclasses.dataclass
class LayerSummary:
    """Shape and workload of one convolution layer on a given input."""

    label: str
    signature: tuple
    num_outputs: int
    c_in: int
    c_out: int
    effective_macs: float
    mean_neighbors: float


def summarize(model: Module, sample: SparseTensor) -> List[LayerSummary]:
    """Probe ``model`` in eval mode on ``sample`` and collect
    per-conv-layer workloads; the model's mode is restored either way."""
    ctx = ExecutionContext(simulate_only=True)
    was_training = model.training
    model.eval()
    try:
        model(sample, ctx)
    finally:
        model.train(was_training)
    return [
        LayerSummary(
            label=record.label,
            signature=record.signature,
            num_outputs=record.kmap.num_outputs,
            c_in=record.c_in,
            c_out=record.c_out,
            effective_macs=(
                float(record.kmap.total_pairs) * record.c_in * record.c_out
            ),
            mean_neighbors=record.kmap.mean_neighbors,
        )
        for record in ctx.layers
    ]


def summary_table(model: Module, sample: SparseTensor) -> str:
    """Formatted per-layer summary plus totals."""
    layers = summarize(model, sample)
    total_macs = sum(layer.effective_macs for layer in layers)
    rows = [
        [
            layer.label,
            layer.num_outputs,
            f"{layer.c_in}->{layer.c_out}",
            format_si(layer.effective_macs, ""),
            f"{layer.mean_neighbors:.1f}",
        ]
        for layer in layers
    ]
    rows.append(
        ["TOTAL", "", f"{model.num_parameters()} params",
         format_si(total_macs, ""), ""]
    )
    return format_table(
        ["layer", "outputs", "channels", "MACs", "nbrs"],
        rows,
        title=f"{type(model).__name__} on {sample}",
    )
