"""Layer-group discovery (Section 4.2, Figure 12).

Layers that use the same kernel maps — identified by their *map signature*
``(tensor_stride, kernel_size, stride, transposed)`` — form one group and
must share a dataflow, because weight-stationary and output-stationary
dataflows need the maps in different storage orders.  A probe forward pass
records every convolution layer (:attr:`ExecutionContext.layers`); records
are then grouped by signature in first-appearance order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.nn.context import ExecutionContext, LayerRecord, Signature
from repro.nn.module import Module
from repro.sparse.tensor import SparseTensor

Groups = Dict[Signature, List[LayerRecord]]


def discover_groups(
    model: Module, sample: SparseTensor
) -> Tuple[List[Signature], Groups]:
    """Run one probe forward and group conv layers by map signature.

    Returns ``(ordered_signatures, records_by_signature)``.  The probe runs
    shape-only in a context of its own that is then dropped: signatures
    and kernel maps depend on neither device nor precision, and probe cost
    never reaches a caller's trace.  Kernel maps built during the probe
    stay in the sample's cache (the tuner reuses them, as the real system
    does).
    """
    ctx = ExecutionContext(simulate_only=True)
    model(sample, ctx)
    by_signature: Groups = {}
    for record in ctx.layers:
        by_signature.setdefault(record.signature, []).append(record)
    return list(by_signature), by_signature


def probe_samples(
    model: Module, samples: Sequence[SparseTensor]
) -> Tuple[List[Signature], List[Groups]]:
    """Probe every sample once; returns the union of their signatures in
    first-appearance order and each sample's records by signature."""
    ordered: List[Signature] = []
    per_sample: List[Groups] = []
    for sample in samples:
        signatures, by_signature = discover_groups(model, sample)
        per_sample.append(by_signature)
        ordered += [sig for sig in signatures if sig not in ordered]
    return ordered, per_sample
