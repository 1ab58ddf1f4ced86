"""Shared experiment infrastructure."""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Tuple

from repro.models.registry import Workload, get_workload
from repro.nn.module import Module
from repro.sparse.tensor import SparseTensor
from repro.utils.format import format_table


@dataclasses.dataclass
class ExperimentResult:
    """The regenerated rows of one table/figure plus summary metrics.

    ``metrics`` holds the scalar quantities the paper's headline claims are
    made of (speedup factors, overhead ratios); benchmark assertions check
    these rather than parsing the table text.
    """

    experiment: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    notes: str = ""

    def to_table(self) -> str:
        table = format_table(
            self.headers, self.rows, title=f"{self.experiment}: {self.title}"
        )
        parts = [table]
        if self.metrics:
            parts.append(
                "metrics: "
                + ", ".join(f"{k}={v:.3g}" for k, v in sorted(self.metrics.items()))
            )
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)


@functools.lru_cache(maxsize=None)
def workload_fixture(
    workload_id: str, seeds: Tuple[int, ...] = (0,), batch_size: int = 1
) -> Tuple[Workload, Module, Tuple[SparseTensor, ...]]:
    """Cached (workload, model, inputs) shared across experiments.

    Generating LiDAR scenes and building kernel maps is the wall-clock
    bottleneck of the benchmark suite; the fixture shares them across all
    experiments in one process.  Simulated-latency accounting is unaffected
    (charges are per execution context, not per Python object).
    """
    workload = get_workload(workload_id)
    model = workload.build_model()
    inputs = tuple(
        workload.make_input(seed=s, batch_size=batch_size) for s in seeds
    )
    return workload, model, inputs


def fmt(value: float, digits: int = 2) -> str:
    """Format a float for table cells."""
    return f"{value:.{digits}f}"


@functools.lru_cache(maxsize=None)
def sample_layers(workload_id: str, count: int = 7, seed: int = 0):
    """Representative convolution layers (probe records) of a workload.

    Used by the kernel-level experiments (Figures 8, 20, 21) that evaluate
    individual sparse convolution workloads; layers are chosen spread over
    the network depth so channel counts range from stem to bottleneck.
    """
    from repro.tune.groups import discover_groups

    workload, model, inputs = workload_fixture(workload_id, (seed,))
    ordered, by_sig = discover_groups(model, inputs[0])
    records = [recs[0] for sig in ordered for recs in [by_sig[sig]]]
    # Keep only true 3^3 convolutions (the figures' workloads) and spread.
    volumetric = [r for r in records if r.kmap.volume == 27]
    if len(volumetric) <= count:
        return tuple(volumetric)
    step = len(volumetric) / count
    return tuple(volumetric[int(i * step)] for i in range(count))
