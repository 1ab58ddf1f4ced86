"""Group-based configuration tuning (Section 4.2, Figure 12).

The tuner discovers layer groups with a probe pass over a sample subset of
the target workload, then greedily tunes group by group: candidates for the
``k``-th group are evaluated by *end-to-end simulated latency* with the
first ``k-1`` groups fixed to their tuned configs and later groups at the
default.  End-to-end measurement (rather than kernel-only time) is the
paper's central methodological point: mapping overhead — bitmask
computation, sorting, reordering, partial-sum reduction — must be inside
the objective, or the tuner picks sorted dataflows that lose end to end
(Tables 3/4).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpusim.engine import estimate_trace_us
from repro.hw.specs import DeviceSpec, get_device
from repro.kernels.registry import trace_dataflow
from repro.nn.context import GroupPolicy, LayerConfig, LayerRecord, Role, Signature
from repro.nn.module import Module
from repro.precision import Precision
from repro.sparse.tensor import SparseTensor
from repro.tune.groups import probe_samples
from repro.tune.space import DesignSpace, TORCHSPARSEPP_SPACE


@dataclasses.dataclass
class GroupResult:
    """Tuning outcome for one layer group."""

    signature: Signature
    chosen: LayerConfig
    candidate_latencies_us: List[float]
    num_layers: int


@dataclasses.dataclass
class TuningReport:
    """Everything the tuner decided, for inspection and EXPERIMENTS.md."""

    groups: List[GroupResult]
    end_to_end_us: float
    default_us: float
    tuning_seconds: float

    @property
    def speedup_over_default(self) -> float:
        return self.default_us / self.end_to_end_us if self.end_to_end_us else 1.0

    def describe(self) -> str:
        lines = [
            f"tuned {len(self.groups)} groups in {self.tuning_seconds:.1f}s: "
            f"{self.default_us / 1e3:.2f} ms -> {self.end_to_end_us / 1e3:.2f} ms "
            f"({self.speedup_over_default:.2f}x)"
        ]
        for g in self.groups:
            lines.append(
                f"  {g.signature}: {g.chosen.describe()} "
                f"({g.num_layers} layers)"
            )
        return "\n".join(lines)


class SparseAutotuner:
    """Search the design space for the best per-group configuration."""

    def __init__(
        self,
        space: DesignSpace = TORCHSPARSEPP_SPACE,
        default: Optional[LayerConfig] = None,
    ):
        self.space = space
        self.default = default or LayerConfig()

    # ------------------------------------------------------------------ #
    def _layer_latency_us(
        self,
        record: LayerRecord,
        config: LayerConfig,
        device: DeviceSpec,
        precision: Precision,
        charge_mapping: bool,
        cache: Dict,
        role: Role = Role.FORWARD,
    ) -> float:
        key = (id(record.kmap), record.c_in, record.c_out, id(config),
               charge_mapping, role, device.name, precision)
        if key not in cache:
            kmap = record.kmap
            c_in, c_out = record.c_in, record.c_out
            if role is Role.DGRAD:
                kmap = kmap.transposed()
                c_in, c_out = c_out, c_in
            if role is Role.WGRAD:
                from repro.kernels.wgrad import wgrad_trace

                from repro.kernels.registry import Dataflow

                trace = wgrad_trace(
                    kmap, record.c_in, record.c_out,
                    schedule=config.schedule, precision=precision,
                    gathered=config.dataflow.value.startswith("gather"),
                    sorted_maps=(
                        config.dataflow is Dataflow.IMPLICIT_GEMM
                        and config.ig_config.sort
                    ),
                    tensor_cores=config.tensor_cores,
                )
            else:
                trace = trace_dataflow(
                    config.dataflow, kmap, c_in, c_out,
                    schedule=config.schedule, precision=precision,
                    ig_config=config.ig_config,
                    tensor_cores=config.tensor_cores,
                    charge_mapping=charge_mapping,
                )
            cache[key] = estimate_trace_us(trace, device, precision)
        return cache[key]

    def _structure_conversion_us(
        self,
        record: LayerRecord,
        config: LayerConfig,
        device: DeviceSpec,
        precision: Precision,
        cache: Dict,
    ) -> float:
        """Map storage-order conversion cost (once per group).

        Weight-stationary dataflows on hash-built (output-stationary) maps
        and implicit GEMM on transposed (weight-stationary) maps both pay
        one reordering pass — the asymmetry behind Figure 18's per-group
        dataflow choices.
        """
        kmap = record.kmap
        if kmap.volume <= 1:
            return 0.0
        if config.dataflow.weight_stationary == kmap.native_weight_stationary:
            return 0.0
        key = ("convert", id(kmap), config.dataflow.weight_stationary,
               device.name, precision)
        if key not in cache:
            from repro.nn.mapping_cost import map_reorder_trace

            cache[key] = estimate_trace_us(
                map_reorder_trace(kmap, "convert"), device, precision
            )
        return cache[key]

    def _group_latency_us(
        self,
        records: Sequence[LayerRecord],
        config: LayerConfig,
        device: DeviceSpec,
        precision: Precision,
        cache: Dict,
    ) -> float:
        total = 0.0
        for i, record in enumerate(records):
            total += self._layer_latency_us(
                record, config, device, precision,
                charge_mapping=(i == 0), cache=cache,
            )
            if i == 0:
                total += self._structure_conversion_us(
                    record, config, device, precision, cache
                )
        return total

    # ------------------------------------------------------------------ #
    def tune(
        self,
        model: Module,
        samples: Sequence[SparseTensor],
        device: "DeviceSpec | str" = "a100",
        precision: "Precision | str" = Precision.FP16,
    ) -> Tuple[GroupPolicy, TuningReport]:
        """Tune ``model`` on sample inputs; returns (policy, report).

        ``samples`` plays the role of the paper's "random subset of the
        target workload (e.g. 100 scenes on Waymo)"; latencies are averaged
        across samples.
        """
        device = get_device(device)
        precision = Precision.parse(precision)
        start = time.perf_counter()

        ordered, per_sample_records = probe_samples(model, samples)

        cache: Dict = {}
        # Each (group, config) cost is evaluated once: the greedy loop
        # below re-reads every group's cost for every candidate.
        costs: Dict[Tuple[Signature, int], float] = {}

        def group_cost(sig: Signature, config: LayerConfig) -> float:
            key = (sig, id(config))
            if key not in costs:
                costs[key] = sum(
                    self._group_latency_us(
                        by_sig.get(sig, []), config, device, precision, cache
                    )
                    for by_sig in per_sample_records
                ) / len(per_sample_records)
            return costs[key]

        # Greedy group-by-group exhaustive search on end-to-end latency.
        assignment: Dict[Signature, Dict[Role, LayerConfig]] = {}
        results: List[GroupResult] = []
        default_total = sum(group_cost(sig, self.default) for sig in ordered)
        for k, sig in enumerate(ordered):

            def end_to_end(candidate: LayerConfig) -> float:
                total = 0.0
                for j, other in enumerate(ordered):
                    if j < k:
                        config = assignment[other][Role.FORWARD]
                    elif j == k:
                        config = candidate
                    else:
                        config = self.default
                    total += group_cost(other, config)
                return total

            latencies = [end_to_end(c) for c in self.space]
            best_index = min(range(len(latencies)), key=latencies.__getitem__)
            chosen = self.space.candidates[best_index]
            assignment[sig] = {Role.FORWARD: chosen}
            results.append(
                GroupResult(
                    signature=sig,
                    chosen=chosen,
                    candidate_latencies_us=latencies,
                    num_layers=sum(
                        len(by_sig.get(sig, []))
                        for by_sig in per_sample_records
                    ),
                )
            )

        tuned_total = sum(
            group_cost(sig, assignment[sig][Role.FORWARD]) for sig in ordered
        )
        report = TuningReport(
            groups=results,
            end_to_end_us=tuned_total,
            default_us=default_total,
            tuning_seconds=time.perf_counter() - start,
        )
        return GroupPolicy(assignment, default=self.default), report
