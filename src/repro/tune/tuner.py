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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.gpusim.engine import estimate_trace_us
from repro.gpusim.trace import KernelTrace
from repro.hw.specs import DeviceSpec, get_device
from repro.nn.context import GroupPolicy, LayerConfig, LayerRecord, Role, Signature
from repro.nn.conv import conv_pass_trace, structure_conversion_trace
from repro.nn.module import Module
from repro.precision import Precision
from repro.sparse.tensor import SparseTensor
from repro.tune.groups import Groups, probe_samples
from repro.tune.space import TORCHSPARSEPP_SPACE, DesignSpace


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


def group_latency_us(
    records: Sequence[LayerRecord],
    config: LayerConfig,
    device: DeviceSpec,
    precision: Precision,
    memo: Dict[tuple, float],
    roles: Tuple[Role, ...] = (Role.FORWARD,),
    conversion: bool = True,
) -> float:
    """Simulated latency of the ``roles`` passes of one group's layers
    under ``config``, priced from the traces the layers execute
    (:func:`~repro.nn.conv.conv_pass_trace`).  The first layer pays the
    group's map preparation and, with ``conversion``, the map's
    storage-order conversion — the asymmetry behind Figure 18's
    per-group dataflow choices.  ``memo`` keeps prices across calls."""

    def priced(key: tuple, trace: Callable[[], KernelTrace]) -> float:
        key += (device.name, precision)
        if key not in memo:
            memo[key] = estimate_trace_us(trace(), device, precision)
        return memo[key]

    total = 0.0
    for i, r in enumerate(records):
        first = i == 0
        for role in roles:
            total += priced(
                (id(r.kmap), r.c_in, r.c_out, id(config), first, role),
                lambda: conv_pass_trace(
                    role, r.kmap, r.c_in, r.c_out, config, precision,
                    charge_mapping=first,
                ),
            )
        if first and conversion:
            total += priced(
                ("convert", id(r.kmap), config.dataflow.weight_stationary),
                lambda: structure_conversion_trace(r.kmap, config),
            )
    return total


def sample_mean(
    per_sample: Sequence[Groups],
    sig: Signature,
    cost: Callable[[Sequence[LayerRecord]], float],
) -> float:
    """Mean over the probe samples of ``cost`` of group ``sig``'s records
    (empty in a sample the group does not occur in)."""
    return sum(cost(by_sig.get(sig, [])) for by_sig in per_sample) / len(
        per_sample
    )


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

        memo: Dict[tuple, float] = {}
        # Each (group, config) cost is evaluated once: the greedy loop
        # below re-reads every group's cost for every candidate.
        costs: Dict[Tuple[Signature, int], float] = {}

        def group_cost(sig: Signature, config: LayerConfig) -> float:
            key = (sig, id(config))
            if key not in costs:
                costs[key] = sample_mean(
                    per_sample_records, sig,
                    lambda records: group_latency_us(
                        records, config, device, precision, memo
                    ),
                )
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
