"""Training tuner: partial parameter binding for fwd/dgrad/wgrad kernels
(Section 4.2, Figures 13 and 22).

Tuning the three training kernels independently costs ``O(K^3)``; sharing
one config for all three loses up to 10% end-to-end.  The paper's middle
ground binds two of the three:

* **workload-pattern oriented** (``BIND_FWD_DGRAD``): forward and dgrad
  share a config (they have the same workload pattern), wgrad is tuned
  separately — minimizes total kernel latency; best for *low-end* devices
  whose tensor:CUDA core gap is small (2080 Ti, 3x);
* **sparse-mapping oriented** (``BIND_DGRAD_WGRAD``): dgrad and wgrad share
  a config (they share the same maps) — minimizes mapping overhead; best
  for *high-parallelism* devices where mapping work on CUDA cores is
  relatively 16x more expensive (A100).

Both reduce complexity to ``O(K^2)``, and to ``O(K)`` in practice by
reusing the group tuner twice (Figure 13's "dummy initialization" trick —
here, by evaluating role subsets independently, which our additive latency
model makes exact).
"""

from __future__ import annotations

import dataclasses
import enum
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.gpusim.engine import estimate_trace_us
from repro.hw.specs import DeviceSpec, get_device
from repro.nn.mapping_cost import map_reorder_trace
from repro.nn.context import GroupPolicy, LayerConfig, LayerRecord, Role, Signature
from repro.nn.module import Module
from repro.precision import Precision
from repro.sparse.tensor import SparseTensor
from repro.tune.groups import probe_samples
from repro.tune.space import DesignSpace, TORCHSPARSEPP_SPACE
from repro.tune.tuner import SparseAutotuner

#: tensor:CUDA throughput ratio above which mapping overhead dominates and
#: the sparse-mapping-oriented scheme wins (A100 is 16x, 2080 Ti is 3x).
HIGH_PARALLELISM_RATIO = 8.0


class BindingScheme(enum.Enum):
    """Which training kernels share dataflow parameters (Figure 13)."""

    BIND_ALL = "bind_all"
    BIND_FWD_DGRAD = "bind_fwd_dgrad"  # workload-pattern oriented
    BIND_DGRAD_WGRAD = "bind_dgrad_wgrad"  # sparse-mapping oriented


def pick_binding_scheme(device: "DeviceSpec | str") -> BindingScheme:
    """The paper's device rule: scheme 2 for high-end GPUs, scheme 1 else."""
    device = get_device(device)
    if device.tensor_to_cuda_ratio >= HIGH_PARALLELISM_RATIO:
        return BindingScheme.BIND_DGRAD_WGRAD
    return BindingScheme.BIND_FWD_DGRAD


@dataclasses.dataclass
class TrainingTuningReport:
    """Per-group role assignments and the end-to-end training latency."""

    scheme: BindingScheme
    end_to_end_us: float
    bound_all_us: float
    tuning_seconds: float


#: Roles bound together under each scheme: (groups of roles tuned jointly).
_SCHEME_ROLE_SETS: Dict[BindingScheme, Tuple[Tuple[Role, ...], ...]] = {
    BindingScheme.BIND_ALL: ((Role.FORWARD, Role.DGRAD, Role.WGRAD),),
    BindingScheme.BIND_FWD_DGRAD: (
        (Role.FORWARD, Role.DGRAD),
        (Role.WGRAD,),
    ),
    BindingScheme.BIND_DGRAD_WGRAD: (
        (Role.FORWARD,),
        (Role.DGRAD, Role.WGRAD),
    ),
}


class TrainingTuner:
    """Tune per-group configs for training under a binding scheme."""

    def __init__(
        self,
        space: DesignSpace = TORCHSPARSEPP_SPACE,
        default: Optional[LayerConfig] = None,
        scheme: Optional[BindingScheme] = None,
    ):
        self.space = space
        self.default = default or LayerConfig()
        self.scheme = scheme  # None = pick by device

    # ------------------------------------------------------------------ #
    def _roles_latency_us(
        self,
        tuner: SparseAutotuner,
        records: Sequence[LayerRecord],
        config: LayerConfig,
        roles: Tuple[Role, ...],
        device: DeviceSpec,
        precision: Precision,
        cache: Dict,
    ) -> float:
        """Latency of the given roles of a group under one config."""
        total = 0.0
        for i, record in enumerate(records):
            for role in roles:
                total += tuner._layer_latency_us(
                    record, config, device, precision,
                    charge_mapping=(i == 0), cache=cache, role=role,
                )
        return total

    def tune(
        self,
        model: Module,
        samples: Sequence[SparseTensor],
        device: "DeviceSpec | str" = "a100",
        precision: "Precision | str" = Precision.FP16,
    ) -> Tuple[GroupPolicy, TrainingTuningReport]:
        """Tune training configs; model must be in training mode usage."""
        device = get_device(device)
        precision = Precision.parse(precision)
        scheme = self.scheme or pick_binding_scheme(device)
        start = time.perf_counter()
        tuner = SparseAutotuner(space=self.space, default=self.default)

        ordered, per_sample = probe_samples(model, samples)

        cache: Dict = {}

        def cost(sig: Signature, config: LayerConfig, roles) -> float:
            return sum(
                self._roles_latency_us(
                    tuner, by_sig.get(sig, []), config, roles,
                    device, precision, cache,
                )
                for by_sig in per_sample
            ) / len(per_sample)

        def prep_penalty(sig: Signature, dgrad_cfg: LayerConfig,
                         wgrad_cfg: LayerConfig) -> float:
            """Backward map-preparation cost when dgrad and wgrad use
            different configs: the two backward kernels share the same
            maps (Figure 13), so a bound pair prepares them once while a
            decoupled pair prepares them twice."""
            if dgrad_cfg == wgrad_cfg:
                return 0.0
            total = 0.0
            for by_sig in per_sample:
                records = by_sig.get(sig, [])
                if not records:
                    continue
                total += estimate_trace_us(
                    map_reorder_trace(records[0].kmap, "bwd_prep"),
                    device, precision,
                )
            return total / len(per_sample)

        assignment: Dict[Signature, Dict[Role, LayerConfig]] = {}
        all_roles = (Role.FORWARD, Role.DGRAD, Role.WGRAD)
        bound_all_total = 0.0
        tuned_total = 0.0
        for sig in ordered:
            # Reference: best single config shared by all three roles
            # (one config -> one map structure -> no penalty).
            bound_all_total += min(
                cost(sig, c, all_roles) for c in self.space
            )
            role_sets = _SCHEME_ROLE_SETS[scheme]
            if len(role_sets) == 1:
                best = min(self.space, key=lambda c: cost(sig, c, all_roles))
                by_role = {role: best for role in all_roles}
                best_total = cost(sig, best, all_roles)
            else:
                # Paper's O(K^2): joint search over the two bound sets,
                # including the backward map-preparation penalty when
                # dgrad and wgrad end up with different configs.
                set_a, set_b = role_sets
                best_total = float("inf")
                by_role = {}
                for cfg_a in self.space:
                    cost_a = cost(sig, cfg_a, set_a)
                    for cfg_b in self.space:
                        cfg_of = {
                            **{r: cfg_a for r in set_a},
                            **{r: cfg_b for r in set_b},
                        }
                        total = (
                            cost_a
                            + cost(sig, cfg_b, set_b)
                            + prep_penalty(
                                sig, cfg_of[Role.DGRAD], cfg_of[Role.WGRAD]
                            )
                        )
                        if total < best_total:
                            best_total = total
                            by_role = cfg_of
            assignment[sig] = by_role
            tuned_total += best_total

        report = TrainingTuningReport(
            scheme=scheme,
            end_to_end_us=tuned_total,
            bound_all_us=bound_all_total,
            tuning_seconds=time.perf_counter() - start,
        )
        return GroupPolicy(assignment, default=self.default), report
