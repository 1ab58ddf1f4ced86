"""Execution context: per-layer dataflow policy + accumulated trace.

The context is the seam where the Sparse Autotuner plugs in: it maps each
layer's *map signature* (the paper's group identity, Section 4.2) and kernel
*role* (forward / dgrad / wgrad, Figure 13) to a :class:`LayerConfig`, and
it accumulates everything the network executed into one trace whose
simulated latency is the tuner's objective.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Protocol, Tuple

from repro.gpusim.engine import PricedTrace, price_trace
from repro.gpusim.trace import KernelTrace
from repro.hw.specs import DeviceSpec, get_device
from repro.kernels.base import DEFAULT_SCHEDULE, KernelSchedule
from repro.kernels.implicit_gemm import ImplicitGemmConfig
from repro.kernels.registry import Dataflow
from repro.precision import Precision
from repro.sparse.kmap import KernelMap

#: A layer's map signature: (tensor_stride, kernel_size, stride, transposed).
#: Layers sharing a signature share kernel maps and therefore form one
#: autotuner group.
Signature = Tuple


class Role(enum.Enum):
    """Which kernel of a layer a config applies to (training tuner axis)."""

    FORWARD = "forward"
    DGRAD = "dgrad"
    WGRAD = "wgrad"


@dataclasses.dataclass(frozen=True)
class LayerConfig:
    """One point in the TorchSparse++ design space (Figure 9).

    ``gs_chunks`` sub-batches the gather-scatter staging buffers (the
    degradation ladder's "raise split counts" rung); it never changes the
    arithmetic, only workspace and launch granularity.
    """

    dataflow: Dataflow = Dataflow.IMPLICIT_GEMM
    schedule: KernelSchedule = DEFAULT_SCHEDULE
    ig_config: ImplicitGemmConfig = ImplicitGemmConfig()
    tensor_cores: bool = True
    gs_chunks: int = 1

    def describe(self) -> str:
        parts = [self.dataflow.value]
        if self.dataflow is Dataflow.IMPLICIT_GEMM:
            if not self.ig_config.sort:
                parts.append("unsorted")
            else:
                parts.append(f"splits={self.ig_config.num_splits}")
        if self.gs_chunks > 1:
            parts.append(f"chunks={self.gs_chunks}")
        parts.append(
            f"tile={self.schedule.tile_m}x{self.schedule.tile_n}"
            f"x{self.schedule.tile_k}"
        )
        return " ".join(parts)


class Policy(Protocol):
    """Anything that serves a :class:`LayerConfig` per signature and role."""

    def config(
        self, signature: Signature, role: Role = Role.FORWARD
    ) -> LayerConfig: ...


class FixedPolicy:
    """Every layer and role gets the same config (baseline engines)."""

    def __init__(
        self,
        config: Optional[LayerConfig] = None,
        per_role: Optional[Dict[Role, LayerConfig]] = None,
    ):
        self._config = config or LayerConfig()
        self._per_role = per_role or {}

    def config(self, signature: Signature, role: Role = Role.FORWARD) -> LayerConfig:
        return self._per_role.get(role, self._config)


class GroupPolicy:
    """Per-group (and optionally per-role) configs from the autotuner."""

    def __init__(
        self,
        assignments: Dict[Signature, Dict[Role, LayerConfig]],
        default: Optional[LayerConfig] = None,
    ):
        self._assignments = assignments
        self._default = default or LayerConfig()

    def config(self, signature: Signature, role: Role = Role.FORWARD) -> LayerConfig:
        by_role = self._assignments.get(signature)
        if not by_role:
            return self._default
        return by_role.get(role) or by_role.get(Role.FORWARD, self._default)

    # -- public iteration API (serialization, policy caches) ----------- #
    @property
    def default(self) -> LayerConfig:
        """Config served for signatures the tuner never saw."""
        return self._default

    def signatures(self) -> Tuple[Signature, ...]:
        return tuple(self._assignments)

    def items(self) -> Iterator[Tuple[Signature, Dict[Role, LayerConfig]]]:
        """Iterate ``(signature, {role: config})`` pairs.

        Mappings are copies: mutating them does not alter the policy.
        """
        for signature, by_role in self._assignments.items():
            yield signature, dict(by_role)

    def __len__(self) -> int:
        return len(self._assignments)


@dataclasses.dataclass
class LayerRecord:
    """One convolution layer as a forward pass executed it.

    The probe record of Section 4.2: the map signature is the layer's
    autotuner group, and the kernel map and channel counts size its
    workload and its live activations.
    """

    signature: Signature
    kmap: KernelMap
    c_in: int
    c_out: int
    label: str

    def feature_bytes(self, itemsize: int) -> float:
        """Activations live while the layer runs: its input and output
        features at ``itemsize`` bytes per element."""
        return float(itemsize) * (
            self.kmap.num_inputs * self.c_in
            + self.kmap.num_outputs * self.c_out
        )


class ExecutionContext:
    """Runtime state for one network execution.

    Attributes:
        device: the simulated GPU.
        precision: numeric precision for all layers.
        policy: per-layer/per-role config provider.
        trace: accumulated kernel trace (reset with :meth:`reset_trace`).
        layers: one :class:`LayerRecord` per convolution forward, in
            execution order (reset with the trace) — the per-layer probe
            behind group discovery, summaries and footprints.  Records
            hold their kernel maps for as long as the context lives.
        training: whether layers should save activations for backward.
        adaptive_tiling: let conv layers pick tile sizes by workload MACs
            (Section 6.2) instead of the policy's fixed tiles.
        simulate_only: run shape-only — layers emit exactly the launches
            of a numeric run but compute nothing.  Every feature and
            gradient a layer produces is a read-only, zero-strided view
            (:func:`~repro.sparse.tensor.shape_only_feats`) that carries
            only shape and dtype, and layers must not compute on the
            features they receive (no matmuls, bias or residual adds,
            concatenations).  Traces, and therefore simulated latency,
            are exact either way because they depend only on geometry
            and shapes; this is how full-scale workloads (100k+ voxels,
            256 channels) are costed with no memory or time that scales
            with ``N x C``.
        gpu_streams: virtual GPU streams for the latency model; with
            ``> 1`` the accumulated trace is list-scheduled onto its
            dependence DAG (:mod:`repro.opt.schedule`) instead of
            serialized.
    """

    def __init__(
        self,
        device: "DeviceSpec | str" = "a100",
        precision: "Precision | str" = Precision.FP16,
        policy: Optional[Policy] = None,
        training: bool = False,
        adaptive_tiling: bool = False,
        simulate_only: bool = False,
        map_cost_scale: float = 1.0,
        gpu_streams: int = 1,
    ):
        if gpu_streams < 1:
            raise ValueError(f"gpu_streams must be >= 1, got {gpu_streams}")
        self.device = get_device(device)
        self.precision = Precision.parse(precision)
        self.policy: Policy = policy or FixedPolicy()
        self.trace = KernelTrace()
        self.layers: List[LayerRecord] = []
        self.training = training
        self.adaptive_tiling = adaptive_tiling
        self.simulate_only = simulate_only
        self.gpu_streams = gpu_streams
        #: Multiplier on kernel-map construction cost (engines with slow
        #: coordinate managers, e.g. MinkowskiEngine, set this > 1).
        self.map_cost_scale = map_cost_scale
        #: One-shot charge markers: map builds, reorderings and backward
        #: preparations are charged once per map *per context* — a fresh
        #: context models a fresh engine run even when the Python-level
        #: map cache is shared for wall-clock efficiency.
        self._charged: set = set()
        #: Fully-qualified buffer id of the most recent forward conv's
        #: output features; the next forward conv reads it, chaining
        #: layers with real RAW edges in the dependence analyzer.
        self.feature_buffer: Optional[str] = None

    def charge_once(self, key: tuple) -> bool:
        """Return True exactly once per key per context."""
        if key in self._charged:
            return False
        self._charged.add(key)
        return True

    def charged_keys(self) -> FrozenSet[tuple]:
        """Snapshot of the one-shot charges this context has paid."""
        return frozenset(self._charged)

    def precharge(self, keys: "Iterable[tuple]") -> None:
        """Mark one-shot charges as already paid.

        The serving runtime uses this to model warm kernel-map state: a
        context pre-charged with the keys a previous execution of the same
        scene paid will not re-charge map builds, sorts or reorderings.
        """
        self._charged.update(keys)

    # ------------------------------------------------------------------ #
    def config(self, signature: Signature, role: Role = Role.FORWARD) -> LayerConfig:
        return self.policy.config(signature, role)

    def reset_trace(self) -> None:
        self.trace = KernelTrace()
        self.layers = []
        self.feature_buffer = None

    def execution(self) -> PricedTrace:
        """Everything traced so far, priced once on ``gpu_streams``."""
        return price_trace(
            self.trace, self.device, self.precision, self.gpu_streams
        )

    def latency_us(self) -> float:
        """Simulated latency of everything traced so far."""
        return self.execution().latency_us

    def latency_ms(self) -> float:
        return self.latency_us() / 1e3
