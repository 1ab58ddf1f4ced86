"""Static intermediate representation of a sparse-convolution model.

The IR is produced by :mod:`repro.analyze.propagate` *without executing any
data*: coordinate stride, channel counts and kernel-map scope are propagated
symbolically through the model graph.  Everything a lint rule needs is a
plain record here — nodes (one per layer execution), join events (skip
connections and residual adds), kernel-map events (builds, cache hits,
transposed-map lookups) and channel mismatches.

All the hazards the paper's design space exposes — stride-mismatched skip
joins, transposed convolutions with no cached encoder map, channel counts
that waste tensor-core tiles through padding (Figure 21) — are decidable on
this IR at load time, before a single batch runs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

#: Per-dimension coordinate (tensor) stride.
Stride = Tuple[int, ...]

#: A layer's map signature: ``(tensor_stride, kernel_size, stride,
#: transposed)`` — the autotuner group identity of Section 4.2.
SignatureKey = Tuple[Stride, Stride, Stride, bool]


@dataclasses.dataclass(frozen=True)
class SymbolicTensor:
    """What static propagation knows about a tensor: no data, only shape.

    Attributes:
        stride: coordinate stride per spatial dimension.
        channels: feature width.
        cache_token: identity of the ``MapCache`` lineage this tensor's maps
            live in.  Layers chained through ``SparseTensor.with_feats`` /
            convolution outputs share one token; a module that materialises
            a fresh tensor breaks the lineage (and with it kernel-map
            reuse), which :func:`repro.analyze.rules` flags.
    """

    stride: Stride
    channels: int
    cache_token: int = 0

    def with_channels(self, channels: int) -> "SymbolicTensor":
        return dataclasses.replace(self, channels=channels)


@dataclasses.dataclass
class IRNode:
    """One layer execution in the symbolic walk (a layer traced twice —
    e.g. shared submodules — contributes one node per execution)."""

    path: str
    module_type: str
    kind: str  # "conv" | "norm" | "activation" | "concat" | "opaque"
    label: Optional[str] = None
    in_channels: Optional[int] = None
    out_channels: Optional[int] = None
    in_stride: Optional[Stride] = None
    out_stride: Optional[Stride] = None
    kernel_size: Optional[Stride] = None
    conv_stride: Optional[Stride] = None
    transposed: bool = False
    pointwise: bool = False
    signature: Optional[SignatureKey] = None
    #: "input" / "output" for network-boundary convolutions whose channel
    #: counts are fixed by the dataset / task (set after the walk).
    boundary: str = ""
    #: Static weight statistics for the value-range pass (conv nodes):
    #: the largest |w| and the RMS of the initialized weight tensor.
    weight_abs_max: Optional[float] = None
    weight_rms: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class JoinEvent:
    """Two branches meeting: a concat skip or a residual add."""

    path: str
    kind: str  # "concat" | "residual_add"
    left_stride: Stride
    right_stride: Stride
    left_channels: int
    right_channels: int


@dataclasses.dataclass(frozen=True)
class MapEvent:
    """One kernel-map interaction during the symbolic walk.

    ``event`` is one of:

    * ``"build"`` — a fresh map is constructed (hash build + queries);
    * ``"hit"`` — an identical map already exists in this cache scope;
    * ``"transposed_reuse"`` — a transposed conv found its matching forward
      map in scope and reuses it (free relabeling);
    * ``"missing_forward_map"`` — a transposed conv found **no** forward
      map in scope: at runtime this raises
      :class:`~repro.errors.MapError` mid-batch;
    * ``"bad_upsample"`` — the tensor stride is not divisible by the
      transposed conv's stride.
    """

    path: str
    key: SignatureKey
    cache_token: int
    event: str


@dataclasses.dataclass(frozen=True)
class ChannelMismatch:
    """A layer fed a different channel count than it was built for."""

    path: str
    expected: int
    got: int


@dataclasses.dataclass
class ModelIR:
    """The full static IR of one model: nodes plus structural events."""

    model_type: str
    input: SymbolicTensor
    output: Optional[SymbolicTensor] = None
    nodes: List[IRNode] = dataclasses.field(default_factory=list)
    joins: List[JoinEvent] = dataclasses.field(default_factory=list)
    map_events: List[MapEvent] = dataclasses.field(default_factory=list)
    channel_mismatches: List[ChannelMismatch] = dataclasses.field(
        default_factory=list
    )
    #: Paths of modules (``Module.named_modules`` order) never reached by
    #: the symbolic walk — candidates for the dead-submodule rule.
    unvisited_paths: List[str] = dataclasses.field(default_factory=list)

    # ------------------------------------------------------------------ #
    def conv_nodes(self) -> List[IRNode]:
        return [n for n in self.nodes if n.kind == "conv"]

    def signature_groups(self) -> Dict[SignatureKey, List[IRNode]]:
        """Conv nodes grouped by map signature (= autotuner groups)."""
        groups: Dict[SignatureKey, List[IRNode]] = {}
        for node in self.conv_nodes():
            if node.signature is not None:
                groups.setdefault(node.signature, []).append(node)
        return groups

    def map_builds(self) -> Dict[SignatureKey, List[MapEvent]]:
        """``build`` events per map key, across all cache scopes."""
        builds: Dict[SignatureKey, List[MapEvent]] = {}
        for event in self.map_events:
            if event.event == "build":
                builds.setdefault(event.key, []).append(event)
        return builds

    def mark_boundaries(self) -> None:
        """Tag the first conv's input and the last conv's output as fixed
        by the task (dataset channels / class count): their alignment is
        not the architect's to change."""
        convs = self.conv_nodes()
        if not convs:
            return
        convs[0].boundary = "input"
        last = convs[-1]
        last.boundary = "output" if last.boundary == "" else "input+output"

    def describe(self) -> str:
        lines = [
            f"{self.model_type}: {len(self.nodes)} nodes, "
            f"{len(self.conv_nodes())} convolutions, "
            f"{len(self.signature_groups())} map signatures, "
            f"{len(self.joins)} joins"
        ]
        for key, group in sorted(
            self.signature_groups().items(), key=lambda kv: -len(kv[1])
        ):
            stride, kernel, conv_stride, transposed = key
            lines.append(
                f"  signature stride={stride} k={kernel} s={conv_stride}"
                f"{' transposed' if transposed else ''}: "
                f"{len(group)} layer(s)"
            )
        return "\n".join(lines)
