"""Symbolic propagation: build a :class:`~repro.analyze.ir.ModelIR` from a
model *without executing data*.

The tracer walks the module graph the way ``forward`` would, but carries a
:class:`~repro.analyze.ir.SymbolicTensor` (stride + channels + cache
lineage) instead of coordinates and features.  Convolution handlers mirror
``SparseConv3d._resolve_kmap`` exactly — including the transposed-map
lookup that raises :class:`~repro.errors.MapError` at runtime — so every
map hazard becomes a recorded :class:`~repro.analyze.ir.MapEvent` instead
of a mid-batch crash.

Handlers are registered per module type and dispatched through the MRO, so
``ConvBlock`` (a :class:`~repro.nn.sequential.Sequential` subclass) is
covered by the ``Sequential`` handler.  Models with bespoke ``forward``
control flow (skip stacks, multi-input joins) register their own handler
with :func:`register_handler`; modules with no handler anywhere in their
MRO become opaque pass-through nodes and their children are reported by the
dead-submodule lint rule.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple, TypeVar

import numpy as np

from repro.analyze.ir import (
    ChannelMismatch,
    IRNode,
    JoinEvent,
    MapEvent,
    ModelIR,
    SignatureKey,
    SymbolicTensor,
)
from repro.models.centerpoint import CenterPointBackbone
from repro.models.minkunet import MinkUNet
from repro.nn.activation import ReLU
from repro.nn.blocks import ResidualBlock
from repro.nn.conv import SparseConv3d
from repro.nn.join import ConcatSkip
from repro.nn.module import Module
from repro.nn.norm import BatchNorm
from repro.nn.sequential import Sequential

Handler = Callable[["SymbolicTracer", Module, SymbolicTensor, str], SymbolicTensor]

#: Module type -> propagation handler (dispatched through the MRO).
HANDLERS: Dict[type, Handler] = {}

_H = TypeVar("_H", bound=Handler)


def register_handler(*module_types: type) -> Callable[[_H], _H]:
    """Register a symbolic-propagation handler for one or more types."""

    def decorator(func: _H) -> _H:
        for module_type in module_types:
            HANDLERS[module_type] = func
        return func

    return decorator


class SymbolicTracer:
    """Walk a module graph, recording nodes, joins and map events."""

    def __init__(self) -> None:
        self.nodes: List[IRNode] = []
        self.joins: List[JoinEvent] = []
        self.map_events: List[MapEvent] = []
        self.channel_mismatches: List[ChannelMismatch] = []
        #: Per cache lineage: map keys known to exist in the cache.
        self._scopes: Dict[int, Set[SignatureKey]] = {}
        self._visited: Set[int] = set()
        self._next_token = 1

    # ------------------------------------------------------------------ #
    def fresh_cache(self, x: SymbolicTensor) -> SymbolicTensor:
        """Move ``x`` into a brand-new map-cache lineage (models code that
        rebuilds a ``SparseTensor`` from raw coordinates, discarding the
        shared cache — the missed-reuse hazard the kmap rule flags)."""
        token = self._next_token
        self._next_token += 1
        return SymbolicTensor(x.stride, x.channels, cache_token=token)

    def scope(self, token: int) -> Set[SignatureKey]:
        return self._scopes.setdefault(token, set())

    def visited(self, module: Module) -> bool:
        return id(module) in self._visited

    # ------------------------------------------------------------------ #
    def trace(
        self, module: Module, x: SymbolicTensor, path: str
    ) -> SymbolicTensor:
        """Dispatch one module through its handler (MRO lookup)."""
        self._visited.add(id(module))
        for klass in type(module).__mro__:
            handler = HANDLERS.get(klass)
            if handler is not None:
                return handler(self, module, x, path)
        return self._opaque(module, x, path)

    def concat(
        self,
        module: Module,
        x: SymbolicTensor,
        skip: SymbolicTensor,
        path: str,
    ) -> SymbolicTensor:
        """Two-input join (``ConcatSkip``-style): record the join event and
        concatenate channels along ``x``'s lineage."""
        self._visited.add(id(module))
        self.joins.append(
            JoinEvent(
                path=path,
                kind="concat",
                left_stride=x.stride,
                right_stride=skip.stride,
                left_channels=x.channels,
                right_channels=skip.channels,
            )
        )
        self.nodes.append(
            IRNode(
                path=path,
                module_type=type(module).__name__,
                kind="concat",
                label=getattr(module, "label", None),
                in_channels=x.channels,
                out_channels=x.channels + skip.channels,
                in_stride=x.stride,
                out_stride=x.stride,
            )
        )
        return x.with_channels(x.channels + skip.channels)

    def residual_add(
        self, path: str, main: SymbolicTensor, skip: SymbolicTensor
    ) -> SymbolicTensor:
        self.joins.append(
            JoinEvent(
                path=path,
                kind="residual_add",
                left_stride=main.stride,
                right_stride=skip.stride,
                left_channels=main.channels,
                right_channels=skip.channels,
            )
        )
        return main

    # ------------------------------------------------------------------ #
    def _opaque(
        self, module: Module, x: SymbolicTensor, path: str
    ) -> SymbolicTensor:
        self.nodes.append(
            IRNode(
                path=path,
                module_type=type(module).__name__,
                kind="opaque",
                label=getattr(module, "label", None),
                in_channels=x.channels,
                in_stride=x.stride,
                out_stride=x.stride,
            )
        )
        return x


# ---------------------------------------------------------------------- #
# Layer handlers
# ---------------------------------------------------------------------- #
@register_handler(SparseConv3d)
def _trace_conv(
    tracer: SymbolicTracer, module: Module, x: SymbolicTensor, path: str
) -> SymbolicTensor:
    assert isinstance(module, SparseConv3d)
    if x.channels != module.in_channels:
        tracer.channel_mismatches.append(
            ChannelMismatch(
                path=path, expected=module.in_channels, got=x.channels
            )
        )
    scope = tracer.scope(x.cache_token)
    kernel_size: Tuple[int, ...] = module.kernel_size
    stride: Tuple[int, ...] = module.stride
    ndim = module.ndim

    if module.is_pointwise:
        # Identity map; the runtime caches it but charges nothing.
        out_stride = x.stride
    elif not module.transposed:
        out_stride = tuple(t * s for t, s in zip(x.stride, stride))
        key: SignatureKey = (x.stride, kernel_size, stride, False)
        if key in scope:
            event = "hit"
        else:
            event = "build"
            scope.add(key)
        tracer.map_events.append(
            MapEvent(path=path, key=key, cache_token=x.cache_token, event=event)
        )
    else:
        if any(t % s for t, s in zip(x.stride, stride)):
            out_stride = tuple(max(1, t // s) for t, s in zip(x.stride, stride))
            t_key = (x.stride, kernel_size, stride, True)
            tracer.map_events.append(
                MapEvent(
                    path=path,
                    key=t_key,
                    cache_token=x.cache_token,
                    event="bad_upsample",
                )
            )
        else:
            out_stride = tuple(t // s for t, s in zip(x.stride, stride))
            t_key = (x.stride, kernel_size, stride, True)
            if t_key in scope:
                event = "hit"
            else:
                base_key: SignatureKey = (out_stride, kernel_size, stride, False)
                event = (
                    "transposed_reuse" if base_key in scope
                    else "missing_forward_map"
                )
                scope.add(t_key)
            tracer.map_events.append(
                MapEvent(
                    path=path,
                    key=t_key,
                    cache_token=x.cache_token,
                    event=event,
                )
            )

    # Transient read: a pending draw is not kept.  |w| reduces exactly in
    # float32; the squares are float64, so the rms is that of a float64
    # copy, bit for bit.
    weight = module.weight.peek()
    tracer.nodes.append(
        IRNode(
            path=path,
            module_type=type(module).__name__,
            kind="conv",
            label=module.label,
            in_channels=module.in_channels,
            out_channels=module.out_channels,
            in_stride=x.stride,
            out_stride=out_stride,
            kernel_size=kernel_size,
            conv_stride=stride,
            transposed=module.transposed,
            pointwise=module.is_pointwise,
            signature=module.signature(x.stride),
            weight_abs_max=float(np.max(np.abs(weight))) if weight.size else 0.0,
            weight_rms=float(
                np.sqrt(np.mean(np.square(weight, dtype=np.float64)))
            )
            if weight.size
            else 0.0,
        )
    )
    del ndim
    return SymbolicTensor(out_stride, module.out_channels, x.cache_token)


@register_handler(BatchNorm)
def _trace_norm(
    tracer: SymbolicTracer, module: Module, x: SymbolicTensor, path: str
) -> SymbolicTensor:
    assert isinstance(module, BatchNorm)
    if x.channels != module.num_features:
        tracer.channel_mismatches.append(
            ChannelMismatch(
                path=path, expected=module.num_features, got=x.channels
            )
        )
    tracer.nodes.append(
        IRNode(
            path=path,
            module_type=type(module).__name__,
            kind="norm",
            label=module.label,
            in_channels=x.channels,
            out_channels=x.channels,
            in_stride=x.stride,
            out_stride=x.stride,
        )
    )
    return x


@register_handler(ReLU)
def _trace_activation(
    tracer: SymbolicTracer, module: Module, x: SymbolicTensor, path: str
) -> SymbolicTensor:
    tracer.nodes.append(
        IRNode(
            path=path,
            module_type=type(module).__name__,
            kind="activation",
            label=getattr(module, "label", None),
            in_channels=x.channels,
            out_channels=x.channels,
            in_stride=x.stride,
            out_stride=x.stride,
        )
    )
    return x


@register_handler(Sequential)
def _trace_sequential(
    tracer: SymbolicTracer, module: Module, x: SymbolicTensor, path: str
) -> SymbolicTensor:
    assert isinstance(module, Sequential)
    for i, layer in enumerate(module):
        x = tracer.trace(layer, x, f"{path}.layers.{i}")
    return x


@register_handler(ResidualBlock)
def _trace_residual(
    tracer: SymbolicTracer, module: Module, x: SymbolicTensor, path: str
) -> SymbolicTensor:
    assert isinstance(module, ResidualBlock)
    if module.projection is not None:
        identity = tracer.trace(module.projection, x, f"{path}.projection")
    else:
        identity = x
    out = tracer.trace(module.conv1, x, f"{path}.conv1")
    out = tracer.trace(module.bn1, out, f"{path}.bn1")
    out = tracer.trace(module.relu1, out, f"{path}.relu1")
    out = tracer.trace(module.conv2, out, f"{path}.conv2")
    out = tracer.trace(module.bn2, out, f"{path}.bn2")
    out = tracer.residual_add(path, out, identity)
    return tracer.trace(module.relu_out, out, f"{path}.relu_out")


@register_handler(ConcatSkip)
def _trace_concat_skip(
    tracer: SymbolicTracer, module: Module, x: SymbolicTensor, path: str
) -> SymbolicTensor:
    # ConcatSkip takes two tensors; reaching it through single-input
    # dispatch means the enclosing model's handler forgot to route the
    # skip operand through ``tracer.concat`` — degrade to opaque.
    return tracer._opaque(module, x, path)


# ---------------------------------------------------------------------- #
# Model handlers (mirror each model's forward control flow)
# ---------------------------------------------------------------------- #
@register_handler(MinkUNet)
def _trace_minkunet(
    tracer: SymbolicTracer, module: Module, x: SymbolicTensor, path: str
) -> SymbolicTensor:
    assert isinstance(module, MinkUNet)
    x = tracer.trace(module.stem, x, f"{path}.stem")
    skips: List[SymbolicTensor] = []
    for i, (down, blocks) in enumerate(
        zip(module.down_convs, module.enc_blocks)
    ):
        skips.append(x)
        x = tracer.trace(down, x, f"{path}.down_convs.{i}")
        x = tracer.trace(blocks, x, f"{path}.enc_blocks.{i}")
    for j, (up, concat, blocks) in enumerate(
        zip(module.up_convs, module.concats, module.dec_blocks)
    ):
        x = tracer.trace(up, x, f"{path}.up_convs.{j}")
        x = tracer.concat(concat, x, skips.pop(), f"{path}.concats.{j}")
        x = tracer.trace(blocks, x, f"{path}.dec_blocks.{j}")
    return tracer.trace(module.classifier, x, f"{path}.classifier")


@register_handler(CenterPointBackbone)
def _trace_centerpoint(
    tracer: SymbolicTracer, module: Module, x: SymbolicTensor, path: str
) -> SymbolicTensor:
    assert isinstance(module, CenterPointBackbone)
    x = tracer.trace(module.input_conv, x, f"{path}.input_conv")
    for i, stage in enumerate(module.stages):
        x = tracer.trace(stage, x, f"{path}.stages.{i}")
    return tracer.trace(module.out_conv, x, f"{path}.out_conv")


# ---------------------------------------------------------------------- #
def _unvisited_subtrees(model: Module, visited: Set[int]) -> List[str]:
    """Top-most named_modules paths the symbolic walk never reached."""
    dead: List[str] = []
    for module_path, module in model.named_modules():
        if id(module) in visited:
            continue
        if any(
            module_path == p or module_path.startswith(p + ".") for p in dead
        ):
            continue  # already covered by an unvisited ancestor
        dead.append(module_path)
    return dead


def trace_model(
    model: Module,
    in_channels: int,
    ndim: int = 3,
    stride: "Tuple[int, ...] | None" = None,
) -> ModelIR:
    """Propagate a symbolic input through ``model`` and return its IR."""
    tracer = SymbolicTracer()
    x = SymbolicTensor(
        stride=stride or (1,) * ndim, channels=in_channels, cache_token=0
    )
    ir = ModelIR(model_type=type(model).__name__, input=x)
    ir.output = tracer.trace(model, x, type(model).__name__)
    ir.nodes = tracer.nodes
    ir.joins = tracer.joins
    ir.map_events = tracer.map_events
    ir.channel_mismatches = tracer.channel_mismatches
    ir.unvisited_paths = _unvisited_subtrees(model, tracer._visited)
    ir.mark_boundaries()
    return ir
