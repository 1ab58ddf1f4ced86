"""Sparse 3-D convolution layer.

Supports submanifold convolution (stride 1: outputs coincide with inputs),
strided/generalized convolution (downsampling), transposed ("inverse")
convolution reusing the encoder's cached kernel map, and pointwise
(kernel size 1) convolution executed as a plain GEMM with no mapping cost.

The layer resolves its kernel map through the tensor's shared
:class:`~repro.sparse.tensor.MapCache`; a cache miss charges the mapping
cost to the execution trace.  In training mode the forward pass saves what
backward needs; :meth:`backward` runs the dgrad dataflow (forward dataflow
on the transposed map with transposed weights) and the wgrad kernel, each
under its own :class:`~repro.nn.context.Role` config — the axis the
training tuner exploits (Figure 13 / Figure 22).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError, MapError
from repro.gpusim.trace import UNSCOPED, KernelTrace, TraceScope
from repro.kernels.base import KernelSchedule, sparse_conv
from repro.kernels.registry import Dataflow, trace_dataflow
from repro.kernels.wgrad import wgrad, wgrad_trace
from repro.nn.context import (
    ExecutionContext,
    LayerConfig,
    LayerRecord,
    Role,
    Signature,
)
from repro.nn.mapping_cost import map_build_trace, map_reorder_trace
from repro.nn.module import ConstantInit, Module, NormalInit, Parameter
from repro.precision import Precision
from repro.sparse.hashmap import HashMapStats
from repro.sparse.kernel_offsets import kernel_volume, normalize_kernel_size
from repro.sparse.kmap import KernelMap, MapKey, build_kernel_map
from repro.sparse.tensor import SparseTensor, shape_only_feats


def _identity_kmap(tensor: SparseTensor) -> KernelMap:
    """Trivial map for pointwise convolution: every output is its input."""
    n = tensor.num_points
    return KernelMap(
        nbmap=np.arange(n, dtype=np.int32).reshape(n, 1),
        offsets=np.zeros((1, tensor.ndim), dtype=np.int32),
        num_inputs=n,
        out_coords=tensor.coords,
        build_stats=HashMapStats(),
        key=MapKey(
            kernel_size=(1,) * tensor.ndim,
            stride=(1,) * tensor.ndim,
            tensor_stride=tensor.stride,
        ),
        in_coords=tensor.coords,
    )


def _pass_operands(
    role: Role, kmap: KernelMap, c_in: int, c_out: int
) -> Tuple[KernelMap, int, int]:
    """The map and channel counts a forward or dgrad pass runs on: dgrad
    runs the forward dataflow on the transposed map with the channel
    counts swapped."""
    if role is Role.DGRAD:
        return kmap.transposed(), c_out, c_in
    return kmap, c_in, c_out


def conv_pass_trace(
    role: Role,
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    config: LayerConfig,
    precision: Precision,
    schedule: Optional[KernelSchedule] = None,
    charge_mapping: bool = True,
    scope: TraceScope = UNSCOPED,
) -> KernelTrace:
    """The trace of one ``role`` pass of a ``c_in -> c_out`` convolution
    on ``kmap`` under ``config``: the one cost recipe that
    :class:`SparseConv3d` executes and both autotuners price.

    ``schedule`` overrides the config's tiles (adaptive tiling);
    ``charge_mapping=False`` omits the map preparation a warm
    (map, config) already paid.
    """
    schedule = schedule or config.schedule
    if role is Role.WGRAD:
        ig = config.ig_config
        sorted_maps = config.dataflow is Dataflow.IMPLICIT_GEMM and ig.sort
        gathered = config.dataflow in (Dataflow.GATHER_SCATTER,
                                       Dataflow.GATHER_SCATTER_FUSED)
        return wgrad_trace(
            kmap, c_in, c_out, schedule=schedule, precision=precision,
            gathered=gathered, sorted_maps=sorted_maps,
            online_reorder=sorted_maps and not ig.offline_reorder,
            tensor_cores=config.tensor_cores, scope=scope,
        )
    kmap, c_in, c_out = _pass_operands(role, kmap, c_in, c_out)
    return trace_dataflow(
        config.dataflow, kmap, c_in, c_out, schedule=schedule,
        precision=precision, ig_config=config.ig_config,
        tensor_cores=config.tensor_cores, charge_mapping=charge_mapping,
        gs_chunks=config.gs_chunks, scope=scope,
    )


def needs_conversion(kmap: KernelMap, config: LayerConfig) -> bool:
    """Whether ``config``'s dataflow needs ``kmap`` in a storage order the
    map was not built in (Section 4.2: maps are stored weight- or
    output-stationary, and converting costs real time — the reason
    intra-group heterogeneous dataflows are not allowed).  Pointwise maps
    have no structure to convert."""
    return (
        kmap.volume > 1
        and config.dataflow.weight_stationary != kmap.native_weight_stationary
    )


def structure_conversion_trace(
    kmap: KernelMap, config: LayerConfig, name: str = "convert"
) -> KernelTrace:
    """The storage-order conversion ``config`` needs on ``kmap``: one
    reordering pass, or an empty trace when none is needed."""
    if not needs_conversion(kmap, config):
        return KernelTrace()
    return map_reorder_trace(kmap, name)


def backward_prep_identity(config: LayerConfig) -> Tuple:
    """What a backward pass's map preparation depends on: two backward
    configs with the same identity share one preparation (Figure 13)."""
    return (config.dataflow, config.ig_config, config.schedule.tile_m)


def backward_prep_trace(kmap: KernelMap, name: str = "bwd_prep") -> KernelTrace:
    """The map preparation a backward pass pays when its prep identity
    differs from the other backward pass's: one reordering pass over
    ``kmap`` (the first identity's preparation is in dgrad's own trace)."""
    return map_reorder_trace(kmap, name)


class SparseConv3d(Module):
    """Sparse convolution over a :class:`SparseTensor`.

    Args:
        in_channels / out_channels: feature widths.
        kernel_size: scalar or per-dimension ``K``.
        stride: convolution stride; with ``transposed=True`` this is the
            upsampling factor instead.
        transposed: inverse convolution — requires that the matching
            downsampling convolution ran earlier on the same map cache
            (standard U-Net usage).
        bias: add a learned per-channel bias.
        label: name used to prefix this layer's trace launches.
        seed: weight initialisation seed.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: "int | Tuple[int, ...]" = 3,
        stride: int = 1,
        transposed: bool = False,
        bias: bool = False,
        label: Optional[str] = None,
        seed: int = 0,
        ndim: int = 3,
    ):
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise ConfigError("channel counts must be >= 1")
        if transposed and stride == 1:
            raise ConfigError("transposed convolution requires stride > 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.ndim = ndim
        self.kernel_size = normalize_kernel_size(kernel_size, ndim)
        self.stride = normalize_kernel_size(stride, ndim)
        self.transposed = transposed
        self.label = label or f"conv{id(self) % 10000}"
        volume = kernel_volume(self.kernel_size, ndim)
        # He-normal, drawn only when a numeric pass first reads it.
        self.weight = Parameter(init=NormalInit(
            shape=(volume, in_channels, out_channels),
            seed=seed,
            std=math.sqrt(2.0 / (volume * in_channels)),
        ))
        self.bias = (
            Parameter(init=ConstantInit((out_channels,), 0.0)) if bias else None
        )
        self._saved: Optional[dict] = None

    # ------------------------------------------------------------------ #
    @property
    def volume(self) -> int:
        return self.weight.shape[0]

    @property
    def is_pointwise(self) -> bool:
        return all(k == 1 for k in self.kernel_size) and all(
            s == 1 for s in self.stride
        )

    def signature(self, tensor_stride: Tuple[int, ...]) -> Signature:
        """The layer's map signature = its autotuner group identity."""
        return (tensor_stride, self.kernel_size, self.stride, self.transposed)

    # ------------------------------------------------------------------ #
    def _resolve_kmap(
        self, x: SparseTensor, ctx: ExecutionContext
    ) -> Tuple[KernelMap, Tuple[int, ...]]:
        """Fetch or build the kernel map; charges build cost on miss."""
        if self.is_pointwise:
            key = (x.stride, (1,) * self.ndim, (1,) * self.ndim, False)
            kmap = x.cache.get(key)
            if kmap is None:
                kmap = x.cache.put(key, _identity_kmap(x))
            return kmap, x.stride

        if not self.transposed:
            out_stride = tuple(
                t * s for t, s in zip(x.stride, self.stride)
            )
            key = (x.stride, self.kernel_size, self.stride, False)
            kmap = x.cache.get(key)
            if kmap is None:
                kmap = build_kernel_map(
                    x.coords,
                    kernel_size=self.kernel_size,
                    stride=self.stride,
                    tensor_stride=x.stride,
                )
                x.cache.put(key, kmap)
            # Build cost is charged once per map per context: a fresh
            # context models a fresh engine run even when the Python-level
            # map cache is retained across runs for wall-clock efficiency.
            if ctx.charge_once((id(kmap), "build")):
                build = map_build_trace(kmap, f"{self.label}/map")
                if ctx.map_cost_scale != 1.0:
                    for launch in build:
                        launch.scalar_ops *= ctx.map_cost_scale
                        launch.dram_read_bytes *= ctx.map_cost_scale
                        launch.dram_write_bytes *= ctx.map_cost_scale
                ctx.trace.extend(build)
            return kmap, out_stride

        # Transposed: reuse the map built by the matching downsample conv.
        out_stride = tuple(t // s for t, s in zip(x.stride, self.stride))
        if any(t % s for t, s in zip(x.stride, self.stride)):
            raise ConfigError(
                f"cannot upsample stride {x.stride} by {self.stride}"
            )
        t_key = (x.stride, self.kernel_size, self.stride, True)
        kmap = x.cache.get(t_key)
        if kmap is None:
            base_key = (out_stride, self.kernel_size, self.stride, False)
            base = x.cache.get(base_key)
            if base is None:
                raise MapError(
                    f"{self.label}: transposed convolution found no cached "
                    f"map for {base_key}; run the matching downsample first"
                )
            # The same object dgrad of the downsample conv runs on: a
            # relabelling of the stored map, free on device (empty stats).
            kmap = base.transposed()
            x.cache.put(t_key, kmap)
        return kmap, out_stride

    def _run(
        self, feats: np.ndarray, kmap: KernelMap, config: LayerConfig,
        ctx: ExecutionContext, role: Role,
    ) -> np.ndarray:
        """One forward or dgrad pass over the layer's map ``kmap``: its
        output (shape-only when simulating) and its trace."""
        tag = "fwd" if role is Role.FORWARD else "dgrad"
        run_map, c_in, c_out = _pass_operands(
            role, kmap, self.in_channels, self.out_channels
        )
        schedule = config.schedule
        if ctx.adaptive_tiling:
            from repro.codegen.tiling import adaptive_schedule

            schedule = adaptive_schedule(
                float(run_map.total_pairs) * c_in * c_out, base=schedule,
                shape=(run_map.num_outputs, c_out, run_map.volume * c_in),
                device=ctx.device,
            )
        # Sorting/reordering happens once per (map, config) and is reused
        # by every other layer in the group (Section 4.2): charge it on
        # first use only (per context — see MapCache note in _resolve_kmap).
        # Keyed by pass too: an inverse conv's forward and the matching
        # downsample's dgrad run on the same transposed map, and each pass
        # prepares its own reordering.
        charge_mapping = ctx.charge_once(
            (id(run_map), "reorder", tag, config.dataflow, config.ig_config)
        )

        if ctx.simulate_only:
            out = shape_only_feats(run_map.num_outputs, c_out, ctx.precision.dtype)
        else:
            weights = self.weight.data
            if role is Role.DGRAD:  # W^T per offset
                weights = np.ascontiguousarray(weights.transpose(0, 2, 1))
            out = sparse_conv(feats, weights, run_map, ctx.precision)
        # Launches and buffers are named per layer and pass; forward passes
        # read their input features from the previous layer's output buffer
        # so consecutive convolutions are chained by real RAW edges.
        scope = TraceScope(
            f"{self.label}/{tag}",
            feats_in=ctx.feature_buffer if role is Role.FORWARD else None,
        )
        ctx.trace.extend(conv_pass_trace(
            role, kmap, self.in_channels, self.out_channels, config,
            ctx.precision, schedule=schedule, charge_mapping=charge_mapping,
            scope=scope,
        ))
        if role is Role.FORWARD:
            ctx.feature_buffer = f"ext:{scope.prefix}:feats_out"
        return out

    # ------------------------------------------------------------------ #
    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        if x.num_channels != self.in_channels:
            raise ConfigError(
                f"{self.label}: expected {self.in_channels} input channels, "
                f"got {x.num_channels}"
            )
        kmap, out_stride = self._resolve_kmap(x, ctx)
        signature = self.signature(x.stride)
        ctx.layers.append(
            LayerRecord(
                signature, kmap, self.in_channels, self.out_channels, self.label
            )
        )
        config = ctx.config(signature, Role.FORWARD)
        self._mark_structure(kmap, config, ctx)
        out_feats = self._run(x.feats, kmap, config, ctx, Role.FORWARD)
        if self.bias is not None and not ctx.simulate_only:
            out_feats = out_feats + self.bias.data.astype(out_feats.dtype)
        if self.training:
            self._saved = {
                "feats": x.feats,
                "kmap": kmap,
                "signature": signature,
            }
        return SparseTensor(
            kmap.out_coords, out_feats, stride=out_stride, cache=x.cache
        )

    def _mark_structure(
        self, kmap: KernelMap, config: LayerConfig, ctx: ExecutionContext
    ) -> None:
        """Charge the storage-order conversion ``config`` needs the first
        time this context needs ``kmap`` in that order."""
        key = (id(kmap), "structure", config.dataflow.weight_stationary)
        if needs_conversion(kmap, config) and ctx.charge_once(key):
            ctx.trace.extend(
                structure_conversion_trace(kmap, config, f"{self.label}/map")
            )

    def _charge_backward_prep(
        self, kmap: KernelMap, config: LayerConfig, ctx: ExecutionContext
    ) -> None:
        """Charge backward map preparation once per distinct backward
        prep identity (Figure 13): dgrad and wgrad share the same maps, so
        when the training tuner binds them (sparse-mapping oriented
        scheme) the backward pass prepares maps once; decoupled configs
        pay twice."""
        key = (id(kmap), "bwd_prep", *backward_prep_identity(config))
        if not ctx.charge_once(key):
            return
        if ctx.charge_once((id(kmap), "bwd_prep_any")):
            return  # dgrad's own trace already charges its preparation
        ctx.trace.extend(backward_prep_trace(kmap, f"{self.label}/bwd_map"))

    def backward(self, grad_out: np.ndarray, ctx: ExecutionContext) -> np.ndarray:
        """Compute input gradients; accumulates weight/bias gradients."""
        if self._saved is None:
            raise RuntimeError(
                f"{self.label}: backward called without a training forward"
            )
        feats = self._saved["feats"]
        kmap: KernelMap = self._saved["kmap"]
        signature = self._saved["signature"]

        # dgrad: forward dataflow on the transposed map with W^T per offset.
        dgrad_cfg = ctx.config(signature, Role.DGRAD)
        self._charge_backward_prep(kmap, dgrad_cfg, ctx)
        grad_in = self._run(grad_out, kmap, dgrad_cfg, ctx, Role.DGRAD)

        # wgrad under its own config.
        wgrad_cfg = ctx.config(signature, Role.WGRAD)
        self._charge_backward_prep(kmap, wgrad_cfg, ctx)
        if not ctx.simulate_only:
            self.weight.accumulate(wgrad(feats, grad_out, kmap, ctx.precision))
            if self.bias is not None:
                self.bias.accumulate(grad_out.sum(axis=0))
        elif self.weight.grad is None:
            self.weight.grad = self.weight.shape_only()
        ctx.trace.extend(conv_pass_trace(
            Role.WGRAD, kmap, self.in_channels, self.out_channels, wgrad_cfg,
            ctx.precision, scope=TraceScope(f"{self.label}/wgrad"),
        ))
        return grad_in
