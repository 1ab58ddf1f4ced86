"""Batch normalization over sparse tensor features."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind
from repro.nn.context import ExecutionContext
from repro.nn.module import ConstantInit, Module, Parameter
from repro.sparse.tensor import SparseTensor


def _constant(n: int, value: float) -> np.ndarray:
    """A read-only float32 vector of ``n`` copies of ``value``, no storage."""
    return np.broadcast_to(np.float32(value), (n,))


class BatchNorm(Module):
    """BatchNorm1d over the channel dimension of a sparse tensor.

    Normalizes across all points (the sparse analogue of spatial batch
    norm).  Elementwise layers are bandwidth bound; the trace charges two
    passes in training (stats + normalize) and one in inference.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1,
                 label: Optional[str] = None):
        super().__init__()
        if num_features < 1:
            raise ConfigError("num_features must be >= 1")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.label = label or f"bn{id(self) % 10000}"
        self.gamma = Parameter(init=ConstantInit((num_features,), 1.0))
        self.beta = Parameter(init=ConstantInit((num_features,), 0.0))
        # Read-only constants until a training forward replaces them, so
        # building a layer allocates nothing that scales with its width.
        self.running_mean = _constant(num_features, 0.0)
        self.running_var = _constant(num_features, 1.0)
        self._saved: Optional[dict] = None

    def _charge(self, n: int, ctx: ExecutionContext, passes: int) -> None:
        bytes_ = float(ctx.precision.itemsize) * n * self.num_features
        trace = KernelTrace()
        trace.add(
            KernelLaunch(
                name=f"{self.label}/batchnorm",
                kind=LaunchKind.MEMORY,
                flops=5.0 * n * self.num_features,
                dram_read_bytes=bytes_ * passes,
                dram_write_bytes=bytes_,
                ctas=max(1, n * self.num_features // 4096),
                overlapped=True,
            )
        )
        ctx.trace.extend(trace)

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        if ctx.simulate_only:
            self._charge(x.num_points, ctx, passes=2 if self.training else 1)
            if self.training:
                self._saved = {
                    "normalized": x.feats,
                    "inv_std": np.ones(self.num_features, dtype=np.float32),
                    "n": x.num_points,
                }
            return x
        feats = x.feats.astype(np.float32)
        if self.training:
            mean = feats.mean(axis=0)
            var = feats.var(axis=0)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
            self._charge(x.num_points, ctx, passes=2)
        else:
            mean = self.running_mean
            var = self.running_var
            self._charge(x.num_points, ctx, passes=1)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalized = (feats - mean) * inv_std
        out = normalized * self.gamma.data + self.beta.data
        if self.training:
            self._saved = {"normalized": normalized, "inv_std": inv_std,
                           "n": x.num_points}
        return x.with_feats(out.astype(ctx.precision.dtype))

    def backward(self, grad_out: np.ndarray, ctx: ExecutionContext) -> np.ndarray:
        if self._saved is None:
            raise RuntimeError(f"{self.label}: backward without forward")
        if ctx.simulate_only:
            self._charge(self._saved["n"], ctx, passes=2)
            self.gamma.accumulate(np.zeros(self.num_features))
            self.beta.accumulate(np.zeros(self.num_features))
            return grad_out
        normalized = self._saved["normalized"]
        inv_std = self._saved["inv_std"]
        n = self._saved["n"]
        grad = grad_out.astype(np.float32)
        self.gamma.accumulate((grad * normalized).sum(axis=0))
        self.beta.accumulate(grad.sum(axis=0))
        # Standard batch-norm input gradient.
        g = grad * self.gamma.data
        grad_in = (
            inv_std
            / n
            * (n * g - g.sum(axis=0) - normalized * (g * normalized).sum(axis=0))
        )
        self._charge(n, ctx, passes=2)
        return grad_in.astype(ctx.precision.dtype)
