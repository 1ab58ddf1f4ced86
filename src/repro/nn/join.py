"""Feature joining for U-Net skip connections."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError
from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind
from repro.nn.context import ExecutionContext
from repro.nn.module import Module
from repro.sparse.tensor import SparseTensor, shape_only_feats


class ConcatSkip(Module):
    """Concatenate decoder features with an encoder skip tensor.

    Both tensors must live on the same coordinate set (guaranteed when the
    decoder's inverse convolution reuses the encoder's kernel map, which
    returns to exactly the encoder's coordinates in the same order).
    """

    def __init__(self, label: str = "concat"):
        super().__init__()
        self.label = label
        self._split_at = 0

    def _charge(self, elements: int, ctx: ExecutionContext) -> None:
        bytes_ = float(ctx.precision.itemsize) * elements
        ctx.trace.extend(
            KernelTrace(
                [
                    KernelLaunch(
                        name=f"{self.label}/concat",
                        kind=LaunchKind.MEMORY,
                        dram_read_bytes=bytes_,
                        dram_write_bytes=bytes_,
                        ctas=max(1, elements // 4096),
                        overlapped=True,
                    )
                ]
            )
        )

    def forward(
        self, x: SparseTensor, skip: SparseTensor, ctx: ExecutionContext
    ) -> SparseTensor:
        if x.num_points != skip.num_points:
            raise ShapeError(
                f"{self.label}: cannot concat {x.num_points} with "
                f"{skip.num_points} points"
            )
        self._split_at = x.num_channels
        if ctx.simulate_only:
            feats = shape_only_feats(
                x.num_points, x.num_channels + skip.num_channels,
                x.feats.dtype,
            )
        else:
            feats = np.concatenate(
                [x.feats, skip.feats.astype(x.feats.dtype)], axis=1
            )
        self._charge(feats.size, ctx)
        return x.with_feats(feats)

    def backward(
        self, grad: np.ndarray, ctx: ExecutionContext
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Split the gradient back into (main, skip) parts."""
        self._charge(grad.size, ctx)
        return grad[:, : self._split_at], grad[:, self._split_at:]
