"""MinkUNet: the U-Net segmentation backbone of Choy et al. (CVPR 2019).

Structure (matching the MinkUNet used by TorchSparse and the paper):

* stem: two 3x3x3 submanifold convolutions;
* 4 encoder stages: a 2x2x2 stride-2 downsampling convolution followed by
  two residual blocks;
* 4 decoder stages: a 2x2x2 stride-2 *inverse* convolution (reusing the
  encoder's kernel map), concatenation with the encoder skip tensor, and
  two residual blocks;
* a pointwise classifier.

``width`` scales every channel count (the paper evaluates 0.5x and 1x on
SemanticKITTI).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.blocks import ConvBlock, ResidualBlock
from repro.nn.context import ExecutionContext
from repro.nn.conv import SparseConv3d
from repro.nn.join import ConcatSkip
from repro.nn.module import Module, ModuleList
from repro.nn.sequential import Sequential
from repro.sparse.tensor import SparseTensor

#: Channel plan at width 1.0 (stem, 4 encoder stages, 4 decoder stages).
STEM_CHANNELS = 32
ENCODER_CHANNELS = (32, 64, 128, 256)
DECODER_CHANNELS = (256, 128, 96, 96)


def _scaled(channels: int, width: float) -> int:
    return max(8, int(round(channels * width)))


class MinkUNet(Module):
    """Sparse U-Net for point cloud segmentation."""

    def __init__(
        self,
        in_channels: int = 4,
        num_classes: int = 19,
        width: float = 1.0,
        seed: int = 0,
    ):
        super().__init__()
        self.width = width
        stem_ch = _scaled(STEM_CHANNELS, width)
        enc_chs = [_scaled(c, width) for c in ENCODER_CHANNELS]
        dec_chs = [_scaled(c, width) for c in DECODER_CHANNELS]

        self.stem = Sequential(
            ConvBlock(in_channels, stem_ch, 3, label="stem1", seed=seed),
            ConvBlock(stem_ch, stem_ch, 3, label="stem2", seed=seed + 1),
        )

        self.down_convs = ModuleList()
        self.enc_blocks = ModuleList()
        prev = stem_ch
        for i, ch in enumerate(enc_chs):
            self.down_convs.append(
                ConvBlock(
                    prev, prev, kernel_size=2, stride=2,
                    label=f"enc{i}.down", seed=seed + 10 + i,
                )
            )
            self.enc_blocks.append(
                Sequential(
                    ResidualBlock(prev, ch, label=f"enc{i}.res1",
                                  seed=seed + 20 + 2 * i),
                    ResidualBlock(ch, ch, label=f"enc{i}.res2",
                                  seed=seed + 21 + 2 * i),
                )
            )
            prev = ch

        self.up_convs = ModuleList()
        self.concats = ModuleList()
        self.dec_blocks = ModuleList()
        skip_channels = [stem_ch] + enc_chs[:-1]  # skips, shallow to deep
        for j, ch in enumerate(dec_chs):
            skip_ch = skip_channels[len(dec_chs) - 1 - j]
            self.up_convs.append(
                ConvBlock(
                    prev, ch, kernel_size=2, stride=2, transposed=True,
                    label=f"dec{j}.up", seed=seed + 40 + j,
                )
            )
            self.concats.append(ConcatSkip(label=f"dec{j}.concat"))
            self.dec_blocks.append(
                Sequential(
                    ResidualBlock(ch + skip_ch, ch, label=f"dec{j}.res1",
                                  seed=seed + 50 + 2 * j),
                    ResidualBlock(ch, ch, label=f"dec{j}.res2",
                                  seed=seed + 51 + 2 * j),
                )
            )
            prev = ch

        self.classifier = SparseConv3d(
            prev, num_classes, kernel_size=1, label="classifier",
            seed=seed + 99,
        )
        self._skips: List[SparseTensor] = []

    # ------------------------------------------------------------------ #
    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        x = self.stem(x, ctx)
        skips: List[SparseTensor] = []
        for down, blocks in zip(self.down_convs, self.enc_blocks):
            skips.append(x)
            x = blocks(down(x, ctx), ctx)
        for up, concat, blocks in zip(
            self.up_convs, self.concats, self.dec_blocks
        ):
            x = up(x, ctx)
            x = concat.forward(x, skips.pop(), ctx)
            x = blocks(x, ctx)
        if self.training:
            self._skips = []  # skip grads flow through ConcatSkip.backward
        return self.classifier(x, ctx)

    def backward(self, grad: np.ndarray, ctx: ExecutionContext) -> np.ndarray:
        grad = self.classifier.backward(grad, ctx)
        skip_grads: List[np.ndarray] = []
        for up, concat, blocks in zip(
            reversed(list(self.up_convs)),
            reversed(list(self.concats)),
            reversed(list(self.dec_blocks)),
        ):
            grad = blocks.backward(grad, ctx)
            grad, skip_grad = concat.backward(grad, ctx)
            skip_grads.append(skip_grad)
            grad = up.backward(grad, ctx)
        # skip_grads was filled shallowest-first (decoder reversed); the
        # encoder backward consumes deepest-first, so pop from the end.
        for down, blocks in zip(
            reversed(list(self.down_convs)), reversed(list(self.enc_blocks))
        ):
            grad = blocks.backward(grad, ctx)
            grad = down.backward(grad, ctx)
            skip_grad = skip_grads.pop()
            if not ctx.simulate_only:
                grad = grad + skip_grad.astype(grad.dtype)
        return self.stem.backward(grad, ctx)
