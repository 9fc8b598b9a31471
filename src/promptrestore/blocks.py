"""Composite building blocks for the restoration network.

Features are channels-last [H,W,C] throughout: 1x1 convolutions are linear
maps on the channel axis (identical math, better GEMM shapes), and the
depthwise and strided convolutions are nn.Conv2d, which takes [H,W,C].
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import AgentSelfAttention, AttnConfig
from .degradations import KINDS
from .nn import Conv2d, LayerNorm, Linear, Module
from .tensor import Tensor

GDFN_EXPANSION = 2.66       # gated FFN width over its channels (Restormer, arXiv 2111.09881)


class GatedDConvFFN(Module):
    """Two 1x1-conv + depthwise-3x3 paths of GDFN_EXPANSION times the
    channels; GELU(path1) gates path2, and the gate and proj_out run as one
    op, tensor.gated_linear, which holds the two paths for backward and
    not the gate too. proj_out stays a Linear for its parameters."""

    def __init__(self, channels: int, rng: np.random.Generator):
        h = round(channels * GDFN_EXPANSION)
        self.proj1 = Linear(channels, h, rng)
        self.proj2 = Linear(channels, h, rng)
        self.dw1 = Conv2d(h, h, rng, groups=h)
        self.dw2 = Conv2d(h, h, rng, groups=h)
        self.proj_out = Linear(h, channels, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return T.gated_linear(self.dw1(self.proj1(x)), self.dw2(self.proj2(x)),
                              self.proj_out.weight, self.proj_out.bias)


class ContextBlock(Module):
    """norm -> agent attention -> residual, then norm -> gated FFN -> residual."""

    def __init__(self, cfg: AttnConfig, rng: np.random.Generator):
        c = cfg.channels
        self.norm1 = LayerNorm(c)
        self.attn = AgentSelfAttention(cfg, rng)
        self.norm2 = LayerNorm(c)
        self.ffn = GatedDConvFFN(c, rng)

    def __call__(self, x: Tensor) -> Tensor:
        y = T.add(x, self.attn(self.norm1(x)))
        return T.add(y, self.ffn(self.norm2(y)))


class Downsample(Module):
    """1x1 conv C -> C/2 then pixel-unshuffle r=2: [H,W,C] -> [H/2,W/2,2C]."""

    def __init__(self, channels: int, rng: np.random.Generator):
        if channels % 2:
            raise ValueError("downsample needs even channel count")
        self.proj = Linear(channels, channels // 2, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return T.pixel_unshuffle(self.proj(x), 2)


class Upsample(Module):
    """1x1 conv C -> 2C then pixel-shuffle r=2: [H,W,C] -> [2H,2W,C/2]."""

    def __init__(self, channels: int, rng: np.random.Generator):
        if channels % 2:
            raise ValueError("upsample needs even channel count")
        self.proj = Linear(channels, channels * 2, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return T.pixel_shuffle(self.proj(x), 2)


class DegradationClassifier(Module):
    """Multi-label head on the encoder latent: which degradations are present.

    One call maps the latent [H,W,C] to [len(KINDS)] raw logits: a stride-2
    3x3 conv + channel LayerNorm + GELU compresses it, global average pooling
    removes the spatial extent, and three linear layers (GELU between them)
    give one logit per degradation kind (sigmoid belongs to the loss).
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        self.conv = Conv2d(channels, channels, rng, stride=2)
        self.norm = LayerNorm(channels)
        self.fc1 = Linear(channels, max(1, channels // 2), rng)
        self.fc2 = Linear(max(1, channels // 2), max(1, channels // 4), rng)
        self.fc3 = Linear(max(1, channels // 4), len(KINDS), rng)

    def __call__(self, x: Tensor) -> Tensor:
        pooled = T.adaptive_avg_pool(T.gelu(self.norm(self.conv(x))), 1, 1)
        logits = self.fc3(T.gelu(self.fc2(T.gelu(self.fc1(pooled)))))
        return T.reshape(logits, (logits.shape[-1],))
