"""Agent-token attention modules and a vanilla self-attention baseline.

The agent variants pool the query field onto a small agent grid (n tokens,
n << N) and route information through two chained softmax attentions:
agents attend to keys/values, then queries attend to the agents. Both
attention products are linear in the token count N, unlike the quadratic
vanilla self attention, which the text encoder uses on its short token
sequence and which serves as the complexity baseline.

The agent routing (_route) and the position-encoding resize (_pos_at) are
plain functions of their arguments, so no module keeps state between calls.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .degradations import check_int
from .nn import Conv2d, Linear, Module, param
from .tensor import Tensor


@dataclass(frozen=True)
class AttnConfig:
    channels: int
    heads: int
    agent_h: int
    agent_w: int
    height: int          # stage resolution the position encodings live at
    width: int
    text_len: int = 0    # cross attention only

    def __post_init__(self):
        for f in fields(self):      # text_len is 0 for self attention
            check_int(f.name, getattr(self, f.name), int(f.name != "text_len"))
        if self.channels % self.heads:
            raise ValueError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.agent_h > self.height or self.agent_w > self.width:
            raise ValueError("agent grid larger than spatial grid")


def _split_heads(x: Tensor, heads: int) -> Tensor:
    # [..., C] -> [heads, N, C/heads], N the product of the leading axes
    c = x.shape[-1]
    return T.transpose(T.reshape(x, (-1, heads, c // heads)), (1, 0, 2))


def _merge_heads(x: Tensor, shape) -> Tensor:
    # [heads, N, d] -> shape, whose last axis is heads*d
    return T.reshape(T.transpose(x, (1, 0, 2)), shape)


def _attend(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    # per-head softmax(q k^T / sqrt(d)) v on [heads, tokens, d] operands.
    # 1/sqrt(d) scales the operand with fewer tokens (the agents, in agent
    # routing), so no [N, n] array is scaled. The logits are laid out with the
    # longer token axis last: [heads, n_q, n_k] with the softmax over keys on
    # axis -1 when n_q <= n_k, else key-major [heads, n_k, n_q] with the
    # softmax on axis -2, which then runs along rows of n_q contiguous values.
    c = 1.0 / np.sqrt(q.shape[-1])
    if q.shape[-2] <= k.shape[-2]:
        logits = T.matmul(T.scale(q, c), T.transpose(k, (0, 2, 1)))
        return T.matmul(T.softmax(logits, axis=-1), v)
    logits = T.matmul(T.scale(k, c), T.transpose(q, (0, 2, 1)))
    return T.matmul(T.transpose(T.softmax(logits, axis=-2), (0, 2, 1)), v)


def _route(q: Tensor, k: Tensor, v: Tensor, cfg: AttnConfig) -> Tensor:
    """Queries q [H,W,C] read keys/values k, v [..., C] through the agent grid
    (q mean-pooled onto cfg.agent_h x cfg.agent_w): V_a = attn(agents, K, V),
    then out = attn(Q, agents, V_a). Returns the merged heads [H,W,C].

    A field smaller than the agent grid clamps the grid to it and warns on
    every such call; Python's default filter shows an identical warning once."""
    h, w, _ = q.shape
    ah, aw = min(cfg.agent_h, h), min(cfg.agent_w, w)
    if (ah, aw) != (cfg.agent_h, cfg.agent_w):
        warnings.warn(f"agent grid clamped to {ah}x{aw} for spatial {h}x{w}")
    agents = _split_heads(T.adaptive_avg_pool(q, ah, aw), cfg.heads)
    qh, kh, vh = (_split_heads(t, cfg.heads) for t in (q, k, v))
    v_agent = _attend(agents, kh, vh)              # [heads, n, d]
    return _merge_heads(_attend(qh, agents, v_agent), q.shape)


def _pos_at(pos: Tensor, h: int, w: int) -> Tensor:
    # a position encoding [H',W',C] at an h x w field: itself, or resized
    return pos if pos.shape[:2] == (h, w) else T.bilinear_resize(pos, h, w)


class AgentSelfAttention(Module):
    """Self attention over an image feature [H,W,C] via agent tokens.

    Pipeline: add learnable position encoding; project Q/K/V; pool Q onto
    the agent grid; V_a = attn(agents, K, V); out = attn(Q, agents, V_a)
    + depthwise3x3(V on the spatial grid); merge heads, output projection.
    """

    def __init__(self, cfg: AttnConfig, rng: np.random.Generator):
        c = cfg.channels
        self.cfg = cfg
        self.pos = param(rng.normal(0.0, 0.02, (cfg.height, cfg.width, c)))
        self.w_q = Linear(c, c, rng)
        self.w_k = Linear(c, c, rng)
        self.w_v = Linear(c, c, rng)
        self.dwconv = Conv2d(c, c, rng, groups=c)
        self.w_out = Linear(c, c, rng)

    def __call__(self, x: Tensor) -> Tensor:
        h, w, _ = x.shape
        xp = T.add(x, _pos_at(self.pos, h, w))
        q, k, v = self.w_q(xp), self.w_k(xp), self.w_v(xp)
        return self.w_out(T.add(_route(q, k, v, self.cfg), self.dwconv(v)))


class AgentCrossAttention(Module):
    """Fuse a text feature [L,C] into an image feature [H,W,C].

    Q comes from the image (plus learnable image position encoding), K/V
    from the text (plus text position encoding). The pooled agent grid
    mediates both softmax stages; the result is added back onto the image
    feature, which is also the module output (no output projection).
    """

    def __init__(self, cfg: AttnConfig, rng: np.random.Generator):
        if cfg.text_len <= 0:
            raise ValueError("cross attention needs cfg.text_len")
        c = cfg.channels
        self.cfg = cfg
        self.w_q = Linear(c, c, rng)
        self.w_k = Linear(c, c, rng)
        self.w_v = Linear(c, c, rng)
        self.pos_img = param(rng.normal(0.0, 0.02, (cfg.height, cfg.width, c)))
        self.pos_txt = param(rng.normal(0.0, 0.02, (cfg.text_len, c)))

    def __call__(self, f_img: Tensor, f_txt: Tensor) -> Tensor:
        h, w, c = f_img.shape
        if f_txt.shape != (self.cfg.text_len, c):
            raise T.ShapeError(f"text feature {f_txt.shape} != ({self.cfg.text_len}, {c})")
        q = T.add(self.w_q(f_img), _pos_at(self.pos_img, h, w))
        k = T.add(self.w_k(f_txt), self.pos_txt)
        v = T.add(self.w_v(f_txt), self.pos_txt)
        return T.add(_route(q, k, v, self.cfg), f_img)


class VanillaSelfAttention(Module):
    """Plain multi-head self attention over the tokens of x [..., C] (an
    image [H,W,C] or a sequence [L,C]); quadratic in the token count N."""

    def __init__(self, cfg: AttnConfig, rng: np.random.Generator):
        c = cfg.channels
        self.cfg = cfg
        self.w_q = Linear(c, c, rng)
        self.w_k = Linear(c, c, rng)
        self.w_v = Linear(c, c, rng)
        self.w_out = Linear(c, c, rng)

    def __call__(self, x: Tensor) -> Tensor:
        heads = self.cfg.heads
        qh, kh, vh = (_split_heads(proj(x), heads)
                      for proj in (self.w_q, self.w_k, self.w_v))
        return self.w_out(_merge_heads(_attend(qh, kh, vh), x.shape))

