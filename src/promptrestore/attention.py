"""Agent-token attention modules and a vanilla self-attention baseline.

The agent variants pool the query field onto a small agent grid (n tokens,
n << N) and route information through two chained softmax attentions:
agents attend to keys/values, then queries attend to the agents. Both
attention products are linear in the token count N, unlike the quadratic
vanilla self attention, which the text encoder uses on its short token
sequence and which serves as the complexity baseline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import Conv2d, Linear, Module, param
from .tensor import Tensor


@dataclass
class AttnConfig:
    channels: int
    heads: int
    agent_h: int
    agent_w: int
    height: int          # stage resolution the position encodings live at
    width: int
    text_len: int = 0    # cross attention only

    def __post_init__(self):
        if self.channels % self.heads:
            raise ValueError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.agent_h * self.agent_w > self.height * self.width:
            raise ValueError("agent grid larger than spatial grid")

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


def _split_heads(x: Tensor, heads: int) -> Tensor:
    n, c = x.shape
    return T.transpose(T.reshape(x, (n, heads, c // heads)), (1, 0, 2))


def _merge_heads(x: Tensor) -> Tensor:
    h, n, d = x.shape
    return T.reshape(T.transpose(x, (1, 0, 2)), (n, h * d))


def _attend(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    # per-head softmax(q k^T / sqrt(d)) v on [heads, tokens, d] operands
    d = q.shape[-1]
    logits = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(d))
    return T.matmul(T.softmax(logits, axis=-1), v)


def _pool_tokens(tokens: Tensor, h: int, w: int, ah: int, aw: int) -> Tensor:
    # [N,C] laid out on an h x w grid -> agent tokens [ah*aw, C]
    c = tokens.shape[-1]
    grid = T.transpose(T.reshape(tokens, (h, w, c)), (2, 0, 1))
    pooled = T.adaptive_avg_pool(grid, ah, aw)
    return T.transpose(T.reshape(pooled, (c, ah * aw)), (1, 0))


class _AgentAttention(Module):
    """Agent routing shared by the agent self and cross attention modules
    (both hold cfg and _warned_clamp)."""

    def _route(self, q: Tensor, k: Tensor, v: Tensor, h: int, w: int) -> Tensor:
        """Queries q [h*w, C] on an h x w grid read keys/values k, v [M, C]
        through the agent grid: V_a = attn(agents, K, V), then
        out = attn(Q, agents, V_a). Returns the merged heads [h*w, C]."""
        ah, aw = min(self.cfg.agent_h, h), min(self.cfg.agent_w, w)
        if (ah, aw) != (self.cfg.agent_h, self.cfg.agent_w) and not self._warned_clamp:
            warnings.warn(f"agent grid clamped to {ah}x{aw} for spatial {h}x{w}")
            self._warned_clamp = True
        heads = self.cfg.heads
        agents = _split_heads(_pool_tokens(q, h, w, ah, aw), heads)
        qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
        v_agent = _attend(agents, kh, vh)              # [heads, n, d]
        return _merge_heads(_attend(qh, agents, v_agent))

    def _pos_at(self, pos: Tensor, h: int, w: int) -> Tensor:
        if (h, w) == (self.cfg.height, self.cfg.width):
            return pos
        return T.bilinear_resize(pos, h, w)


class AgentSelfAttention(_AgentAttention):
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
        self.dwconv = Conv2d(c, c, 3, rng, padding=1, groups=c)
        self.w_out = Linear(c, c, rng)
        self._warned_clamp = False

    def __call__(self, x: Tensor) -> Tensor:
        h, w, c = x.shape
        xp = T.add(x, self._pos_at(self.pos, h, w))
        tokens = T.reshape(xp, (h * w, c))
        q = self.w_q(tokens)
        k = self.w_k(tokens)
        v = self.w_v(tokens)
        out = self._route(q, k, v, h, w)
        spatial_v = T.transpose(T.reshape(v, (h, w, c)), (2, 0, 1))
        local = T.reshape(T.transpose(self.dwconv(spatial_v), (1, 2, 0)), (h * w, c))
        return T.reshape(self.w_out(T.add(out, local)), (h, w, c))


class AgentCrossAttention(_AgentAttention):
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
        self._warned_clamp = False

    def __call__(self, f_img: Tensor, f_txt: Tensor) -> Tensor:
        h, w, c = f_img.shape
        if f_txt.shape != (self.cfg.text_len, c):
            raise T.ShapeError(f"text feature {f_txt.shape} != ({self.cfg.text_len}, {c})")
        pos_img = self._pos_at(self.pos_img, h, w)
        q_img = T.add(T.reshape(self.w_q(T.reshape(f_img, (h * w, c))), (h, w, c)), pos_img)
        k = T.add(self.w_k(f_txt), self.pos_txt)
        v = T.add(self.w_v(f_txt), self.pos_txt)
        fused = self._route(T.reshape(q_img, (h * w, c)), k, v, h, w)
        return T.add(T.reshape(fused, (h, w, c)), f_img)


class VanillaSelfAttention(Module):
    """Plain multi-head self attention over [H,W,C]; quadratic in N."""

    def __init__(self, cfg: AttnConfig, rng: np.random.Generator):
        c = cfg.channels
        self.cfg = cfg
        self.w_q = Linear(c, c, rng)
        self.w_k = Linear(c, c, rng)
        self.w_v = Linear(c, c, rng)
        self.w_out = Linear(c, c, rng)

    def __call__(self, x: Tensor) -> Tensor:
        h, w, c = x.shape
        tokens = T.reshape(x, (h * w, c))
        heads = self.cfg.heads
        qh, kh, vh = (_split_heads(proj(tokens), heads)
                      for proj in (self.w_q, self.w_k, self.w_v))
        out = _attend(qh, kh, vh)
        return T.reshape(self.w_out(_merge_heads(out)), (h, w, c))

