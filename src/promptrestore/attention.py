"""Agent-token attention modules and their vanilla baselines.

The agent variants pool the query field onto a small agent grid (n tokens,
n << N) and route information through two chained softmax attentions:
agents attend to keys/values, then queries attend to the agents. Both
attention products are linear in the token count N, unlike the quadratic
vanilla baselines kept here for complexity comparison.
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


def softmax_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d)) v with d = q's feature dim; supports a
    leading head axis on all three operands."""
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise T.ShapeError(f"attention dims: q{q.shape} k{k.shape} v{v.shape}")
    d = q.shape[-1]
    logits = T.scale(T.matmul(q, T.transpose(k) if k.ndim == 2
                              else T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(d))
    return T.matmul(T.softmax(logits, axis=-1), v)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    n, c = x.shape
    return T.transpose(T.reshape(x, (n, heads, c // heads)), (1, 0, 2))


def _merge_heads(x: Tensor) -> Tensor:
    h, n, d = x.shape
    return T.reshape(T.transpose(x, (1, 0, 2)), (n, h * d))


def _attend(q: Tensor, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
    # per-head scaled dot product; returns (output, attention weights)
    d = q.shape[-1]
    logits = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(d))
    attn = T.softmax(logits, axis=-1)
    return T.matmul(attn, v), attn


def _pool_tokens(tokens: Tensor, h: int, w: int, ah: int, aw: int) -> Tensor:
    # [N,C] laid out on an h x w grid -> agent tokens [ah*aw, C]
    c = tokens.shape[-1]
    grid = T.transpose(T.reshape(tokens, (h, w, c)), (2, 0, 1))
    pooled = T.adaptive_avg_pool(grid, ah, aw)
    return T.transpose(T.reshape(pooled, (c, ah * aw)), (1, 0))


class _AgentAttention(Module):
    """Agent-grid clamping and position-encoding resize shared by the agent
    self and cross attention modules (both hold cfg and _warned_clamp)."""

    def _agent_grid(self, h: int, w: int) -> tuple[int, int]:
        ah, aw = min(self.cfg.agent_h, h), min(self.cfg.agent_w, w)
        if (ah, aw) != (self.cfg.agent_h, self.cfg.agent_w) and not self._warned_clamp:
            warnings.warn(f"agent grid clamped to {ah}x{aw} for spatial {h}x{w}")
            self._warned_clamp = True
        return ah, aw

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
        self.last_attn: tuple[np.ndarray, np.ndarray] | None = None
        self._warned_clamp = False

    def __call__(self, x: Tensor) -> Tensor:
        h, w, c = x.shape
        heads = self.cfg.heads
        ah, aw = self._agent_grid(h, w)
        xp = T.add(x, self._pos_at(self.pos, h, w))
        tokens = T.reshape(xp, (h * w, c))
        q = self.w_q(tokens)
        k = self.w_k(tokens)
        v = self.w_v(tokens)
        agents = _split_heads(_pool_tokens(q, h, w, ah, aw), heads)
        qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
        v_agent, a1 = _attend(agents, kh, vh)          # [heads, n, d]
        out, a2 = _attend(qh, agents, v_agent)         # [heads, N, d]
        self.last_attn = (a1.data, a2.data)
        spatial_v = T.transpose(T.reshape(v, (h, w, c)), (2, 0, 1))
        local = T.reshape(T.transpose(self.dwconv(spatial_v), (1, 2, 0)), (h * w, c))
        merged = T.add(_merge_heads(out), local)
        return T.reshape(self.w_out(merged), (h, w, c))


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
        self.last_attn: tuple[np.ndarray, np.ndarray] | None = None
        self._warned_clamp = False

    def __call__(self, f_img: Tensor, f_txt: Tensor) -> Tensor:
        h, w, c = f_img.shape
        if f_txt.shape != (self.cfg.text_len, c):
            raise T.ShapeError(f"text feature {f_txt.shape} != ({self.cfg.text_len}, {c})")
        heads = self.cfg.heads
        ah, aw = self._agent_grid(h, w)
        pos_img = self._pos_at(self.pos_img, h, w)
        q_img = T.add(T.reshape(self.w_q(T.reshape(f_img, (h * w, c))), (h, w, c)), pos_img)
        k = T.add(self.w_k(f_txt), self.pos_txt)
        v = T.add(self.w_v(f_txt), self.pos_txt)
        q_tokens = T.reshape(q_img, (h * w, c))
        agents = _split_heads(_pool_tokens(q_tokens, h, w, ah, aw), heads)
        qh = _split_heads(q_tokens, heads)
        kh, vh = _split_heads(k, heads), _split_heads(v, heads)
        v_agent, a1 = _attend(agents, kh, vh)          # [heads, n, d]
        fused, a2 = _attend(qh, agents, v_agent)       # [heads, N, d]
        self.last_attn = (a1.data, a2.data)
        return T.add(T.reshape(_merge_heads(fused), (h, w, c)), f_img)


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
        out, _ = _attend(qh, kh, vh)
        return T.reshape(self.w_out(_merge_heads(out)), (h, w, c))


class VanillaCrossAttention(Module):
    """Plain multi-head cross attention baseline (image queries text)."""

    def __init__(self, cfg: AttnConfig, rng: np.random.Generator):
        c = cfg.channels
        self.cfg = cfg
        self.w_q = Linear(c, c, rng)
        self.w_k = Linear(c, c, rng)
        self.w_v = Linear(c, c, rng)
        self.w_out = Linear(c, c, rng)

    def __call__(self, f_img: Tensor, f_txt: Tensor) -> Tensor:
        h, w, c = f_img.shape
        if f_txt.shape != (self.cfg.text_len, c):
            raise T.ShapeError(f"text feature {f_txt.shape} != ({self.cfg.text_len}, {c})")
        heads = self.cfg.heads
        qh = _split_heads(self.w_q(T.reshape(f_img, (h * w, c))), heads)
        kh = _split_heads(self.w_k(f_txt), heads)
        vh = _split_heads(self.w_v(f_txt), heads)
        out, _ = _attend(qh, kh, vh)
        return T.add(T.reshape(self.w_out(_merge_heads(out)), (h, w, c)), f_img)
