"""Prompt tokenization and the trainable prompt encoder.

The prompt grammar is tiny (two templates over five degradation names), so
the encoder is a small transformer of ModelConfig.text_layers layers, and
the library has no trainer for it yet. Two linear heads project the encoded
sequence to the channel widths consumed by the two fusion points (8C and 4C).

The token table is fixed: TOKENS (id = position, sorted) and VOCAB_SHA256,
its digest, which checkpoints store so weights never load under another one.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np

from . import tensor as T
from .attention import AttnConfig, VanillaSelfAttention
from .degradations import KINDS
from .nn import Linear, LayerNorm, Module, Sequential, param
from .tensor import Tensor

PAD, UNK = "<pad>", "<unk>"
PROMPT_LEN = 20         # token ids per prompt, padded or truncated
TEXT_HEADS = 4          # attention heads of each encoder layer

_TEMPLATE_WORDS = ("remove", "there", "are", "in", "the", "image")
_PUNCT = (",", ".")


TOKENS = tuple(sorted({PAD, UNK, *_TEMPLATE_WORDS, *KINDS, *_PUNCT}))
_IDS = {t: i for i, t in enumerate(TOKENS)}
VOCAB_SHA256 = hashlib.sha256(("\n".join(TOKENS) + "\n").encode("utf-8")).digest()


def split_tokens(prompt: str) -> list[str]:
    """Lowercase, whitespace split, peel terminal ','/'.' into own tokens."""
    out: list[str] = []
    for word in prompt.lower().split():
        tail: list[str] = []
        while word and word[-1] in _PUNCT:
            tail.append(word[-1])
            word = word[:-1]
        if word:
            out.append(word)
        out.extend(reversed(tail))
    return out


def tokenize(prompt: str) -> np.ndarray:
    """PROMPT_LEN token ids: the prompt's, padded or truncated; a word
    outside TOKENS maps to UNK. A prompt that is not a str raises TypeError."""
    if not isinstance(prompt, str):
        raise TypeError(f"prompt must be a str, got {type(prompt).__name__}")
    toks = split_tokens(prompt)
    if len(toks) > PROMPT_LEN:
        warnings.warn(f"prompt truncated from {len(toks)} to {PROMPT_LEN} tokens")
        toks = toks[:PROMPT_LEN]
    ids = [_IDS.get(t, _IDS[UNK]) for t in toks]
    ids += [_IDS[PAD]] * (PROMPT_LEN - len(ids))
    return np.array(ids, dtype=np.int64)


class _EncoderLayer(Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        self.norm1 = LayerNorm(dim)
        self.attn = VanillaSelfAttention(AttnConfig(dim, heads, 1, 1, 1, 1), rng)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Linear(dim, dim * 2, rng)
        self.ff2 = Linear(dim * 2, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        y = T.add(x, self.attn(self.norm1(x)))
        return T.add(y, self.ff2(T.gelu(self.ff1(self.norm2(y)))))


class PromptEncoder(Module):
    """Embed token ids, run a small transformer, emit both fusion features.

    Output widths are tied to the restoration model's base channel count:
    feat_wide is [L, 8C] (latent fusion), feat_mid is [L, 4C] (mid-decoder
    fusion). Pure function of (ids, parameters); nothing stochastic at
    inference.
    """

    def __init__(self, base_channels: int, dim: int, layers: int,
                 rng: np.random.Generator):
        self.embed = param(rng.normal(0.0, 0.02, (len(TOKENS), dim)))
        self.pos = param(rng.normal(0.0, 0.02, (PROMPT_LEN, dim)))
        self.layers = Sequential(_EncoderLayer(dim, TEXT_HEADS, rng)
                                 for _ in range(layers))
        self.norm = LayerNorm(dim)
        self.head_wide = Linear(dim, 8 * base_channels, rng)
        self.head_mid = Linear(dim, 4 * base_channels, rng)

    def __call__(self, ids: np.ndarray) -> tuple[Tensor, Tensor]:
        if len(ids) != PROMPT_LEN:
            raise ValueError(f"expected {PROMPT_LEN} ids, got {len(ids)}")
        x = T.add(T.embedding(self.embed, ids), self.pos)
        x = self.norm(self.layers(x))
        return self.head_wide(x), self.head_mid(x)
