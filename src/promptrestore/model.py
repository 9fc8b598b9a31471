"""The full text-guided restoration network.

Four encoder stages on a doubling channel ladder [C, 2C, 4C, 8C] with
pixel-unshuffle downsampling, text fusion on the latent (8C) and again in
the 4C decoder stage, skip connections with 1x1 channel reduction, a final
decoder level and refinement at 2C, and a long residual from the input
image to the output. A classifier branch on the pre-fusion latent predicts
which degradations are present, independent of the prompt.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .attention import AgentCrossAttention, AttnConfig
from .blocks import (BlockConfig, ContextBlock, DegradationClassifier,
                     Downsample, Upsample)
from .nn import Conv2d, Linear, Module, ModuleList
from .tensor import Tensor
from .text import PromptEncoder, TextEncoderConfig, Vocab, tokenize


class ConfigError(ValueError):
    """Checkpoint / model configuration mismatch."""


class CheckpointError(RuntimeError):
    """Malformed or truncated checkpoint file."""


@dataclass
class ModelConfig:
    channels: int = 48
    stage_blocks: tuple[int, ...] = (4, 6, 6, 8)
    refinement_blocks: int = 4
    heads: tuple[int, ...] = (1, 2, 4, 8)
    agent_h: int = 12
    agent_w: int = 12
    gdfn_expansion: float = 2.66
    prompt_len: int = 20
    n_labels: int = 5
    base_resolution: int = 128
    text_embed_dim: int = 128
    text_heads: int = 4
    text_layers: int = 2

    def __post_init__(self):
        self.stage_blocks = tuple(self.stage_blocks)
        self.heads = tuple(self.heads)
        if len(self.stage_blocks) != 4 or len(self.heads) != 4:
            raise ConfigError("stage_blocks and heads must have 4 entries")
        for h, c in zip(self.heads, self.ladder):
            if c % h:
                raise ConfigError(f"heads {h} does not divide {c} channels")
        if self.base_resolution % 8:
            raise ConfigError("base_resolution must be divisible by 8")

    @property
    def ladder(self) -> tuple[int, int, int, int]:
        c = self.channels
        return c, 2 * c, 4 * c, 8 * c

    def serialize(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "ModelConfig":
        kwargs = {}
        types = {f.name: f.type for f in fields(cls)}
        for line in text.splitlines():
            if not line.strip():
                continue
            key, _, raw = line.partition("=")
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            if "tuple" in str(types[key]):
                kwargs[key] = tuple(int(x) for x in raw.split(","))
            elif key == "gdfn_expansion":
                kwargs[key] = float(raw)
            else:
                kwargs[key] = int(raw)
        return cls(**kwargs)


# preset small enough for end-to-end runs on a laptop CPU
TOY_CONFIG = ModelConfig(channels=16, stage_blocks=(1, 1, 1, 2),
                         refinement_blocks=1, agent_h=4, agent_w=4,
                         base_resolution=64)

# preset for micro gradient checks
MICRO_CONFIG = ModelConfig(channels=8, stage_blocks=(1, 1, 1, 1),
                           refinement_blocks=1, agent_h=2, agent_w=2,
                           base_resolution=16, text_embed_dim=32,
                           text_layers=1)


@dataclass
class RestorationOutput:
    restored: Tensor            # [H,W,3], input + learned correction
    logits: Tensor              # [n_labels] raw degradation scores


def _stage(cfg: ModelConfig, level: int, n_blocks: int, channels: int,
           heads: int, rng) -> ModuleList:
    res = cfg.base_resolution // (2 ** level)
    bc = BlockConfig(channels=channels, heads=heads, agent_h=cfg.agent_h,
                     agent_w=cfg.agent_w, height=res, width=res,
                     gdfn_expansion=cfg.gdfn_expansion)
    return ModuleList(ContextBlock(bc, rng) for _ in range(n_blocks))


class RestorationModel(Module):
    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        config = config or ModelConfig()
        rng = np.random.default_rng(seed)
        self.config = config
        self.vocab = Vocab()
        c0, c1, c2, c3 = config.ladder
        blocks = config.stage_blocks
        heads = config.heads
        res = config.base_resolution

        self.input_conv = Conv2d(3, c0, 3, rng, padding=1)
        self.enc0 = _stage(config, 0, blocks[0], c0, heads[0], rng)
        self.down0 = Downsample(c0, rng)
        self.enc1 = _stage(config, 1, blocks[1], c1, heads[1], rng)
        self.down1 = Downsample(c1, rng)
        self.enc2 = _stage(config, 2, blocks[2], c2, heads[2], rng)
        self.down2 = Downsample(c2, rng)
        self.latent = _stage(config, 3, blocks[3], c3, heads[3], rng)

        self.classifier = DegradationClassifier(c3, rng, config.n_labels)

        fuse_res = res // 8
        self.fuse_latent = AgentCrossAttention(
            AttnConfig(c3, heads[3], config.agent_h, config.agent_w,
                       fuse_res, fuse_res, text_len=config.prompt_len), rng)

        self.up2 = Upsample(c3, rng)
        self.reduce2 = Linear(2 * c2, c2, rng)
        self.fuse_mid = AgentCrossAttention(
            AttnConfig(c2, heads[2], config.agent_h, config.agent_w,
                       res // 4, res // 4, text_len=config.prompt_len), rng)
        self.dec2 = _stage(config, 2, blocks[2], c2, heads[2], rng)

        self.up1 = Upsample(c2, rng)
        self.reduce1 = Linear(2 * c1, c1, rng)
        self.dec1 = _stage(config, 1, blocks[1], c1, heads[1], rng)

        self.up0 = Upsample(c1, rng)
        # final level runs on the concat of the C-wide skip and C-wide
        # upsample output: 2C channels, no reduction
        self.dec0 = _stage(config, 0, blocks[0], c1, heads[1], rng)
        self.refine = _stage(config, 0, config.refinement_blocks, c1,
                             heads[1], rng)
        self.output_conv = Conv2d(c1, 3, 3, rng, padding=1, zero_init=True)

        self.text_encoder = PromptEncoder(
            TextEncoderConfig(vocab_size=len(self.vocab),
                              length=config.prompt_len,
                              embed_dim=config.text_embed_dim,
                              heads=config.text_heads,
                              layers=config.text_layers),
            config.channels, rng)

    # ------------------------------------------------------------------
    def encode(self, image: Tensor) -> tuple[Tensor, list[Tensor]]:
        """Image [H,W,3] -> latent [H/8,W/8,8C] and the three skip features."""
        h, w, c = image.shape
        if c != 3:
            raise T.ShapeError(f"expected [H,W,3] image, got {image.shape}")
        if h % 8 or w % 8:
            raise T.ShapeError(f"spatial size {h}x{w} not divisible by 8")
        x = self.input_conv(image)
        skips = []
        for blocks, down in ((self.enc0, self.down0), (self.enc1, self.down1),
                             (self.enc2, self.down2)):
            for block in blocks:
                x = block(x)
            skips.append(x)
            x = down(x)
        for block in self.latent:
            x = block(x)
        return x, skips

    def encode_prompt(self, prompt: str) -> tuple[Tensor, Tensor]:
        ids = tokenize(prompt, self.vocab, self.config.prompt_len)
        return self.text_encoder(ids)

    def restore(self, image, prompt: str) -> RestorationOutput:
        """Remove the degradations named in the prompt from image [H,W,3]."""
        img = image if isinstance(image, Tensor) else Tensor(image)
        feat_wide, feat_mid = self.encode_prompt(prompt)
        latent, skips = self.encode(img)
        logits = self.classifier(latent)          # pre-fusion, prompt-independent

        x = self.fuse_latent(latent, feat_wide)
        x = self.up2(x)
        x = T.concat([x, skips[2]], axis=-1)
        x = self.reduce2(x)
        x = self.fuse_mid(x, feat_mid)
        for block in self.dec2:
            x = block(x)

        x = self.up1(x)
        x = T.concat([x, skips[1]], axis=-1)
        x = self.reduce1(x)
        for block in self.dec1:
            x = block(x)

        x = self.up0(x)
        x = T.concat([x, skips[0]], axis=-1)
        for block in self.dec0:
            x = block(x)
        for block in self.refine:
            x = block(x)

        correction = self.output_conv(x)
        return RestorationOutput(restored=T.add(img, correction), logits=logits)


# ---------------------------------------------------------------------------
# checkpoint container: magic, version, config text, vocab sha256, f64 blobs

_MAGIC = b"PRCK"
_VERSION = 1


def save_checkpoint(model: RestorationModel, path) -> None:
    """Write parameters in declaration order plus config and vocab hash."""
    cfg_blob = model.config.serialize().encode("utf-8")
    arrays = model.state_arrays()
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _VERSION))
    buf.write(struct.pack("<I", len(cfg_blob)))
    buf.write(cfg_blob)
    buf.write(model.vocab.content_hash())
    buf.write(struct.pack("<Q", len(arrays)))
    for a in arrays:
        buf.write(struct.pack("<Q", a.size))
        buf.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
    with open(str(path), "wb") as fh:
        fh.write(buf.getvalue())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError("truncated checkpoint file")
    return data


def load_checkpoint(path, config: ModelConfig | None = None) -> RestorationModel:
    """Rebuild a model from a checkpoint.

    When config is given it must equal the stored one (guards against
    loading weights into a differently shaped model). A non-finite
    parameter, or bytes after the last array, raise CheckpointError.
    """
    with open(str(path), "rb") as fh:
        if _read_exact(fh, 4) != _MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4))
        stored = ModelConfig.deserialize(_read_exact(fh, cfg_len).decode("utf-8"))
        if config is not None and stored != config:
            raise ConfigError("checkpoint config does not match requested config")
        vocab_hash = _read_exact(fh, 32)
        model = RestorationModel(stored)
        if model.vocab.content_hash() != vocab_hash:
            raise ConfigError("checkpoint vocab hash does not match")
        (n_arrays,) = struct.unpack("<Q", _read_exact(fh, 8))
        params = list(model.named_parameters())
        if n_arrays != len(params):
            raise CheckpointError(
                f"checkpoint has {n_arrays} arrays, model expects {len(params)}")
        for name, p in params:
            (numel,) = struct.unpack("<Q", _read_exact(fh, 8))
            if numel != p.size:
                raise CheckpointError(f"parameter {name}: stored size {numel} != {p.size}")
            raw = _read_exact(fh, numel * 8)
            p.data = np.frombuffer(raw, dtype="<f8").reshape(p.data.shape) \
                .astype(T.DTYPE)
            if not np.isfinite(p.data).all():
                raise CheckpointError(f"parameter {name}: non-finite values")
        if fh.read(1):
            raise CheckpointError("trailing bytes after the last array")
    return model
