"""The full text-guided restoration network.

Four encoder stages on a doubling channel ladder [C, 2C, 4C, 8C] with
pixel-unshuffle downsampling, text fusion on the latent (8C) and again in
the 4C decoder stage, skip connections with 1x1 channel reduction, a final
decoder level and refinement at 2C, and a long residual from the input
image to the output. A classifier branch on the pre-fusion latent predicts
which degradations are present, independent of the prompt.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .attention import AgentCrossAttention, AttnConfig
from .blocks import ContextBlock, DegradationClassifier, Downsample, Upsample
from .degradations import KINDS
from .nn import Conv2d, Linear, Module, Sequential
from .tensor import Tensor
from .text import PROMPT_LEN, TEXT_HEADS, VOCAB_SHA256, PromptEncoder, tokenize

HEADS = (1, 2, 4, 8)        # attention heads per stage of the channel ladder


class ConfigError(ValueError):
    """Invalid model configuration, or a checkpoint config that differs from the requested one."""


class CheckpointError(RuntimeError):
    """Malformed or truncated checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    channels: int = 48
    stage_blocks: tuple[int, ...] = (4, 6, 6, 8)
    refinement_blocks: int = 4
    agent_h: int = 12
    agent_w: int = 12
    base_resolution: int = 128
    text_embed_dim: int = 128
    text_layers: int = 2

    def __post_init__(self):
        if not isinstance(self.stage_blocks, (tuple, list)) or len(self.stage_blocks) != 4:
            raise ConfigError(f"stage_blocks must have 4 entries, got {self.stage_blocks!r}")
        object.__setattr__(self, "stage_blocks", tuple(self.stage_blocks))
        for f in fields(self):
            value = getattr(self, f.name)
            if any(type(v) is not int or v <= 0
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{f.name} must be a positive int, got {value!r}")
        if self.channels % 2:
            raise ConfigError(f"channels must be even (the first Downsample halves it), "
                              f"got {self.channels}")
        if self.base_resolution % 8:
            raise ConfigError("base_resolution must be divisible by 8")
        r = self.base_resolution // 8     # the latent stage's grid side
        if self.agent_h > r or self.agent_w > r:
            raise ConfigError(f"agent_h x agent_w = {self.agent_h}x{self.agent_w} exceeds "
                              f"the latent stage's {r}x{r} grid (base_resolution // 8)")
        if self.text_embed_dim % TEXT_HEADS:
            raise ConfigError(f"text_embed_dim {self.text_embed_dim} not divisible by "
                              f"the {TEXT_HEADS} text encoder heads")

    @property
    def ladder(self) -> tuple[int, int, int, int]:
        c = self.channels
        return c, 2 * c, 4 * c, 8 * c

    @property
    def n_labels(self) -> int:
        return len(KINDS)


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
           heads: int, rng) -> Sequential:
    res = cfg.base_resolution // (2 ** level)
    attn = AttnConfig(channels, heads, cfg.agent_h, cfg.agent_w, res, res)
    return Sequential(ContextBlock(attn, rng) for _ in range(n_blocks))


class RestorationModel(Module):
    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        config = config or ModelConfig()
        rng = np.random.default_rng(seed)
        self.config = config
        c0, c1, c2, c3 = config.ladder
        blocks = config.stage_blocks
        res = config.base_resolution

        self.input_conv = Conv2d(3, c0, rng)
        self.enc0 = _stage(config, 0, blocks[0], c0, HEADS[0], rng)
        self.down0 = Downsample(c0, rng)
        self.enc1 = _stage(config, 1, blocks[1], c1, HEADS[1], rng)
        self.down1 = Downsample(c1, rng)
        self.enc2 = _stage(config, 2, blocks[2], c2, HEADS[2], rng)
        self.down2 = Downsample(c2, rng)
        self.latent = _stage(config, 3, blocks[3], c3, HEADS[3], rng)

        self.classifier = DegradationClassifier(c3, rng)

        fuse_res = res // 8
        self.fuse_latent = AgentCrossAttention(
            AttnConfig(c3, HEADS[3], config.agent_h, config.agent_w,
                       fuse_res, fuse_res, text_len=PROMPT_LEN), rng)

        self.up2 = Upsample(c3, rng)
        self.reduce2 = Linear(2 * c2, c2, rng)
        self.fuse_mid = AgentCrossAttention(
            AttnConfig(c2, HEADS[2], config.agent_h, config.agent_w,
                       res // 4, res // 4, text_len=PROMPT_LEN), rng)
        self.dec2 = _stage(config, 2, blocks[2], c2, HEADS[2], rng)

        self.up1 = Upsample(c2, rng)
        self.reduce1 = Linear(2 * c1, c1, rng)
        self.dec1 = _stage(config, 1, blocks[1], c1, HEADS[1], rng)

        self.up0 = Upsample(c1, rng)
        # final level runs on the concat of the C-wide skip and C-wide
        # upsample output: 2C channels, no reduction
        self.dec0 = _stage(config, 0, blocks[0], c1, HEADS[1], rng)
        self.refine = _stage(config, 0, config.refinement_blocks, c1,
                             HEADS[1], rng)
        self.output_conv = Conv2d(c1, 3, rng, zero_init=True)

        self.text_encoder = PromptEncoder(config.channels, config.text_embed_dim,
                                          config.text_layers, rng)

    # ------------------------------------------------------------------
    def encode(self, image: Tensor) -> tuple[Tensor, list[Tensor]]:
        """Image [H,W,3] -> latent [H/8,W/8,8C] and the three skip features."""
        if image.ndim != 3 or image.shape[2] != 3:
            raise T.ShapeError(f"expected [H,W,3] image, got {image.shape}")
        h, w, _ = image.shape
        if not h or not w or h % 8 or w % 8:
            raise T.ShapeError(f"spatial size {h}x{w} is not a positive multiple of 8")
        finite = np.isfinite(image.data)
        if not finite.all():      # input validation, so no_nan_checks does not skip it
            raise T.NonFiniteError(f"image: {image.size - finite.sum()} of {image.size} "
                                   "values are not finite")
        x = self.input_conv(image)
        skips = []
        for blocks, down in ((self.enc0, self.down0), (self.enc1, self.down1),
                             (self.enc2, self.down2)):
            x = blocks(x)
            skips.append(x)
            x = down(x)
        return self.latent(x), skips

    def encode_prompt(self, prompt: str) -> tuple[Tensor, Tensor]:
        ids = tokenize(prompt)
        return self.text_encoder(ids)

    def restore(self, image, prompt: str) -> RestorationOutput:
        """Remove the degradations named in the prompt from image [H,W,3]."""
        img = image if isinstance(image, Tensor) else Tensor(image)
        feat_wide, feat_mid = self.encode_prompt(prompt)
        latent, skips = self.encode(img)
        logits = self.classifier(latent)          # pre-fusion, prompt-independent

        x = self.fuse_latent(latent, feat_wide)
        x = self.dec2(self.fuse_mid(self.reduce2(T.concat([self.up2(x), skips[2]], axis=-1)),
                                    feat_mid))
        x = self.dec1(self.reduce1(T.concat([self.up1(x), skips[1]], axis=-1)))
        x = self.refine(self.dec0(T.concat([self.up0(x), skips[0]], axis=-1)))
        correction = self.output_conv(x)
        return RestorationOutput(restored=T.add(img, correction), logits=logits)


# ---------------------------------------------------------------------------
# checkpoint: an uncompressed npz archive, members read back by name

_VERSION = 3
# not an intact npz archive: BadZipFile includes a failed CRC-32, RuntimeError
# a set encryption flag and (as NotImplementedError) an unknown compression
_UNREADABLE = (zipfile.BadZipFile, OSError, ValueError, EOFError, RuntimeError)


def save_checkpoint(model: RestorationModel, path) -> None:
    """Write an uncompressed npz archive of the members version, config (JSON),
    vocab (VOCAB_SHA256 as uint8) and one array per named_parameters() path.
    Its zip entries carry a fixed date, so one model always saves to the same bytes."""
    with open(str(path), "wb") as fh:       # a file handle: savez appends no .npz
        np.savez(fh, version=np.array(_VERSION),
                 config=np.array(json.dumps(asdict(model.config))),
                 vocab=np.frombuffer(VOCAB_SHA256, dtype=np.uint8),
                 **{name: p.data for name, p in model.named_parameters()})


def _member(archive, name: str) -> np.ndarray:
    try:
        value = archive[name]
    except (KeyError, *_UNREADABLE) as e:      # KeyError: no such member
        raise CheckpointError(f"member {name}: {e}") from e
    if not isinstance(value, np.ndarray):
        raise CheckpointError(f"member {name}: not an .npy array")
    return value


def _config_from_json(blob: str) -> ModelConfig:
    try:
        record = json.loads(blob)
        if not isinstance(record, dict):
            raise ConfigError(f"expected a JSON object, got {type(record).__name__}")
        keys = {f.name for f in fields(ModelConfig)}
        missing, unknown = sorted(keys - record.keys()), sorted(record.keys() - keys)
        if missing or unknown:
            raise ConfigError(f"missing keys {missing}, unknown keys {unknown}")
        return ModelConfig(**record)
    except ValueError as e:       # JSONDecodeError, ConfigError
        raise CheckpointError(f"checkpoint config: {e}") from e


def load_checkpoint(path, config: ModelConfig | None = None) -> RestorationModel:
    """Rebuild a model from a checkpoint, reading one parameter at a time by name.

    When config is given it must equal the stored one (guards against loading
    weights into a differently shaped model); the vocab hash is checked before
    the model is built. A file that is not an intact npz archive (a failed
    CRC-32 included), another version, a config record that is not a JSON
    object of exactly the ModelConfig fields with valid values, or a missing,
    unknown, misshapen, non-float64 or non-finite member raise
    CheckpointError, naming the member.
    """
    with open(str(path), "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except _UNREADABLE as e:
            raise CheckpointError(f"not a checkpoint archive: {e}") from e
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise CheckpointError("not a checkpoint archive: a bare .npy array")
        version = _member(archive, "version")
        if version.shape != () or version.dtype.kind != "i" or version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        stored = _config_from_json(str(_member(archive, "config")))
        if config is not None and stored != config:
            raise ConfigError("checkpoint config does not match requested config")
        if _member(archive, "vocab").tobytes() != VOCAB_SHA256:
            raise ConfigError("checkpoint vocab hash does not match")
        model = RestorationModel(stored)
        params = dict(model.named_parameters())
        unknown = sorted(set(archive.files) - params.keys() - {"version", "config", "vocab"})
        if unknown:
            raise CheckpointError(f"checkpoint has unknown members {unknown}")
        for name, p in params.items():
            value = _member(archive, name)
            if value.shape != p.shape or value.dtype != T.DTYPE:
                raise CheckpointError(f"parameter {name}: stored {value.dtype} {value.shape}, "
                                      f"expected float64 {p.shape}")
            if not np.isfinite(value).all():
                raise CheckpointError(f"parameter {name}: non-finite values")
            p.data = value
    return model
