"""The full text-guided restoration network.

Four encoder stages on a doubling channel ladder [C, 2C, 4C, 8C] with
pixel-unshuffle downsampling, text fusion on the latent (8C) and again in
the 4C decoder stage, skip connections with 1x1 channel reduction, a final
decoder level and refinement at 2C, and a long residual from the input
image to the output. A classifier branch on the pre-fusion latent predicts
which degradations are present, independent of the prompt.

Every attention layer has one head per C channels, as in Restormer (arXiv
2111.09881), and its position encodings on level l's grid, base_resolution >> l.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .attention import AgentCrossAttention, AttnConfig
from .blocks import ContextBlock, DegradationClassifier, Downsample, Upsample
from .degradations import KINDS, check_int, from_record
from .nn import Conv2d, Linear, Module, Sequential
from .tensor import Tensor
from .text import PROMPT_LEN, TEXT_HEADS, VOCAB_SHA256, PromptEncoder, tokenize


class CheckpointError(RuntimeError):
    """Malformed or truncated checkpoint file, or one whose config or vocab
    differs from the requested one."""


@dataclass(frozen=True)
class ModelConfig:
    """Shape of a RestorationModel and the dtype it computes in.

    dtype is "float32" or "float64". The presets that are run, the default
    (paper scale) and TOY_CONFIG, compute in float32: every op is bound by
    memory bandwidth, so half the bytes per value halves a restore, and the
    paper-scale training step fits in memory. MICRO_CONFIG computes in
    float64, the precision its finite-difference gradient checks need.

    agent_grid is the side of the agent grid every image attention layer
    pools its queries onto, square as Agent Attention (arXiv 2312.08873)
    pools to a square grid of agents; it must fit the latent stage's grid.
    """

    channels: int = 48
    stage_blocks: tuple[int, ...] = (4, 6, 6, 8)
    refinement_blocks: int = 4
    agent_grid: int = 12
    base_resolution: int = 128
    text_embed_dim: int = 128
    text_layers: int = 2
    dtype: str = "float32"

    def __post_init__(self):
        if not isinstance(self.stage_blocks, (tuple, list)) or len(self.stage_blocks) != 4:
            raise ValueError(f"stage_blocks must have 4 entries, got {self.stage_blocks!r}")
        object.__setattr__(self, "stage_blocks", tuple(self.stage_blocks))
        ints = [(f.name, getattr(self, f.name)) for f in fields(self)
                if f.name not in ("stage_blocks", "dtype")]
        ints += [(f"stage_blocks[{i}]", n) for i, n in enumerate(self.stage_blocks)]
        for name, value in ints:
            check_int(name, value, 1)
        if self.channels % 2:
            raise ValueError(f"channels must be even (the first Downsample halves it), "
                             f"got {self.channels}")
        if self.base_resolution % 8:
            raise ValueError("base_resolution must be divisible by 8")
        r = self.base_resolution // 8     # the latent stage's grid side
        if self.agent_grid > r:
            raise ValueError(f"agent_grid {self.agent_grid} exceeds the latent {r}x{r} grid")
        if self.text_embed_dim % TEXT_HEADS:
            raise ValueError(f"text_embed_dim {self.text_embed_dim} not divisible by "
                             f"the {TEXT_HEADS} text encoder heads")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")

    @property
    def ladder(self) -> tuple[int, int, int, int]:
        c = self.channels
        return c, 2 * c, 4 * c, 8 * c

    @property
    def n_labels(self) -> int:
        return len(KINDS)


# preset small enough for end-to-end runs on a laptop CPU
TOY_CONFIG = ModelConfig(channels=16, stage_blocks=(1, 1, 1, 2),
                         refinement_blocks=1, agent_grid=4, base_resolution=64)

# preset for micro gradient checks, in float64 for their finite differences
MICRO_CONFIG = ModelConfig(channels=8, stage_blocks=(1, 1, 1, 1),
                           refinement_blocks=1, agent_grid=2, base_resolution=16,
                           text_embed_dim=32, text_layers=1, dtype="float64")


@dataclass
class RestorationOutput:
    restored: Tensor            # [H,W,3], input + learned correction
    logits: Tensor              # [n_labels] raw degradation scores


def _attn(cfg: ModelConfig, level: int, channels: int) -> AttnConfig:
    # one head per C channels, on the grid of ladder level `level`
    res, a = cfg.base_resolution >> level, cfg.agent_grid
    return AttnConfig(channels, channels // cfg.channels, a, a, res, res)


def _stage(cfg: ModelConfig, level: int, n_blocks: int, channels: int, rng) -> Sequential:
    attn = _attn(cfg, level, channels)
    return Sequential(ContextBlock(attn, rng) for _ in range(n_blocks))


class RestorationModel(Module):
    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        config = config or ModelConfig()
        rng = np.random.default_rng(seed)
        self.config = config
        c0, c1, c2, c3 = config.ladder
        blocks = config.stage_blocks

        self.input_conv = Conv2d(3, c0, rng)
        self.enc0 = _stage(config, 0, blocks[0], c0, rng)
        self.down0 = Downsample(c0, rng)
        self.enc1 = _stage(config, 1, blocks[1], c1, rng)
        self.down1 = Downsample(c1, rng)
        self.enc2 = _stage(config, 2, blocks[2], c2, rng)
        self.down2 = Downsample(c2, rng)
        self.latent = _stage(config, 3, blocks[3], c3, rng)

        self.classifier = DegradationClassifier(c3, rng)

        self.fuse_latent = AgentCrossAttention(_attn(config, 3, c3), PROMPT_LEN, rng)

        self.up2 = Upsample(c3, rng)
        self.reduce2 = Linear(2 * c2, c2, rng)
        self.fuse_mid = AgentCrossAttention(_attn(config, 2, c2), PROMPT_LEN, rng)
        self.dec2 = _stage(config, 2, blocks[2], c2, rng)

        self.up1 = Upsample(c2, rng)
        self.reduce1 = Linear(2 * c1, c1, rng)
        self.dec1 = _stage(config, 1, blocks[1], c1, rng)

        self.up0 = Upsample(c1, rng)
        # final level runs on the concat of the C-wide skip and C-wide
        # upsample output: 2C channels, no reduction
        self.dec0 = _stage(config, 0, blocks[0], c1, rng)
        self.refine = _stage(config, 0, config.refinement_blocks, c1, rng)
        self.output_conv = Conv2d(c1, 3, rng, zero_init=True)

        self.text_encoder = PromptEncoder(config.channels, config.text_embed_dim,
                                          config.text_layers, rng)
        # drawn in float64 above, so the draws do not depend on the dtype
        for p in self.parameters():
            p.data = p.data.astype(config.dtype, copy=False)

    # ------------------------------------------------------------------
    def encode(self, image: Tensor) -> tuple[Tensor, list[Tensor]]:
        """Image [H,W,3] -> latent [H/8,W/8,8C] and the three skip features."""
        if image.ndim != 3 or image.shape[2] != 3:
            raise T.ShapeError(f"expected [H,W,3] image, got {image.shape}")
        h, w, _ = image.shape
        if not h or not w or h % 8 or w % 8:
            raise T.ShapeError(f"spatial size {h}x{w} is not a positive multiple of 8")
        if image.data.dtype != self.config.dtype:
            raise ValueError(f"image is {image.data.dtype}, but the model computes "
                             f"in {self.config.dtype}")
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
        """Remove the degradations named in the prompt from image [H,W,3].

        An array image is converted to the model's dtype; a Tensor must have
        it. Both outputs have the model's dtype."""
        img = image if isinstance(image, Tensor) else \
            Tensor(np.asarray(image, dtype=self.config.dtype))
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

_VERSION = 5
# not an intact npz archive: BadZipFile includes a failed CRC-32, RuntimeError
# a set encryption flag and (as NotImplementedError) an unknown compression
_UNREADABLE = (zipfile.BadZipFile, OSError, ValueError, EOFError, RuntimeError)


def save_checkpoint(model: RestorationModel, path) -> None:
    """Write an uncompressed npz archive of the members version, config (JSON,
    the dtype included), vocab (VOCAB_SHA256 as uint8) and one array, in the
    model's dtype, per named_parameters() path. Its zip entries carry a fixed
    date, so one model always saves to the same bytes."""
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
        return from_record(ModelConfig, json.loads(blob))
    except ValueError as e:       # JSONDecodeError, from_record's keys, ModelConfig's checks
        raise CheckpointError(f"checkpoint config: {e}") from e


def load_checkpoint(path, config: ModelConfig | None = None) -> RestorationModel:
    """Rebuild a model from a checkpoint, reading one parameter at a time by name.

    When config is given it must equal the stored one (guards against loading
    weights into a differently shaped model); the vocab hash is checked before
    the model is built. A file that is not an intact npz archive (a failed
    CRC-32 included), another version, a config record that from_record
    rejects (not an object of exactly the ModelConfig fields) or that
    ModelConfig rejects, a config other than the requested one, another vocab
    hash, or a missing, unknown, misshapen or non-finite member, or one
    whose dtype is not the config's, raise CheckpointError, naming the member.
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
            raise CheckpointError("checkpoint config does not match requested config")
        if _member(archive, "vocab").tobytes() != VOCAB_SHA256:
            raise CheckpointError("checkpoint vocab hash does not match")
        model = RestorationModel(stored)
        params = dict(model.named_parameters())
        unknown = sorted(set(archive.files) - params.keys() - {"version", "config", "vocab"})
        if unknown:
            raise CheckpointError(f"checkpoint has unknown members {unknown}")
        for name, p in params.items():
            value = _member(archive, name)
            if value.shape != p.shape or value.dtype != stored.dtype:
                raise CheckpointError(f"parameter {name}: stored {value.dtype} {value.shape}, "
                                      f"expected {stored.dtype} {p.shape}")
            if not np.isfinite(value).all():
                raise CheckpointError(f"parameter {name}: non-finite values")
            p.data = value
    return model
