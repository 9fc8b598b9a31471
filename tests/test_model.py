import hashlib
import json
import struct

import numpy as np
import pytest

from promptrestore import tensor as T
from promptrestore.model import (MICRO_CONFIG, TOY_CONFIG, CheckpointError,
                                 ConfigError, ModelConfig, RestorationModel,
                                 load_checkpoint, save_checkpoint)
from promptrestore.tensor import Tensor

from helpers import check_gradients, sum_all


def rng(seed=0):
    return np.random.default_rng(seed)


def toy_model(seed=0):
    return RestorationModel(TOY_CONFIG, seed=seed)


def rand_image(h, w, seed=0):
    return rng(seed).uniform(0.0, 1.0, size=(h, w, 3))


# ---------------------------------------------------------------------------
# encoder


def test_encode_default_config_latent_shape():
    model = RestorationModel(ModelConfig(), seed=1)
    latent, skips = model.encode(Tensor(rand_image(128, 128, seed=2)))
    assert latent.shape == (16, 16, 384)
    assert [s.shape for s in skips] == [(128, 128, 48), (64, 64, 96), (32, 32, 192)]


def test_encode_deterministic():
    model = toy_model(seed=3)
    img = Tensor(rand_image(64, 64, seed=4))
    a, _ = model.encode(img)
    b, _ = model.encode(img)
    np.testing.assert_array_equal(a.data, b.data)


def test_encode_rejects_bad_shapes():
    model = toy_model()
    with pytest.raises(T.ShapeError):
        model.encode(Tensor(np.zeros((60, 64, 3))))
    with pytest.raises(T.ShapeError):
        model.encode(Tensor(np.zeros((64, 64, 4))))


# ---------------------------------------------------------------------------
# restore


def test_restore_output_shapes():
    model = toy_model(seed=5)
    out = model.restore(rand_image(64, 64, seed=6), "Remove rain.")
    assert out.restored.shape == (64, 64, 3)
    assert out.logits.shape == (5,)


@pytest.mark.parametrize("size", [(64, 64), (128, 64)])
def test_restore_shape_contract_other_sizes(size):
    model = toy_model(seed=7)
    out = model.restore(rand_image(*size, seed=8), "Remove haze.")
    assert out.restored.shape == (*size, 3)


def test_zeroed_output_head_gives_identity():
    model = toy_model(seed=9)
    model.output_conv.weight.data = np.zeros_like(model.output_conv.weight.data)
    model.output_conv.bias.data = np.zeros_like(model.output_conv.bias.data)
    img = rand_image(64, 64, seed=10)
    out = model.restore(img, "Remove blur, snow.")
    np.testing.assert_array_equal(out.restored.data, img)


def test_classifier_ignores_prompt():
    model = toy_model(seed=11)
    img = rand_image(64, 64, seed=12)
    a = model.restore(img, "Remove rain.").logits.data
    b = model.restore(img, "There are rain, snow in the image. Remove snow.").logits.data
    np.testing.assert_array_equal(a, b)


def test_micro_model_end_to_end_gradients():
    model = RestorationModel(MICRO_CONFIG, seed=13)
    # the output head is zero-initialized; give it weight so gradients
    # reach the decoder path
    model.output_conv.weight.data = rng(14).normal(0, 0.05,
                                                   model.output_conv.weight.shape)
    img = Tensor(rand_image(16, 16, seed=15))
    target = Tensor(rand_image(16, 16, seed=16))
    labels = Tensor(np.array([1.0, 0.0, 1.0, 0.0, 0.0]))

    def loss():
        out = model.restore(img, "Remove blur, haze.")
        l1 = T.mean_all(T.absolute(T.sub(out.restored, target)))
        # BCE with logits: sum(log(1 + e^z) - y z)
        z = out.logits
        softplus = T.log(T.add(T.exp(z), Tensor(np.ones(5))))
        bce = sum_all(T.sub(softplus, T.mul(labels, z)))
        return T.add(T.scale(l1, 3.0), T.scale(bce, 0.1))

    params = [p for _, p in model.named_parameters()]
    check_gradients(loss, params, rtol=1e-4, max_per_tensor=1, rng=rng(17))


# ---------------------------------------------------------------------------
# initialisation


# sha256 over (name, shape, little-endian f64 bytes) of named_parameters() at
# seed 0. A change that moves a parameter, an init draw or the checkpoint
# order changes it; a pure refactor must not.
INIT_DIGESTS = {
    "toy": "894d8e8fa14479b6a9abd946938b854ab6bc6f96b93015567efe1e7360efd66e",
    "micro": "66390666aafb444794611b8e26ee9cad229902e41adbb74e9e4f3b0cf3027987",
}


@pytest.mark.parametrize("tag, config", [("toy", TOY_CONFIG), ("micro", MICRO_CONFIG)])
def test_init_parameters_match_golden_digest(tag, config):
    h = hashlib.sha256()
    for name, p in RestorationModel(config, seed=0).named_parameters():
        h.update(name.encode())
        h.update(repr(p.shape).encode())
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    assert h.hexdigest() == INIT_DIGESTS[tag]


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = RestorationModel(MICRO_CONFIG, seed=18)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for (na, a), (nb, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(a.data, b.data)
        assert b.data.dtype == np.float64 and b.data.flags.writeable


def test_checkpoint_of_zeroed_model(tmp_path):
    model = RestorationModel(MICRO_CONFIG, seed=19)
    for p in model.parameters():
        p.data = np.zeros_like(p.data)
    path = tmp_path / "zero.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert all((p.data == 0).all() for p in loaded.parameters())


def test_checkpoint_config_mismatch(tmp_path):
    model = RestorationModel(MICRO_CONFIG, seed=20)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(ConfigError):
        load_checkpoint(path, config=TOY_CONFIG)


def test_checkpoint_corrupt_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"PRCK" + b"\x02\x00\x00\x00" + b"\x10\x00\x00\x00trunc")
    with pytest.raises((CheckpointError, ConfigError)):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_raise(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(RestorationModel(MICRO_CONFIG, seed=23), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing bytes after the last array"):
        load_checkpoint(path)


def test_checkpoint_non_finite_parameter_raises_naming_it(tmp_path):
    model = RestorationModel(MICRO_CONFIG, seed=24)
    model.input_conv.weight.data[0, 1, 2, 0] = np.nan
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match=r"^parameter input_conv\.weight: non-finite"):
        load_checkpoint(path)


def test_checkpoint_version_1_is_unsupported(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(RestorationModel(MICRO_CONFIG, seed=25), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_checkpoint_vocab_mismatch_raises_before_building(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(RestorationModel(MICRO_CONFIG, seed=27), path)
    blob = bytearray(path.read_bytes())
    (n,) = struct.unpack_from("<I", blob, 8)
    blob[12 + n] ^= 1                            # first byte of the vocab sha256
    path.write_bytes(bytes(blob))

    def build(*args, **kwargs):
        raise AssertionError("model built before the vocab check")

    monkeypatch.setattr(RestorationModel, "__init__", build)
    with pytest.raises(ConfigError, match="checkpoint vocab hash does not match"):
        load_checkpoint(path)


def _edit_record(record, **changes):
    # the config record with keys set (value not None) or dropped (None)
    out = dict(record, **changes)
    return json.dumps({k: v for k, v in out.items() if v is not None}).encode()


@pytest.mark.parametrize("edit, message", [
    (lambda blob: blob.replace(b'"channels": 8', b'"channels": x'), "Expecting value"),
    (lambda blob: b"[8, 1]", "expected a JSON object, got list"),
    (lambda blob: _edit_record(json.loads(blob), extra=1),
     r"missing keys \[\], unknown keys \['extra'\]"),
    (lambda blob: _edit_record(json.loads(blob), channels=None),
     r"missing keys \['channels'\], unknown keys \[\]"),
    (lambda blob: _edit_record(json.loads(blob), channels="8"),
     "channels must be a positive int, got '8'"),
    (lambda blob: _edit_record(json.loads(blob), stage_blocks=[1, 1, 1]),
     "stage_blocks must have 4 entries"),
    # MICRO_CONFIG's latent stage is 2x2 and its 2x2 agent grid fills it
    (lambda blob: _edit_record(json.loads(blob), agent_h=3),
     r"agent_h x agent_w = 3x2 exceeds the latent stage's 2x2 grid"),
    (lambda blob: _edit_record(json.loads(blob), text_embed_dim=30),
     "text_embed_dim 30 not divisible by the 4 text encoder heads"),
], ids=["bad-json", "not-an-object", "unknown-key", "missing-key", "mistyped-key",
        "three-stages", "agent-grid", "text-heads"])
def test_checkpoint_bad_config_record_raises(tmp_path, edit, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(RestorationModel(MICRO_CONFIG, seed=26), path)
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 8)
    record = edit(blob[12:12 + n])
    path.write_bytes(blob[:8] + struct.pack("<I", len(record)) + record + blob[12 + n:])
    with pytest.raises(CheckpointError, match=f"^checkpoint config: .*{message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("changes, message", [
    (dict(channels=0), "channels must be a positive int, got 0"),
    (dict(channels=8.0), "channels must be a positive int, got 8.0"),
    (dict(agent_w=True), "agent_w must be a positive int, got True"),
    (dict(stage_blocks=(1, 1, 0, 1)), r"stage_blocks must be a positive int, got \(1, 1, 0, 1\)"),
    (dict(stage_blocks=(1, 1, 1)), "stage_blocks must have 4 entries"),
    (dict(stage_blocks=4), "stage_blocks must have 4 entries"),
    (dict(base_resolution=20), "base_resolution must be divisible by 8"),
    (dict(base_resolution=64, agent_w=11),
     r"agent_h x agent_w = 12x11 exceeds the latent stage's 8x8 grid"),
    (dict(text_embed_dim=126), "text_embed_dim 126 not divisible by the 4 text encoder heads"),
], ids=["zero", "float", "bool", "zero-stage", "three-stages", "int-stages",
        "base-resolution", "agent-grid", "text-heads"])
def test_model_config_rejects_bad_values(changes, message):
    with pytest.raises(ConfigError, match=message):
        ModelConfig(**changes)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" * 10)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_restore_accepts_plain_arrays():
    model = toy_model(seed=21)
    out = model.restore(rand_image(64, 64, seed=22), "Remove lowlight.")
    assert isinstance(out.restored, Tensor)
