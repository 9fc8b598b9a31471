import dataclasses
import hashlib
import io
import json
import struct
import time
import zipfile

import numpy as np
import pytest

from promptrestore import tensor as T
from promptrestore.attention import AttnConfig
from promptrestore.model import (MICRO_CONFIG, TOY_CONFIG, CheckpointError,
                                 ModelConfig, RestorationModel,
                                 load_checkpoint, save_checkpoint)
from promptrestore.nn import Module
from promptrestore.tensor import Tensor
from promptrestore.text import VOCAB_SHA256

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
    latent, skips = model.encode(Tensor(rand_image(128, 128, seed=2).astype(model.config.dtype)))
    assert latent.shape == (16, 16, 384)
    assert [s.shape for s in skips] == [(128, 128, 48), (64, 64, 96), (32, 32, 192)]


def test_encode_deterministic():
    model = toy_model(seed=3)
    img = Tensor(rand_image(64, 64, seed=4).astype(model.config.dtype))
    a, _ = model.encode(img)
    b, _ = model.encode(img)
    np.testing.assert_array_equal(a.data, b.data)


def test_encode_rejects_bad_shapes():
    model = toy_model()
    for shape, message in (((60, 64, 3), "spatial size 60x64 is not a positive multiple of 8"),
                           ((0, 0, 3), "spatial size 0x0 is not a positive multiple of 8"),
                           ((64, 64, 4), r"expected \[H,W,3\] image, got \(64, 64, 4\)"),
                           ((16, 16), r"expected \[H,W,3\] image, got \(16, 16\)"),
                           ((16, 16, 3, 1), r"expected \[H,W,3\] image, got \(16, 16, 3, 1\)")):
        with pytest.raises(T.ShapeError, match=f"^{message}$"):
            model.encode(Tensor(np.zeros(shape)))


@pytest.mark.parametrize("config, image_dtype", [(TOY_CONFIG, "float64"),
                                                  (MICRO_CONFIG, "float32")])
def test_encode_rejects_an_image_of_another_dtype_naming_both(config, image_dtype):
    # a float64 image must not quietly turn a float32 forward into float64
    model = RestorationModel(config, seed=0)
    img = Tensor(rand_image(16, 16).astype(image_dtype))
    message = f"^image is {image_dtype}, but the model computes in {config.dtype}$"
    for call in (lambda: model.encode(img), lambda: model.restore(img, "Remove rain.")):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_encode_rejects_a_non_finite_image_naming_it(bad):
    model = RestorationModel(MICRO_CONFIG, seed=0)
    img = rand_image(16, 16)
    img[3, 5, 1] = img[7, 2, 0] = bad
    message = "^image: 2 of 768 values are not finite$"
    with pytest.raises(T.NonFiniteError, match=message):
        model.encode(Tensor(img))
    with T.no_nan_checks(), pytest.raises(T.NonFiniteError, match=message):
        model.restore(img, "remove the rain")      # input validation, checks on or off


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
    np.testing.assert_array_equal(out.restored.data, img.astype(model.config.dtype))


def test_float32_restore_computes_every_op_in_float32(monkeypatch):
    model = toy_model(seed=40)
    finish, dtypes = T._finish, []

    def record(out_data, *args, **kwargs):
        dtypes.append(out_data.dtype)
        return finish(out_data, *args, **kwargs)

    monkeypatch.setattr(T, "_finish", record)
    out = model.restore(rand_image(64, 64, seed=41), "Remove rain, haze.")
    assert len(dtypes) > 100 and set(dtypes) == {np.dtype(np.float32)}
    assert out.restored.data.dtype == out.logits.data.dtype == np.float32


def _nonzero_output_head(model, seed):
    # output_conv is zero-initialised, which would stop every gradient behind it
    w = model.output_conv.weight
    w.data = rng(seed).normal(0.0, 0.02, w.shape).astype(w.data.dtype)


def test_float32_restore_is_bit_identical_on_repeat():
    model = toy_model(seed=42)
    _nonzero_output_head(model, 43)
    img = rand_image(64, 64, seed=44)
    a, b = (model.restore(img, "Remove snow.") for _ in range(2))
    np.testing.assert_array_equal(a.restored.data, b.restored.data)
    np.testing.assert_array_equal(a.logits.data, b.logits.data)


def test_float32_step_with_a_float64_target_gives_float32_gradients():
    model = toy_model(seed=45)
    _nonzero_output_head(model, 46)
    target, labels = Tensor(rand_image(64, 64, seed=47)), Tensor(np.array([1.0, 0, 0, 1, 0]))
    with T.Tape() as tape:
        out = model.restore(rand_image(64, 64, seed=48), "Remove blur.")
        loss = T.add(T.mean_all(T.absolute(T.sub(out.restored, target))),
                     T.mean_all(T.mul(labels, out.logits)))
    assert loss.data.dtype == np.float64
    tape.backward(loss)
    assert [(name, p.grad.dtype) for name, p in model.named_parameters()] == \
        [(name, np.float32) for name, _ in model.named_parameters()]


@pytest.mark.parametrize("size", [(8, 8), (16, 16), (24, 40)])
def test_toy_restore_below_the_agent_grid(size):
    # latent fields of 1x1, 2x2 and 3x5 clamp the 4x4 agent grid, and every
    # position table is resized (to one pixel at 8x8)
    model = toy_model(seed=50)
    _nonzero_output_head(model, 51)
    img = rand_image(*size, seed=52)
    with pytest.warns(UserWarning, match="agent grid clamped"):
        a, b = (model.restore(img, "Remove rain.") for _ in range(2))
    assert a.restored.shape == (*size, 3)
    assert np.isfinite(a.restored.data).all() and np.isfinite(a.logits.data).all()
    np.testing.assert_array_equal(a.restored.data, b.restored.data)
    np.testing.assert_array_equal(a.logits.data, b.logits.data)


def _numcheck_gradients(config):
    # tools/numcheck.py's taped case at 16x16: model seed 3, data seed 11,
    # L1 + mean-logit loss
    model = RestorationModel(config, seed=3)
    r = rng(11)
    w = model.output_conv.weight
    w.data = r.normal(0.0, 0.02, w.shape).astype(config.dtype)
    img, gt = r.uniform(0, 1, (16, 16, 3)), r.uniform(0, 1, (16, 16, 3))
    with T.Tape() as tape:
        out = model.restore(img, "remove the rain and the haze")
        loss = T.add(T.mean_all(T.absolute(T.sub(out.restored, Tensor(gt)))),
                     T.mean_all(out.logits))
    tape.backward(loss)
    return [p.grad for p in model.parameters()]


def test_float32_gradients_match_float64_within_1e_4_of_their_scale():
    # measured: max |g32 - g64| 3.6e-7 against max |g64| 0.458
    g64 = _numcheck_gradients(MICRO_CONFIG)
    g32 = _numcheck_gradients(dataclasses.replace(MICRO_CONFIG, dtype="float32"))
    assert {g.dtype for g in g64} == {np.dtype(np.float64)}
    assert {g.dtype for g in g32} == {np.dtype(np.float32)}
    diff = max(float(np.abs(a - b).max()) for a, b in zip(g32, g64))
    assert diff <= 1e-4 * max(float(np.abs(g).max()) for g in g64)


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


# sha256 over (name, shape, little-endian f64 bytes) of named_parameters() of
# the float64 model at seed 0. A change that moves a parameter, an init draw
# or the checkpoint order changes it; a pure refactor must not.
INIT_DIGESTS = {
    "toy": "894d8e8fa14479b6a9abd946938b854ab6bc6f96b93015567efe1e7360efd66e",
    "micro": "66390666aafb444794611b8e26ee9cad229902e41adbb74e9e4f3b0cf3027987",
}


@pytest.mark.parametrize("tag, config", [("toy", TOY_CONFIG), ("micro", MICRO_CONFIG)])
def test_init_parameters_match_golden_digest(tag, config):
    drawn = RestorationModel(dataclasses.replace(config, dtype="float64"), seed=0)
    h = hashlib.sha256()
    for name, p in drawn.named_parameters():
        h.update(name.encode())
        h.update(repr(p.shape).encode())
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    assert h.hexdigest() == INIT_DIGESTS[tag]
    # a model in another dtype holds the same draws, cast
    for (_, a), (_, b) in zip(drawn.named_parameters(),
                              RestorationModel(config, seed=0).named_parameters()):
        assert b.data.dtype == config.dtype
        np.testing.assert_array_equal(b.data, a.data.astype(config.dtype))


# one head per C channels: 1, 2, 4, 8 on the ladder, 2 in the 2C final level
LADDER_HEADS = dict(enc0=1, enc1=2, enc2=4, latent=8, fuse_latent=8, fuse_mid=4,
                    dec2=4, dec1=2, dec0=2, refine=2)


def _attn_configs(module, found):
    # the AttnConfig of every module under `module` that carries one
    if isinstance(getattr(module, "cfg", None), AttnConfig):
        found.append(module.cfg)
    for child in vars(module).values():
        if isinstance(child, Module):
            _attn_configs(child, found)
    return found


@pytest.mark.parametrize("config", [MICRO_CONFIG, TOY_CONFIG, ModelConfig()],
                         ids=["micro", "toy", "default"])
def test_attention_heads_follow_the_channel_ladder(config):
    model = RestorationModel(config)
    b0, b1, b2, b3 = config.stage_blocks
    sites = dict(enc0=b0, enc1=b1, enc2=b2, latent=b3, fuse_latent=1, fuse_mid=1,
                 dec2=b2, dec1=b1, dec0=b0, refine=config.refinement_blocks)
    found = {name: _attn_configs(child, []) for name, child in vars(model).items()
             if isinstance(child, Module) and name != "text_encoder"}
    assert {name: [c.heads for c in cfgs] for name, cfgs in found.items() if cfgs} == \
        {name: [LADDER_HEADS[name]] * n for name, n in sites.items()}
    # and every image attention module pools onto the square agent grid
    assert {(c.agent_h, c.agent_w) for cfgs in found.values() for c in cfgs} == \
        {(config.agent_grid, config.agent_grid)}


# ---------------------------------------------------------------------------
# checkpointing


def _saved(tmp_path, seed):
    path = tmp_path / "model.ckpt"
    save_checkpoint(RestorationModel(MICRO_CONFIG, seed=seed), path)
    return path


def _rewrite(path, **members):
    # write the archive at path back with members replaced, or dropped (None)
    with np.load(path) as archive:
        out = {name: archive[name] for name in archive.files}
    out.update(members)
    with open(path, "wb") as fh:
        np.savez(fh, **{name: a for name, a in out.items() if a is not None})


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = RestorationModel(MICRO_CONFIG, seed=18)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with np.load(path) as archive:
        assert archive.files == ["version", "config", "vocab"] + [
            name for name, _ in model.named_parameters()]
    loaded = load_checkpoint(path)
    for (na, a), (nb, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(a.data, b.data)
        assert b.data.dtype == np.float64 and b.data.flags.writeable


def test_float32_checkpoint_round_trip_keeps_the_dtype(tmp_path):
    config = dataclasses.replace(MICRO_CONFIG, dtype="float32")
    model = RestorationModel(config, seed=34)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, config=config)
    assert loaded.config == config
    for (na, a), (nb, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert na == nb and b.data.dtype == np.float32
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("dtype, member_dtype", [("float64", np.float32),
                                                 ("float32", np.float64)])
def test_checkpoint_member_of_another_dtype_raises_naming_the_expected_one(
        tmp_path, dtype, member_dtype):
    path = tmp_path / "model.ckpt"
    save_checkpoint(RestorationModel(dataclasses.replace(MICRO_CONFIG, dtype=dtype), seed=35), path)
    _rewrite(path, **{"input_conv.bias": np.zeros(8, member_dtype)})
    message = (rf"^parameter input_conv\.bias: stored {np.dtype(member_dtype)} \(8,\), "
               rf"expected {dtype} \(8,\)$")
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_saves_are_byte_identical(tmp_path, monkeypatch):
    model = RestorationModel(MICRO_CONFIG, seed=29)
    save_checkpoint(model, tmp_path / "a.ckpt")
    now = time.time()
    monkeypatch.setattr(time, "time", lambda: now + 86400.0)   # the entries carry no save time
    save_checkpoint(model, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


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
    with pytest.raises(CheckpointError, match="^checkpoint config does not match requested config$"):
        load_checkpoint(path, config=TOY_CONFIG)


def test_checkpoint_corrupt_file(tmp_path):
    path = _saved(tmp_path, 22)
    path.write_bytes(path.read_bytes()[:-100])          # cuts the central directory
    with pytest.raises(CheckpointError, match="^not a checkpoint archive: File is not a zip"):
        load_checkpoint(path)


def test_checkpoint_flipped_parameter_byte_raises(tmp_path):
    model = RestorationModel(MICRO_CONFIG, seed=23)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    data = model.input_conv.weight.data.tobytes()
    at = blob.find(data)
    assert at >= 0
    blob[at + len(data) // 2] ^= 1                      # a low mantissa bit of one weight
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=r"^member input_conv\.weight: Bad CRC-32"):
        load_checkpoint(path)


@pytest.mark.parametrize("offset, value, message", [
    (8, 0x01, "is encrypted"),                          # general-purpose flag bit 0
    (10, 99, "compression method is not supported"),
], ids=["encrypted-flag", "unknown-compression"])
def test_checkpoint_corrupt_directory_entry_raises(tmp_path, offset, value, message):
    path = _saved(tmp_path, 30)
    with zipfile.ZipFile(path) as zf:
        entry = zf.start_dir                            # the first entry: version.npy
    blob = bytearray(path.read_bytes())
    blob[entry + offset] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"^member version: .*{message}"):
        load_checkpoint(path)


def test_checkpoint_non_finite_parameter_raises_naming_it(tmp_path):
    model = RestorationModel(MICRO_CONFIG, seed=24)
    model.input_conv.weight.data[0, 1, 2, 0] = np.nan
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match=r"^parameter input_conv\.weight: non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("members, message", [
    ({"input_conv.weight": None}, r"^member input_conv\.weight: .*not a file in the archive"),
    ({"vocab": None}, "^member vocab: .*not a file in the archive"),
    ({"input_conv.scale": np.ones(8)}, r"^checkpoint has unknown members \['input_conv\.scale'\]"),
    ({"input_conv.bias": np.zeros(7)},
     r"^parameter input_conv\.bias: stored float64 \(7,\), expected float64 \(8,\)"),
    ({"input_conv.bias": np.zeros(8, np.float32)}, r"^parameter input_conv\.bias: stored float32"),
], ids=["missing", "missing-vocab", "extra", "misshapen", "float32"])
def test_checkpoint_member_mismatch_raises_naming_it(tmp_path, members, message):
    path = _saved(tmp_path, 31)
    _rewrite(path, **members)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_member_that_is_not_npy_raises(tmp_path):
    path = _saved(tmp_path, 33)
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    members["vocab.npy"] = VOCAB_SHA256                 # the right bytes, but not an .npy
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    with pytest.raises(CheckpointError, match=r"^member vocab: not an \.npy array"):
        load_checkpoint(path)


def _version_2_bytes():
    # the byte container version 3 replaced: magic, version, length-prefixed
    # config JSON, vocab sha256, array count, size-prefixed float64 blobs
    model = RestorationModel(MICRO_CONFIG, seed=32)
    cfg = json.dumps(dataclasses.asdict(model.config)).encode()
    arrays = [p.data for p in model.parameters()]
    return (b"PRCK" + struct.pack("<II", 2, len(cfg)) + cfg + VOCAB_SHA256
            + struct.pack("<Q", len(arrays))
            + b"".join(struct.pack("<Q", a.size) + a.astype("<f8").tobytes() for a in arrays))


def _npy_bytes():
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


@pytest.mark.parametrize("contents, message", [
    (bytes, "No data left in file"),
    (_npy_bytes, "a bare .npy array"),
    (_version_2_bytes, "pickled"),
], ids=["empty", "bare-npy", "version-2-bytes"])
def test_checkpoint_not_an_archive_raises(tmp_path, contents, message):
    path = tmp_path / "model.ckpt"
    path.write_bytes(contents())
    with pytest.raises(CheckpointError, match=f"^not a checkpoint archive: .*{message}"):
        load_checkpoint(path)


def test_checkpoint_version_1_is_unsupported(tmp_path):
    path = _saved(tmp_path, 25)
    _rewrite(path, version=np.array(1))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_checkpoint_of_the_last_version_is_unsupported(tmp_path):
    # version 4 stored agent_h and agent_w where version 5 stores agent_grid;
    # the version check comes before the config record is read
    path = _saved(tmp_path, 28)
    with np.load(path) as archive:
        record = json.loads(str(archive["config"]))
    side = record.pop("agent_grid")
    _rewrite(path, version=np.array(4),
             config=np.array(_edit_record(record, agent_h=side, agent_w=side)))
    with pytest.raises(CheckpointError, match="^unsupported checkpoint version 4$"):
        load_checkpoint(path)


def test_checkpoint_vocab_mismatch_raises_before_building(tmp_path, monkeypatch):
    path = _saved(tmp_path, 27)
    vocab = np.frombuffer(VOCAB_SHA256, dtype=np.uint8).copy()
    vocab[0] ^= 1
    _rewrite(path, vocab=vocab)

    def build(*args, **kwargs):
        raise AssertionError("model built before the vocab check")

    monkeypatch.setattr(RestorationModel, "__init__", build)
    with pytest.raises(CheckpointError, match="^checkpoint vocab hash does not match$"):
        load_checkpoint(path)


def _edit_record(record, **changes):
    # the config record with keys set (value not None) or dropped (None)
    out = dict(record, **changes)
    return json.dumps({k: v for k, v in out.items() if v is not None})


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace('"channels": 8', '"channels": x'), "Expecting value"),
    (lambda text: "[8, 1]", "ModelConfig: expected a JSON object, got list"),
    (lambda text: _edit_record(json.loads(text), extra=1),
     r"ModelConfig: missing keys \[\], unknown keys \['extra'\]"),
    (lambda text: _edit_record(json.loads(text), channels=None),
     r"ModelConfig: missing keys \['channels'\], unknown keys \[\]"),
    (lambda text: _edit_record(json.loads(text), channels="8"),
     "channels must be an int >= 1, got '8'"),
    (lambda text: _edit_record(json.loads(text), stage_blocks=[1, 1, 1]),
     "stage_blocks must have 4 entries"),
    # MICRO_CONFIG's latent stage is 2x2 and its 2x2 agent grid fills it
    (lambda text: _edit_record(json.loads(text), agent_grid=3),
     r"agent_grid 3 exceeds the latent 2x2 grid"),
    (lambda text: _edit_record(json.loads(text), text_embed_dim=30),
     "text_embed_dim 30 not divisible by the 4 text encoder heads"),
], ids=["bad-json", "not-an-object", "unknown-key", "missing-key", "mistyped-key",
        "three-stages", "agent-grid", "text-heads"])
def test_checkpoint_bad_config_record_raises(tmp_path, edit, message):
    path = _saved(tmp_path, 26)
    with np.load(path) as archive:
        record = edit(str(archive["config"]))
    _rewrite(path, config=np.array(record))
    with pytest.raises(CheckpointError, match=f"^checkpoint config: .*{message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("changes, message", [
    (dict(channels=0), "channels must be an int >= 1, got 0"),
    (dict(channels=8.0), "channels must be an int >= 1, got 8.0"),
    (dict(agent_grid=True), "agent_grid must be an int >= 1, got True"),
    (dict(stage_blocks=(1, 1, 0, 1)), r"stage_blocks\[2\] must be an int >= 1, got 0"),
    (dict(stage_blocks=(1, 1, 1)), "stage_blocks must have 4 entries"),
    (dict(stage_blocks=4), "stage_blocks must have 4 entries"),
    (dict(base_resolution=20), "base_resolution must be divisible by 8"),
    (dict(base_resolution=64, agent_grid=9), r"agent_grid 9 exceeds the latent 8x8 grid"),
    (dict(text_embed_dim=126), "text_embed_dim 126 not divisible by the 4 text encoder heads"),
    (dict(channels=7), r"channels must be even \(the first Downsample halves it\), got 7"),
    (dict(dtype="float16"), "dtype must be 'float32' or 'float64', got 'float16'"),
    (dict(dtype=np.float32), "dtype must be 'float32' or 'float64', got <class 'numpy.float32'>"),
], ids=["zero", "float", "bool", "zero-stage", "three-stages", "int-stages",
        "base-resolution", "agent-grid", "text-heads", "odd-channels",
        "float16", "dtype-object"])
def test_model_config_rejects_bad_values(changes, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig(**changes)


def test_model_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TOY_CONFIG.channels = 0
    assert TOY_CONFIG.channels == 16


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" * 10)
    with pytest.raises(CheckpointError, match="^not a checkpoint archive: .*pickled"):
        load_checkpoint(path)


def test_restore_accepts_plain_arrays():
    model = toy_model(seed=21)
    out = model.restore(rand_image(64, 64, seed=22), "Remove lowlight.")
    assert isinstance(out.restored, Tensor)
