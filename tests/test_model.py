import numpy as np
import pytest

from promptrestore import tensor as T
from promptrestore.model import (MICRO_CONFIG, TOY_CONFIG, CheckpointError,
                                 ConfigError, ModelConfig, RestorationModel,
                                 load_checkpoint, save_checkpoint)
from promptrestore.tensor import Tensor

from helpers import check_gradients


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
        bce = T.sum_all(T.sub(softplus, T.mul(labels, z)))
        return T.add(T.scale(l1, 3.0), T.scale(bce, 0.1))

    params = [p for _, p in model.named_parameters()]
    check_gradients(loss, params, rtol=1e-4, max_per_tensor=1, rng=rng(17))


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
    path.write_bytes(b"PRCK" + b"\x01\x00\x00\x00" + b"\x10\x00\x00\x00trunc")
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


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" * 10)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_restore_accepts_plain_arrays():
    model = toy_model(seed=21)
    out = model.restore(rand_image(64, 64, seed=22), "Remove lowlight.")
    assert isinstance(out.restored, Tensor)
