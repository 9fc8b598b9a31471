import numpy as np
import pytest

from promptrestore import tensor as T
from promptrestore.attention import AttnConfig
from promptrestore.blocks import (ContextBlock, DegradationClassifier, Downsample,
                                  GatedDConvFFN, Upsample)
from promptrestore.tensor import Tensor

from helpers import check_gradients, sum_all


def rng(seed=0):
    return np.random.default_rng(seed)


def zero_module(m):
    for p in m.parameters():
        p.data = np.zeros_like(p.data)


# ---------------------------------------------------------------------------
# gated feedforward


def test_gdfn_shape_preserved():
    m = GatedDConvFFN(48, rng(1))
    out = m(Tensor(rng(2).normal(size=(16, 16, 48))))
    assert out.shape == (16, 16, 48)


def test_gdfn_zero_input_zero_bias_gives_zero():
    m = GatedDConvFFN(8, rng(3))
    for lin in (m.proj1, m.proj2, m.proj_out):
        lin.bias.data = np.zeros_like(lin.bias.data)
    m.dw1.bias.data = np.zeros_like(m.dw1.bias.data)
    m.dw2.bias.data = np.zeros_like(m.dw2.bias.data)
    out = m(Tensor(np.zeros((5, 4, 8))))
    np.testing.assert_array_equal(out.data, 0.0)


def test_gdfn_param_count_formula():
    c = 48
    h = round(2.66 * c)
    m = GatedDConvFFN(c, rng(4))
    weights = 2 * c * h + 2 * 9 * h + h * c
    biases = 2 * h + 2 * h + c
    assert m.proj1.weight.shape == (c, h)
    assert sum(p.size for p in m.parameters()) == weights + biases


def test_gdfn_gradients():
    m = GatedDConvFFN(4, rng(5))
    x = Tensor(rng(6).normal(size=(3, 3, 4)), requires_grad=True)

    def loss():
        return sum_all(T.gelu(m(x)))

    check_gradients(loss, [x] + list(m.parameters()), rtol=1e-4,
                    max_per_tensor=3, rng=rng(7))


# ---------------------------------------------------------------------------
# context block


def toy_block_cfg(c=8):
    return AttnConfig(channels=c, heads=2, agent_h=2, agent_w=2, height=4, width=4)


def test_context_block_shape():
    m = ContextBlock(toy_block_cfg(), rng(8))
    out = m(Tensor(rng(9).normal(size=(4, 4, 8))))
    assert out.shape == (4, 4, 8)


def test_context_block_zeroed_submodules_is_identity():
    m = ContextBlock(toy_block_cfg(), rng(10))
    zero_module(m.attn)
    zero_module(m.ffn)
    x = rng(11).normal(size=(4, 4, 8))
    out = m(Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_context_block_gradients():
    m = ContextBlock(toy_block_cfg(4), rng(12))
    x = Tensor(rng(13).normal(size=(4, 4, 4)), requires_grad=True)

    def loss():
        return sum_all(T.gelu(m(x)))

    check_gradients(loss, [x] + list(m.parameters()), rtol=1e-4,
                    max_per_tensor=2, rng=rng(14))


# ---------------------------------------------------------------------------
# down / up sampling


def test_downsample_channel_ladder():
    m = Downsample(48, rng(15))
    out = m(Tensor(rng(16).normal(size=(128, 128, 48))))
    assert out.shape == (64, 64, 96)


def test_up_down_round_trip_shape():
    down = Downsample(16, rng(17))
    up = Upsample(32, rng(18))
    x = Tensor(rng(19).normal(size=(8, 8, 16)))
    y = up(down(x))
    assert y.shape == x.shape


def test_downsample_linearity_zero_bias():
    m = Downsample(8, rng(20))
    m.proj.bias.data = np.zeros_like(m.proj.bias.data)
    x = rng(21).normal(size=(4, 4, 8))
    a = m(Tensor(3.0 * x)).data
    b = 3.0 * m(Tensor(x)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_upsample_shape():
    m = Upsample(96, rng(22))
    out = m(Tensor(rng(23).normal(size=(8, 8, 96))))
    assert out.shape == (16, 16, 48)


@pytest.mark.parametrize("block, message", [(Downsample, "downsample needs even channel count"),
                                            (Upsample, "upsample needs even channel count")])
def test_resampling_blocks_reject_an_odd_channel_count(block, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        block(7, rng(0))


def test_downsample_odd_extent_fails():
    m = Downsample(8, rng(24))
    with pytest.raises(T.ShapeError):
        m(Tensor(np.zeros((5, 4, 8))))


# ---------------------------------------------------------------------------
# degradation classifier head


@pytest.mark.parametrize("spatial", [(4, 4), (8, 8), (6, 10)])
def test_mdp_logits_length_five(spatial):
    m = DegradationClassifier(16, rng(25))
    out = m(Tensor(rng(26).normal(size=(*spatial, 16))))
    assert out.shape == (5,)


def test_mdp_spatial_permutation_invariance():
    # with conv and norm as identities, m(x) is the pooled head on gelu(x):
    # permuting x's spatial positions must leave the logits unchanged
    m = DegradationClassifier(16, rng(27))
    m.conv = m.norm = lambda t: t
    feat = Tensor(rng(28).normal(size=(4, 4, 16)))
    logits = m(feat).data
    perm = rng(29).permutation(16)
    shuffled = feat.data.reshape(16, 16)[perm].reshape(4, 4, 16)
    logits_perm = m(Tensor(shuffled)).data
    np.testing.assert_allclose(logits, logits_perm, atol=1e-12)


def test_mdp_linear_widths_follow_channel_ladder():
    c = 64  # stands in for 8C
    m = DegradationClassifier(c, rng(30))
    assert m.fc1.weight.shape == (c, c // 2)
    assert m.fc2.weight.shape == (c // 2, c // 4)
    assert m.fc3.weight.shape == (c // 4, 5)


def test_mdp_gradients():
    m = DegradationClassifier(8, rng(31))
    x = Tensor(rng(32).normal(size=(4, 4, 8)), requires_grad=True)

    def loss():
        return sum_all(T.gelu(m(x)))

    check_gradients(loss, [x] + list(m.parameters()), rtol=1e-4,
                    max_per_tensor=3, rng=rng(33))
