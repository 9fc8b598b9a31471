import numpy as np
import pytest

from promptrestore import tensor as T
from promptrestore.attention import (AgentCrossAttention, AgentSelfAttention,
                                     AttnConfig, VanillaSelfAttention, _attend, _pos_at)
from promptrestore.tensor import Tensor

from helpers import attention_oracle, check_gradients, sum_all


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# _attend: per-head scaled dot-product attention on [heads, tokens, d]


def test_single_key_returns_that_value():
    r = rng(1)
    q = Tensor(r.normal(size=(1, 5, 4)))
    k = Tensor(r.normal(size=(1, 1, 4)))
    v = Tensor(r.normal(size=(1, 1, 6)))
    out = _attend(q, k, v).data
    for row in out[0]:
        np.testing.assert_allclose(row, v.data[0, 0], atol=1e-12)


def test_zero_query_gives_value_mean():
    r = rng(2)
    k = Tensor(r.normal(size=(1, 7, 4)))
    v = Tensor(r.normal(size=(1, 7, 3)))
    out = _attend(Tensor(np.zeros((1, 2, 4))), k, v).data
    np.testing.assert_allclose(out[0], np.broadcast_to(v.data[0].mean(0), (2, 3)), atol=1e-12)


def test_two_by_two_hand_case():
    q = np.array([[1.0, 0.0], [0.0, 2.0]])
    k = np.array([[1.0, 1.0], [-1.0, 0.5]])
    v = np.array([[2.0, 0.0, 1.0], [0.0, -1.0, 3.0]])
    out = _attend(Tensor(q[None]), Tensor(k[None]), Tensor(v[None])).data
    np.testing.assert_allclose(out[0], attention_oracle(q, k, v), atol=1e-12)


@pytest.mark.parametrize("heads", [1, 3])
@pytest.mark.parametrize("n_q,n_k", [(4, 13), (13, 4), (7, 7)])
def test_attend_matches_dense_oracle(n_q, n_k, heads):
    # both logit layouts (query-major for n_q <= n_k, key-major otherwise)
    r = rng(n_q * 100 + n_k * 10 + heads)
    q, k = r.normal(size=(heads, n_q, 5)), r.normal(size=(heads, n_k, 5))
    v = r.normal(size=(heads, n_k, 6))
    out = _attend(Tensor(q), Tensor(k), Tensor(v)).data
    assert out.shape == (heads, n_q, 6)
    for h in range(heads):
        np.testing.assert_allclose(out[h], attention_oracle(q[h], k[h], v[h]),
                                   rtol=1e-12, atol=1e-12)


def test_dim_mismatch():
    with pytest.raises(T.ShapeError):
        _attend(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 4, 5))),
                Tensor(np.zeros((1, 4, 2))))


@pytest.mark.parametrize("agent_h, agent_w", [(1, 16), (16, 1)])
def test_attn_config_rejects_an_agent_grid_beyond_either_side(agent_h, agent_w):
    with pytest.raises(ValueError, match="^agent grid larger than spatial grid$"):
        AttnConfig(8, 1, agent_h, agent_w, 4, 4)


@pytest.mark.parametrize("changes, message", [
    (dict(channels=0), "channels must be an int >= 1, got 0"),
    (dict(channels=8.0), "channels must be an int >= 1, got 8.0"),
    (dict(heads=0), "heads must be an int >= 1, got 0"),
    (dict(agent_h=0, agent_w=0), "agent_h must be an int >= 1, got 0"),
    (dict(agent_w=-2), "agent_w must be an int >= 1, got -2"),
    (dict(height=True), "height must be an int >= 1, got True"),
    (dict(width=np.int64(8)), "width must be an int >= 1, got np.int64\\(8\\)"),
    (dict(text_len=-1), "text_len must be an int >= 0, got -1"),
    (dict(text_len=False), "text_len must be an int >= 0, got False"),
], ids=["zero-channels", "float-channels", "zero-heads", "zero-agents", "negative-agent-w",
        "bool-height", "numpy-width", "negative-text-len", "bool-text-len"])
def test_attn_config_rejects_bad_fields(changes, message):
    # the text encoder's and perfbench's scaling-sweep configs stay valid
    AttnConfig(8, 2, 1, 1, 1, 1)
    AttnConfig(channels=48, heads=1, agent_h=12, agent_w=12, height=64, width=64)
    fields = dict(channels=8, heads=2, agent_h=2, agent_w=2, height=8, width=8, text_len=0)
    AttnConfig(**fields)
    with pytest.raises(ValueError, match=f"^{message}$"):
        AttnConfig(**{**fields, **changes})


@pytest.mark.parametrize("build, message", [
    (lambda: AttnConfig(6, 4, 1, 1, 2, 2), "channels 6 not divisible by heads 4"),
    (lambda: AgentCrossAttention(AttnConfig(8, 2, 1, 1, 2, 2), np.random.default_rng(0)),
     "cross attention needs cfg.text_len"),
], ids=["heads-not-dividing-channels", "cross-without-text"])
def test_attention_rejects_a_config_it_cannot_run(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# ---------------------------------------------------------------------------
# agent self attention


def stage3_cfg():
    return AttnConfig(channels=192, heads=4, agent_h=12, agent_w=12,
                      height=32, width=32)


def test_mhasa_stage3_shape():
    m = AgentSelfAttention(stage3_cfg(), rng(3))
    out = m(Tensor(rng(4).normal(size=(32, 32, 192))))
    assert out.shape == (32, 32, 192)


def test_mhasa_single_token_closed_form():
    # H = W = 1: both attentions collapse, output = out_proj(V + dwconv(V))
    cfg = AttnConfig(8, 2, 1, 1, 1, 1)
    m = AgentSelfAttention(cfg, rng(7))
    x = Tensor(rng(8).normal(size=(1, 1, 8)))
    out = m(x).data.reshape(8)

    xp = x.data.reshape(1, 8) + m.pos.data.reshape(1, 8)
    v = xp @ m.w_v.weight.data + m.w_v.bias.data
    dw_center = m.dwconv.weight.data[:, 0, 1, 1]          # only tap that sees data
    dwv = v.reshape(8) * dw_center + m.dwconv.bias.data
    expect = (v.reshape(8) + dwv) @ m.w_out.weight.data + m.w_out.bias.data
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_mhasa_agent_grid_clamped_with_warning():
    cfg = AttnConfig(16, 2, 4, 4, 4, 4)
    m = AgentSelfAttention(cfg, rng(9))
    with pytest.warns(UserWarning, match="clamped"):
        out = m(Tensor(rng(10).normal(size=(2, 2, 16))))
    assert out.shape == (2, 2, 16)


def test_mhasa_gradients():
    cfg = AttnConfig(8, 2, 2, 2, 4, 4)
    m = AgentSelfAttention(cfg, rng(11))
    x = Tensor(rng(12).normal(size=(4, 4, 8)), requires_grad=True)
    params = [x] + list(m.parameters())

    def loss():
        return sum_all(T.gelu(m(x)))

    check_gradients(loss, params, rtol=1e-4, max_per_tensor=3, rng=rng(13))


def test_mhasa_resized_position_encoding():
    cfg = AttnConfig(8, 2, 2, 2, 8, 8)
    m = AgentSelfAttention(cfg, rng(14))
    out = m(Tensor(rng(15).normal(size=(4, 4, 8))))   # decoder sees half size
    assert out.shape == (4, 4, 8)


# ---------------------------------------------------------------------------
# agent cross attention


def table4_cfg():
    return AttnConfig(channels=384, heads=8, agent_h=12, agent_w=12,
                      height=16, width=16, text_len=20)


def test_mhaca_table4_shape():
    m = AgentCrossAttention(table4_cfg(), rng(16))
    out = m(Tensor(rng(17).normal(size=(16, 16, 384))),
            Tensor(rng(18).normal(size=(20, 384))))
    assert out.shape == (16, 16, 384)


def test_mhaca_zero_value_path_passes_image_through():
    cfg = AttnConfig(16, 2, 2, 2, 4, 4, text_len=5)
    m = AgentCrossAttention(cfg, rng(19))
    m.w_v.weight.data = np.zeros_like(m.w_v.weight.data)
    m.w_v.bias.data = np.zeros_like(m.w_v.bias.data)
    m.pos_txt.data = np.zeros_like(m.pos_txt.data)
    f_img = Tensor(rng(20).normal(size=(4, 4, 16)))
    out = m(f_img, Tensor(rng(21).normal(size=(5, 16))))
    np.testing.assert_array_equal(out.data, f_img.data)


def test_mhaca_single_text_token_closed_form():
    cfg = AttnConfig(8, 2, 2, 2, 4, 4, text_len=1)
    m = AgentCrossAttention(cfg, rng(22))
    f_img = Tensor(rng(23).normal(size=(4, 4, 8)))
    f_txt = Tensor(rng(24).normal(size=(1, 8)))
    out = m(f_img, f_txt).data
    # one key: every attention row is [1], so output = broadcast(v0) + image
    v0 = f_txt.data @ m.w_v.weight.data + m.w_v.bias.data + m.pos_txt.data
    np.testing.assert_allclose(out, f_img.data + v0.reshape(1, 1, 8), atol=1e-12)


def test_mhaca_text_length_mismatch():
    m = AgentCrossAttention(AttnConfig(16, 2, 2, 2, 4, 4, text_len=5), rng(25))
    with pytest.raises(T.ShapeError):
        m(Tensor(np.zeros((4, 4, 16))), Tensor(np.zeros((7, 16))))


def test_mhaca_gradients():
    cfg = AttnConfig(8, 2, 2, 2, 4, 4, text_len=3)
    m = AgentCrossAttention(cfg, rng(29))
    f_img = Tensor(rng(30).normal(size=(4, 4, 8)), requires_grad=True)
    f_txt = Tensor(rng(31).normal(size=(3, 8)), requires_grad=True)
    params = [f_img, f_txt] + list(m.parameters())

    def loss():
        return sum_all(T.gelu(m(f_img, f_txt)))

    check_gradients(loss, params, rtol=1e-4, max_per_tensor=3, rng=rng(32))


def test_mhaca_agent_grid_clamp_and_position_resize_match_mhasa():
    cfg = AttnConfig(8, 2, 4, 4, 8, 8, text_len=3)
    m = AgentCrossAttention(cfg, rng(40))
    f_img = Tensor(rng(41).normal(size=(2, 3, 8)))
    with pytest.warns(UserWarning, match="^agent grid clamped to 2x3 for spatial 2x3$"):
        out = m(f_img, Tensor(rng(42).normal(size=(3, 8))))
    assert out.shape == (2, 3, 8)
    np.testing.assert_array_equal(_pos_at(m.pos_img, 2, 3).data,
                                  T.bilinear_resize(m.pos_img, 2, 3).data)
    assert _pos_at(m.pos_img, 8, 8) is m.pos_img


def test_agent_attention_calls_keep_no_state():
    # a call must not leave activations (e.g. attention maps) or flags on the
    # module, also when a field smaller than the agent grid clamps it
    cfg = AttnConfig(8, 2, 2, 2, 4, 4, text_len=3)
    txt = Tensor(rng(47).normal(size=(3, 8)))
    for x in (Tensor(rng(44).normal(size=(4, 4, 8))), Tensor(rng(48).normal(size=(1, 3, 8)))):
        for m, args in ((AgentSelfAttention(cfg, rng(45)), (x,)),
                        (AgentCrossAttention(cfg, rng(46)), (x, txt))):
            before = dict(vars(m))
            if x.shape[0] < cfg.agent_h:
                with pytest.warns(UserWarning, match="^agent grid clamped to 1x2 for spatial 1x3$"):
                    m(*args)
            else:
                m(*args)
            assert vars(m) == before


# ---------------------------------------------------------------------------
# vanilla self attention baseline


def test_mhsa_shape_preserved():
    m = VanillaSelfAttention(stage3_cfg(), rng(33))
    out = m(Tensor(rng(34).normal(size=(32, 32, 192))))
    assert out.shape == (32, 32, 192)


def test_mhsa_reduces_to_softmax_attention_with_identity_projections():
    cfg = AttnConfig(6, 1, 1, 1, 3, 2)
    m = VanillaSelfAttention(cfg, rng(35))
    eye = np.eye(6)
    for lin in (m.w_q, m.w_k, m.w_v, m.w_out):
        lin.weight.data = eye.copy()
        lin.bias.data = np.zeros(6)
    x = rng(36).normal(size=(3, 2, 6))
    out = m(Tensor(x)).data.reshape(6, 6)
    tokens = x.reshape(6, 6)
    expect = attention_oracle(tokens, tokens, tokens)
    np.testing.assert_allclose(out, expect, atol=1e-12)
    # the same module on a token sequence [L, C], as the text encoder calls it
    out_tokens = m(Tensor(tokens)).data
    assert out_tokens.shape == (6, 6)
    np.testing.assert_allclose(out_tokens, expect, atol=1e-12)

