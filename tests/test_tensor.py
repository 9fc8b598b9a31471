import re
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from promptrestore import nn
from promptrestore import tensor as T
from promptrestore.model import MICRO_CONFIG, TOY_CONFIG, RestorationModel
from promptrestore.tensor import Tape, Tensor

from helpers import (adaptive_pool_oracle, check_gradients, conv2d_oracle, matmul_oracle,
                     softmax_oracle, sum_all)


def rand(*shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def hwc(x):
    # a [C,H,W] array as a contiguous channels-last [H,W,C] array
    return np.ascontiguousarray(x.transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    b = rand(3, 4, seed=1)
    out = T.matmul(Tensor(np.eye(3)), Tensor(b))
    np.testing.assert_array_equal(out.data, b)


def test_matmul_scalar_case():
    out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.data[0, 0] == 6.0


def test_matmul_vs_triple_loop():
    a, b = rand(4, 5, seed=2), rand(5, 3, seed=3)
    out = T.matmul(Tensor(a), Tensor(b))
    assert np.abs(out.data - matmul_oracle(a, b)).max() < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.matmul(Tensor(rand(2, 3)), Tensor(rand(4, 2)))


def test_matmul_maps_last_axis_of_nd_operand():
    # a[..., k] @ b[k, n]: every row of every leading index is one oracle matmul
    a, b = rand(2, 3, 4, seed=26), rand(4, 5, seed=27)
    out = T.matmul(Tensor(a), Tensor(b))
    assert out.shape == (2, 3, 5)
    for i in range(2):
        assert np.abs(out.data[i] - matmul_oracle(a[i], b)).max() < 1e-12
    with pytest.raises(T.ShapeError):
        T.matmul(Tensor(rand(2, 3, 4)), Tensor(rand(5, 2)))
    with pytest.raises(T.ShapeError):
        T.matmul(Tensor(rand(2, 3, 4)), Tensor(rand(3, 4, 2)))


def test_matmul_batched_matches_per_slice():
    a, b = rand(3, 4, 5, seed=4), rand(3, 5, 2, seed=5)
    out = T.matmul(Tensor(a), Tensor(b)).data
    for h in range(3):
        np.testing.assert_allclose(out[h], a[h] @ b[h], atol=1e-13)


def test_matmul_folds_an_empty_axis_forward_and_backward():
    # an empty inner axis sums nothing and gives zeros; these folds of [3, 0]
    # and [2, 3, 0] operands and of a [3, 0] gradient used to fail to reshape
    for shape in ((3, 0), (2, 3, 0)):
        out = T.matmul(Tensor(np.zeros(shape)), Tensor(np.ones((0, 2))))
        assert out.shape == (*shape[:-1], 2)
        np.testing.assert_array_equal(out.data, 0.0)
    a = Tensor(rand(3, 4, seed=60), requires_grad=True)
    b, c = Tensor(np.ones((4, 0)), requires_grad=True), Tensor(np.ones((0, 2)), requires_grad=True)
    with Tape() as tape:
        y = T.matmul(a, b)                  # [3, 4] @ [4, 0]: backward folds g [3, 0]
        loss = sum_all(T.matmul(y, c))      # [3, 0] @ [0, 2]: zeros
    tape.backward(loss)
    assert y.shape == (3, 0) and loss.item() == 0.0
    assert (a.grad.shape, b.grad.shape, c.grad.shape) == ((3, 4), (4, 0), (0, 2))
    np.testing.assert_array_equal(a.grad, 0.0)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_ones_kernel_constant_image():
    c = 0.7
    x = np.full((1, 6, 6), c)
    w = np.ones((1, 1, 3, 3))
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1))).data
    np.testing.assert_allclose(out[0, 1:-1, 1:-1], 9 * c, atol=1e-12)


@pytest.mark.parametrize("stride,groups,cin,cout", [
    (1, 1, 3, 4),      # dense
    (2, 1, 4, 6),      # dense, stride 2 over an odd (7) and an even (8) extent
    (1, 5, 5, 5),      # depthwise
    # the model's dense convs at TOY_CONFIG's C = 16: the input conv (3 -> C),
    # the output conv (2C -> 3) and the classifier's stride-2 conv (8C -> 8C)
    (1, 1, 3, 16),
    (1, 1, 32, 3),
    (2, 1, 128, 128),
])
def test_conv2d_vs_nested_loop(stride, groups, cin, cout):
    x = rand(cin, 7, 8, seed=7)
    w = rand(cout, cin // groups, 3, 3, seed=8)
    b = rand(cout, seed=9)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, groups=groups)
    ref = conv2d_oracle(x, w, b, stride=stride, padding=1, groups=groups)
    assert out.shape == ref.shape
    assert np.abs(out.data - ref).max() < 1e-12


NOT_A_MODEL_CONV = "neither a dense nor a stride-1 depthwise 3x3 conv"


def test_conv2d_invalid_groups():
    # groups is 1 (dense) or a stride-1 depthwise conv; nothing in between
    with pytest.raises(T.ShapeError, match=NOT_A_MODEL_CONV):
        T.conv2d(Tensor(rand(4, 5, 5)), Tensor(rand(6, 2, 3, 3)), Tensor(rand(6)), groups=2)
    with pytest.raises(T.ShapeError, match=NOT_A_MODEL_CONV):
        T.conv2d(Tensor(rand(3, 6, 6)), Tensor(rand(3, 1, 3, 3)), Tensor(rand(3)),
                 stride=2, groups=3)
    with pytest.raises(T.ShapeError, match=NOT_A_MODEL_CONV):   # 3 input channels, w wants 2
        T.conv2d(Tensor(rand(3, 4, 4)), Tensor(rand(4, 2, 3, 3)), Tensor(rand(4)))


def test_conv2d_kernel_too_large():
    with pytest.raises(T.ShapeError, match=NOT_A_MODEL_CONV):
        T.conv2d(Tensor(rand(1, 6, 6)), Tensor(rand(1, 1, 5, 5)), Tensor(rand(1)))


_DENSE_W, _DEPTHWISE_W = (3, 3, 3, 3), (3, 1, 3, 3)
_BAD_CONV_ARGS = [
    ("stride", 0, _DENSE_W),            # used to divide by zero
    ("stride", -1, _DENSE_W),           # used to reach numpy's "negative dimensions"
    ("stride", 2.0, _DENSE_W),          # used to reach a TypeError from a slice
    ("stride", True, _DENSE_W),         # used to run as stride 1
    ("stride", np.int64(2), _DENSE_W),
    ("groups", True, _DENSE_W),         # used to run as a dense conv
    ("groups", 3.0, _DEPTHWISE_W),      # used to run as a depthwise conv
    ("groups", 0, _DEPTHWISE_W),
]


@pytest.mark.parametrize("name, value, w_shape", _BAD_CONV_ARGS,
                         ids=[f"{name}={value!r}" for name, value, _ in _BAD_CONV_ARGS])
def test_conv2d_stride_and_groups_must_be_ints_of_at_least_one(name, value, w_shape):
    message = f"^conv2d: {name} must be an int >= 1, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        T.conv2d(Tensor(rand(3, 6, 6)), Tensor(rand(*w_shape)), Tensor(rand(3)), **{name: value})


@pytest.mark.parametrize("groups", [1, 4])
def test_conv2d_bias_must_match_output_channels(groups):
    # a (1,) bias would otherwise broadcast over all four channels
    x, w = Tensor(rand(4, 5, 5)), Tensor(rand(4, 4 // groups, 3, 3))
    for bias in (rand(1), rand(3), rand(4, 1)):
        with pytest.raises(T.ShapeError, match=r"bias shape"):
            T.conv2d(x, w, Tensor(bias), groups=groups)


# ---------------------------------------------------------------------------
# softmax / layer norm


def test_softmax_length_one():
    out = T.softmax(Tensor(rand(4, 1, seed=10)), axis=-1)
    np.testing.assert_allclose(out.data, 1.0, atol=0)


def test_softmax_uniform_input():
    out = T.softmax(Tensor(np.full((2, 5), 3.3)), axis=-1)
    np.testing.assert_allclose(out.data, 0.2, atol=1e-15)


def test_softmax_rows_sum_to_one():
    out = T.softmax(Tensor(rand(6, 9, seed=11, lo=-5, hi=5)), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)
    assert (out.data > 0).all() and (out.data < 1).all()


def test_softmax_shift_invariance():
    x = rand(3, 7, seed=12, lo=-2, hi=2)
    a = T.softmax(Tensor(x), axis=-1).data
    b = T.softmax(Tensor(x + 13.5), axis=-1).data
    assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("axis", [-1, -2])
def test_softmax_matches_oracle_on_either_axis(axis):
    x = rand(2, 5, 7, seed=12, lo=-4, hi=4)
    np.testing.assert_allclose(T.softmax(Tensor(x), axis=axis).data,
                               softmax_oracle(x, axis=axis), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("c", [1, 7, 85])
def test_layer_norm_matches_two_pass_oracle(c):
    x = rand(3, 4, c, seed=c, lo=-3, hi=5)
    g, b = rand(c, seed=c + 1, lo=0.5, hi=1.5), rand(c, seed=c + 2)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-6) * g + b
    out = T.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
    with Tape():   # taped, out is a second array next to the xhat backward reads
        taped = T.layer_norm(Tensor(x, requires_grad=True), Tensor(g), Tensor(b)).data
    np.testing.assert_array_equal(taped, out)


def test_layer_norm_constant_slice_is_zero():
    x = np.full((4, 6), 2.5)
    g, b = Tensor(np.ones(6)), Tensor(np.zeros(6))
    out = T.layer_norm(Tensor(x), g, b).data
    np.testing.assert_allclose(out, 0.0, atol=1e-9)


def test_layer_norm_two_point_closed_form():
    x = np.array([[1.0, 3.0]])
    g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = T.layer_norm(Tensor(x), g, b).data
    expect = (x - 2.0) / np.sqrt(1.0 + 1e-6)   # mean 2, biased var 1
    np.testing.assert_allclose(out, expect, atol=1e-15)


def test_layer_norm_beta_broadcast():
    beta = rand(5, seed=13)
    out = T.layer_norm(Tensor(np.zeros((3, 5))), Tensor(np.ones(5)), Tensor(beta)).data
    np.testing.assert_allclose(out, np.broadcast_to(beta, (3, 5)), atol=1e-15)


def test_layer_norm_moments():
    x = rand(10, 16, seed=14, lo=-3, hi=3)
    out = T.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# pixel shuffle


def test_pixel_shuffle_round_trip_exact():
    x = hwc(rand(3, 8, 8, seed=15))
    down = T.pixel_unshuffle(Tensor(x), 2)
    assert down.shape == (4, 4, 12)
    back = T.pixel_shuffle(down, 2)
    np.testing.assert_array_equal(back.data, x)


def test_pixel_unshuffle_shape():
    out = T.pixel_unshuffle(Tensor(np.zeros((128, 128, 48))), 2)
    assert out.shape == (64, 64, 192)


def test_pixel_unshuffle_subpixel_order():
    # row-major sub-pixel layout: channel order (a, b, c, d)
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    x = hwc(np.array([[[a, b], [c, d]]]))
    out = T.pixel_unshuffle(Tensor(x), 2).data
    np.testing.assert_array_equal(out.reshape(4), [a, b, c, d])


def test_pixel_unshuffle_channel_major_packing():
    # output [y, x, c*r*r + i*r + j] holds input [y*r + i, x*r + j, c]
    r = 2
    x = rand(4, 6, 3, seed=28)
    out = T.pixel_unshuffle(Tensor(x), r).data
    for y in range(2):
        for xx in range(3):
            for c in range(3):
                for i in range(r):
                    for j in range(r):
                        assert out[y, xx, c * r * r + i * r + j] == x[y * r + i, xx * r + j, c]


def test_pixel_unshuffle_indivisible():
    with pytest.raises(T.ShapeError):
        T.pixel_unshuffle(Tensor(np.zeros((5, 4, 1))), 2)


@pytest.mark.parametrize("op", ["pixel_shuffle", "pixel_unshuffle"])
@pytest.mark.parametrize("r", [0, -2, 2.0, True, np.int64(2)], ids=repr)
def test_pixel_shuffle_factor_must_be_an_int_of_at_least_one(op, r):
    # 0 used to divide by zero, -2 to reach a numpy reshape error
    message = f"^{op}: r must be an int >= 1, got {re.escape(repr(r))}$"
    with pytest.raises(ValueError, match=message):
        getattr(T, op)(Tensor(np.zeros((4, 4, 4))), r)


# ---------------------------------------------------------------------------
# adaptive average pooling


@pytest.mark.parametrize("op", ["adaptive_avg_pool", "bilinear_resize"])
@pytest.mark.parametrize("side", ["out_h", "out_w"])
@pytest.mark.parametrize("size", [0, -1, 2.0, True], ids=repr)
def test_pool_and_resize_sizes_must_be_ints_of_at_least_one(op, side, size):
    # 0 used to give an empty array, -1 to reach numpy's "negative dimensions",
    # 2.0 a TypeError from np.zeros, and True to run as 1
    message = f"^{op}: {side} must be an int >= 1, got {re.escape(repr(size))}$"
    with pytest.raises(ValueError, match=message):
        getattr(T, op)(Tensor(np.zeros((4, 4, 2))), **{"out_h": 2, "out_w": 2, side: size})


def test_adaptive_pool_identity():
    x = hwc(rand(2, 4, 5, seed=16))
    out = T.adaptive_avg_pool(Tensor(x), 4, 5)
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_adaptive_pool_global_mean():
    x = hwc(rand(3, 6, 7, seed=17))
    out = T.adaptive_avg_pool(Tensor(x), 1, 1)
    np.testing.assert_allclose(out.data[0, 0, :], x.mean(axis=(0, 1)), atol=1e-12)


def test_adaptive_pool_4x4_to_2x2_window_means():
    x = np.arange(16, dtype=float).reshape(4, 4, 1)
    out = T.adaptive_avg_pool(Tensor(x), 2, 2)
    np.testing.assert_allclose(out.data, adaptive_pool_oracle(x, 2, 2), atol=1e-12)


def test_adaptive_pool_uneven_vs_oracle():
    x = hwc(rand(2, 7, 5, seed=18))
    out = T.adaptive_avg_pool(Tensor(x), 3, 2)
    np.testing.assert_allclose(out.data, adaptive_pool_oracle(x, 3, 2), atol=1e-12)


def test_adaptive_pool_output_too_large():
    with pytest.raises(T.ShapeError):
        T.adaptive_avg_pool(Tensor(np.zeros((2, 2, 1))), 3, 1)


# ---------------------------------------------------------------------------
# elementwise suite


def test_gelu_zero():
    assert T.gelu(Tensor(np.zeros(2))).data[0] == 0.0


def _gated_chain(a, b, w, bias):
    # what gated_linear fuses, as composed ops
    return T.add_bias(T.matmul(T.mul(T.gelu(a), b), w), bias)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gated_linear_is_bit_equal_to_the_composed_chain(dtype):
    data = [rand(5, 6, 7, seed=50, lo=-4.0, hi=4.0), rand(5, 6, 7, seed=51),
            rand(7, 4, seed=57), rand(4, seed=58)]
    data = [d.astype(dtype) for d in data]
    m = Tensor(rand(5, 6, 4, seed=52).astype(dtype))     # so each g differs
    copies = [d.copy() for d in data]
    runs = []
    for op in (T.gated_linear, _gated_chain):
        leaves = [Tensor(d, requires_grad=True) for d in data]
        with Tape() as tape:
            out = op(*leaves)
            loss = sum_all(T.mul(out, m))
        tape.backward(loss)
        runs.append((op(*(Tensor(d) for d in data)).data, out.data,
                     *(leaf.grad for leaf in leaves)))
    for got, want in zip(*runs):                # untaped, taped, the four gradients
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
    for d, d_copy in zip(data, copies):
        np.testing.assert_array_equal(d, d_copy)


def test_gated_linear_with_a_wider_b_computes_in_b_dtype():
    # gelu(a) too is computed in float64: the all-float64 chain, with a's
    # gradient rounded to float32 once at the end
    a0 = rand(3, 4, seed=55, lo=-3.0, hi=3.0).astype(np.float32)
    rest = [rand(3, 4, seed=56), rand(4, 2, seed=57), rand(2, seed=58)]
    runs = []
    for op, a_data in ((T.gated_linear, a0), (_gated_chain, a0.astype(np.float64))):
        leaves = [Tensor(d, requires_grad=True) for d in (a_data, *rest)]
        with Tape() as tape:
            out = op(*leaves)
            loss = sum_all(out)
        tape.backward(loss)
        runs.append((out.data, *(leaf.grad for leaf in leaves)))
    (out, *grads), (want_out, *want_grads) = runs
    assert out.dtype == np.float64
    assert [g.dtype for g in grads] == [np.float32] + [np.float64] * 3
    np.testing.assert_array_equal(out, want_out)
    for g, want in zip(grads, want_grads):
        np.testing.assert_array_equal(g, want.astype(g.dtype))


def test_gelu_tape_holds_its_input_and_no_second_array():
    # the tape keeps x's data for backward, which recomputes the slope: while
    # the caller holds the input, the tape adds no array of its size, and
    # after the caller drops it the tape still holds that one array
    x = Tensor(rand(1024, 1024, seed=55), requires_grad=True)     # 8 MiB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            a = T.scale(x, 1.0)
            T.gelu(a)                   # the output is dropped at once
            held = tracemalloc.get_traced_memory()[0] - before
            del a
            retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1.5 * x.data.nbytes, held / x.data.nbytes
    assert x.data.nbytes <= retained < 1.5 * x.data.nbytes, retained / x.data.nbytes
    assert len(tape) == 2
    # one forward, taped or not: the same bits in either dtype
    for dtype in (np.float32, np.float64):
        v = Tensor(rand(8, 8, 128, seed=56, lo=-6.0, hi=6.0).astype(dtype), requires_grad=True)
        untaped = T.gelu(v).data
        with Tape():
            taped = T.gelu(v)
        assert taped.requires_grad and (taped.data.dtype, untaped.dtype) == (dtype, dtype)
        assert taped.data.tobytes() == untaped.tobytes()


def test_gated_linear_tape_holds_its_two_inputs_and_no_third_array():
    # once the caller drops a, b and the output, the tape keeps a's and b's
    # data for backward, and no array of their size beyond them: the gate
    # gelu(a) * b, which a matmul of it would keep, is recomputed
    x = Tensor(rand(1024, 1024, seed=53), requires_grad=True)     # 8 MiB
    y = Tensor(rand(1024, 1024, seed=54), requires_grad=True)
    w = Tensor(rand(1024, 8, seed=59), requires_grad=True)
    bias = Tensor(rand(8, seed=60), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            a, b = T.scale(x, 1.0), T.scale(y, 1.0)
            out = T.gated_linear(a, b, w, bias)
            del a, b, out
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 2 * x.data.nbytes <= retained < 2.5 * x.data.nbytes, retained / x.data.nbytes
    assert len(tape) == 3


def test_concat_shapes_add():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 5)))
    out = T.concat([a, b], axis=1)
    assert out.shape == (2, 8)
    np.testing.assert_array_equal(out.data[:, :3], 0.0)
    np.testing.assert_array_equal(out.data[:, 3:], 1.0)


def test_binary_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(T.ShapeError):
        T.mul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def test_bilinear_resize_identity_and_corners():
    x = rand(5, 7, 3, seed=19)
    same = T.bilinear_resize(Tensor(x), 5, 7)
    np.testing.assert_allclose(same.data, x, atol=1e-12)
    up = T.bilinear_resize(Tensor(x), 9, 13).data
    np.testing.assert_allclose(up[0, 0], x[0, 0], atol=1e-12)
    np.testing.assert_allclose(up[-1, -1], x[-1, -1], atol=1e-12)


def _resize_matrix_oracle(n_in, n_out):
    # align-corners bilinear weights, one output sample at a time: a single
    # output samples input 0, a single input is every output's only tap
    m = [[0.0] * n_in for _ in range(n_out)]
    for i in range(n_out):
        p = 0.0 if n_out == 1 else i * (n_in - 1) / (n_out - 1)
        lo = int(p)
        hi = min(lo + 1, n_in - 1)
        m[i][lo] += 1.0 - (p - lo)
        m[i][hi] += p - lo
    return m


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_in, n_out", [(1, 1), (1, 5), (5, 1), (4, 7), (7, 4)])
def test_resize_matrix_matches_a_loop_oracle_at_sides_of_one(n_in, n_out, dtype):
    got = T._resize_matrix(n_in, n_out, np.dtype(dtype))
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, np.array(_resize_matrix_oracle(n_in, n_out), dtype=dtype))


def test_add_bias_hands_an_empty_bias_its_empty_gradient():
    # the bias gradient sums over the leading axes as one GEMV; an empty
    # trailing axis must still give a (0,) gradient, as numpy's sum does
    x, b = Tensor(np.zeros((3, 0)), requires_grad=True), Tensor(np.zeros(0), requires_grad=True)
    with Tape() as tape:
        loss = T.mean_all(T.concat([T.add_bias(x, b), Tensor(np.ones((3, 1)))], axis=1))
    tape.backward(loss)
    assert (x.grad.shape, b.grad.shape) == ((3, 0), (0,))


def test_embedding_lookup_and_range_check():
    w = Tensor(rand(7, 4, seed=20))
    out = T.embedding(w, np.array([2, 2, 6]))
    np.testing.assert_array_equal(out.data[0], w.data[2])
    np.testing.assert_array_equal(out.data[2], w.data[6])
    with pytest.raises(IndexError):
        T.embedding(w, np.array([7]))


def test_embedding_takes_only_integer_ids():
    w = Tensor(rand(7, 4, seed=21))
    for ids in (np.array([2, 6], dtype=np.int32), np.array([2, 6], dtype=np.uint8), [2, 6]):
        np.testing.assert_array_equal(T.embedding(w, ids).data, w.data[[2, 6]])
    assert T.embedding(w, np.array([], dtype=np.int64)).shape == (0, 4)
    for ids, dtype in ((np.array([2.9, 6.0]), "float64"), (np.array([True, False]), "bool"),
                       ([2.0], "float64")):
        message = f"^embedding: ids must be integers, got dtype {dtype}$"
        with pytest.raises(TypeError, match=message):
            T.embedding(w, ids)


def test_embedding_backward_reads_the_ids_of_its_forward():
    # ids the caller changes in place between the forward and backward must
    # not move the gradient to other rows
    w, ids = Tensor(rand(4, 3, seed=22), requires_grad=True), np.array([1, 2])
    with Tape() as tape:
        loss = T.mean_all(T.embedding(w, ids))
    ids[0] = 3
    tape.backward(loss)
    np.testing.assert_allclose(w.grad.sum(axis=1), [0.0, 0.5, 0.5, 0.0], atol=1e-15)


@pytest.mark.parametrize("stride", [1, 2])
def test_dense_conv_and_embedding_compute_in_their_input_dtype(stride):
    # every leaf is float32; an op that allocated float64 buffers would give
    # a float64 output, or hand float64 gradients to the leaves
    x, w, b, table = (Tensor(a.astype(np.float32), requires_grad=True) for a in (
        rand(3, 6, 5, seed=60), rand(4, 3, 3, 3, seed=61), rand(4, seed=62), rand(7, 4, seed=63)))
    with Tape() as tape:
        y = T.conv2d(x, w, b, stride=stride)
        e = T.embedding(table, np.array([2, 2, 6]))
        loss = T.add(T.mean_all(y), T.mean_all(e))
    assert (y.data.dtype, e.data.dtype) == (np.float32, np.float32)
    tape.backward(loss)
    assert [t.grad.dtype for t in (x, w, b, table)] == [np.float32] * 4


def test_pool_and_resize_matrices_are_built_per_dtype():
    # a float32 call must leave the float64 matrices alone: 1/3 (5 -> 2 pool)
    # and 1/3, 2/3 (5 -> 4 resize) are not exact in float32
    x = Tensor(rand(5, 5, 2, seed=70))
    ops = (lambda t: T.adaptive_avg_pool(t, 2, 2), lambda t: T.bilinear_resize(t, 4, 4))

    def clear():
        T._pool_matrix.cache_clear()
        T._resize_matrix.cache_clear()

    clear()
    fresh = [op(x).data for op in ops]
    clear()
    x32 = Tensor(x.data.astype(np.float32))
    assert [op(x32).data.dtype for op in ops] == [np.float32] * 2
    for op, want in zip(ops, fresh):
        got = op(x).data
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def _sandwich_oracle(rows, cols, x):
    # out[i,j,c] = sum_hw rows[i,h] cols[j,w] x[h,w,c], one output pixel at a
    # time in float64 over the matrices' nonzero weights; its adjoint is the
    # sandwich of the transposed matrices
    rows, cols, x = (np.asarray(a, dtype=np.float64) for a in (rows, cols, x))
    out = np.zeros((rows.shape[0], cols.shape[0], x.shape[2]))
    for i, row in enumerate(rows):
        hs = np.flatnonzero(row)
        for j, col in enumerate(cols):
            ws = np.flatnonzero(col)
            weights = np.outer(row[hs], col[ws])[:, :, None]
            out[i, j] = (weights * x[np.ix_(hs, ws)]).sum(axis=(0, 1))
    return out


def test_pool_and_resize_match_a_loop_oracle_at_every_preset_shape(monkeypatch):
    # at every pool and resize a preset makes, forward and backward match the
    # float64 loop over the same matrices, and a second call gives the same bits
    calls = set()
    real = T._sandwich

    def record(x, matrix, out_h, out_w, opname):
        calls.add((opname, x.shape, out_h, out_w, x.data.dtype))
        return real(x, matrix, out_h, out_w, opname)

    monkeypatch.setattr(T, "_sandwich", record)
    for cfg, size in ((TOY_CONFIG, 64), (TOY_CONFIG, 128), (MICRO_CONFIG, 16), (MICRO_CONFIG, 32)):
        RestorationModel(cfg, seed=0).restore(rand(size, size, 3, seed=1, lo=0.0), "remove the rain")
    monkeypatch.undo()
    # the paper-scale config's agent pools at its base resolution (a restore
    # there takes seconds); its 1x1 pools are the presets' ones at more channels
    calls |= {("adaptive_avg_pool", (s, s, 48 * 128 // s), 12, 12, np.dtype(np.float32))
              for s in (128, 64, 32, 16)}
    assert {c[0] for c in calls} == {"adaptive_avg_pool", "bilinear_resize"}
    for opname, shape, out_h, out_w, dtype in sorted(calls, key=str):
        x, g = rand(*shape, seed=2).astype(dtype), rand(out_h, out_w, shape[2], seed=3).astype(dtype)
        matrix = T._pool_matrix if opname == "adaptive_avg_pool" else T._resize_matrix
        rows, cols = matrix(shape[0], out_h, dtype), matrix(shape[1], out_w, dtype)
        runs = []
        for _ in range(2):
            leaf = Tensor(x, requires_grad=True)
            with Tape() as tape:
                out = getattr(T, opname)(leaf, out_h, out_w)
                loss = sum_all(T.mul(out, Tensor(g)))      # hands backward g itself
            tape.backward(loss)
            runs.append((out.data, leaf.grad))
        np.testing.assert_array_equal(runs[1][0], runs[0][0])
        np.testing.assert_array_equal(runs[1][1], runs[0][1])
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for got, want in ((runs[0][0], _sandwich_oracle(rows, cols, x)),
                          (runs[0][1], _sandwich_oracle(rows.T, cols.T, g))):
            assert got.dtype == dtype
            assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


_W, _B = Tensor(np.zeros((2, 2, 3, 3))), Tensor(np.zeros(2))
_GW, _GB = Tensor(np.zeros((3, 5))), Tensor(np.zeros(5))


@pytest.mark.parametrize("call, message", [
    (lambda: T.conv2d(Tensor(np.zeros((8, 8))), _W, _B),
     r"conv2d: needs a 3-d x and a 4-d w, got x \(8, 8\) and w \(2, 2, 3, 3\)"),
    (lambda: T.conv2d(Tensor(np.zeros((2, 8, 8))), Tensor(np.zeros((2, 2, 3))), _B),
     r"conv2d: needs a 3-d x and a 4-d w, got x \(2, 8, 8\) and w \(2, 2, 3\)"),
    (lambda: T.pixel_unshuffle(Tensor(np.zeros((4, 4))), 2),
     r"pixel_unshuffle: needs a 3-d \[H,W,C\] input, got shape \(4, 4\)"),
    (lambda: T.pixel_shuffle(Tensor(np.zeros((1, 2, 2, 4))), 2),
     r"pixel_shuffle: needs a 3-d \[H,W,C\] input, got shape \(1, 2, 2, 4\)"),
    (lambda: T.adaptive_avg_pool(Tensor(np.zeros((4, 4))), 2, 2),
     r"adaptive_avg_pool: needs a 3-d \[H,W,C\] input, got shape \(4, 4\)"),
    (lambda: T.bilinear_resize(Tensor(np.zeros(4)), 2, 2),
     r"bilinear_resize: needs a 3-d \[H,W,C\] input, got shape \(4,\)"),
    (lambda: T.sub(Tensor(np.zeros(3)), Tensor(np.zeros(4))), r"sub: shapes \(3,\) vs \(4,\)"),
    (lambda: T.gated_linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), _GW, _GB),
     r"gated_linear: shapes \(2, 3\) vs \(3, 2\)"),
    (lambda: T.gated_linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))), _GW, _GB),
     r"gated_linear: inner dims \(2, 4\) vs \(3, 5\)"),
    (lambda: T.gated_linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), _GW,
                            Tensor(np.zeros(3))),
     r"gated_linear: bias shape \(3,\), expected \(5,\)"),
    (lambda: T.add_bias(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2))),
     r"add_bias: trailing dims \(2, 3\) vs \(2,\)"),
    (lambda: T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2)))),
     "matmul needs >= 2-d operands"),
    (lambda: T.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(2)), Tensor(np.zeros(3))),
     "layer_norm: gamma/beta must match normalized extent"),
    (lambda: T.pixel_shuffle(Tensor(np.zeros((2, 2, 6))), 2),
     r"pixel_shuffle: 6 channels not divisible by r\^2=4"),
    (lambda: T.bilinear_resize(Tensor(np.zeros((0, 4, 2))), 2, 2),
     r"bilinear_resize: an empty side in input shape \(0, 4, 2\)"),
    (lambda: T.bilinear_resize(Tensor(np.zeros((4, 0, 2))), 2, 2),
     r"bilinear_resize: an empty side in input shape \(4, 0, 2\)"),
    (lambda: T.layer_norm(Tensor(np.zeros((3, 0))), Tensor(np.ones(0)), Tensor(np.zeros(0))),
     r"layer_norm: an empty normalized axis in shape \(3, 0\)"),
    (lambda: T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=-1),
     r"concat: shapes \(2, 3\), \(3, 3\) on axis -1"),
    (lambda: T.concat([], axis=0), "concat: needs at least one tensor"),
], ids=["conv2d-2d-x", "conv2d-3d-w", "pixel_unshuffle-2d", "pixel_shuffle-4d",
        "adaptive_avg_pool-2d", "bilinear_resize-1d", "sub", "gated_linear",
        "gated_linear-w", "gated_linear-bias", "add_bias",
        "matmul-1d", "layer_norm", "pixel_shuffle-channels", "bilinear_resize-empty-h",
        "bilinear_resize-empty-w", "layer_norm-empty", "concat-off-axis", "concat-none"])
def test_shape_errors_name_the_op_and_the_shapes(call, message):
    with pytest.raises(T.ShapeError, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# dtypes


@pytest.mark.parametrize("data, dtype", [
    (np.zeros(3, np.float32), np.float32),
    (np.zeros(3), np.float64),
    (np.arange(3), np.float64),
    ([1, 2, 3], np.float64),
    (np.zeros(3, np.float16), np.float64),
], ids=["float32", "float64", "int", "list", "float16"])
def test_tensor_keeps_float32_and_float64_and_casts_the_rest_to_float64(data, dtype):
    t = Tensor(data)
    assert t.data.dtype == dtype
    np.testing.assert_array_equal(t.data, data)
    if isinstance(data, np.ndarray) and data.dtype == dtype:
        assert t.data is data                   # kept as given, not copied


# each case: the op, its inputs' shapes and which input is float32 (the rest
# are float64)
_MIXED = {
    "add": (T.add, [(3, 4), (3, 4)], 0),
    "sub": (T.sub, [(3, 4), (3, 4)], 0),
    "mul": (T.mul, [(3, 4), (3, 4)], 0),
    "layer_norm": (T.layer_norm, [(3, 4), (4,), (4,)], 0),
    "conv2d-dense": (lambda x, w, b: T.conv2d(x, w, b, stride=2), [(3, 6, 5), (4, 3, 3, 3), (4,)], 0),
    "conv2d-dense-narrow": (T.conv2d, [(9, 6, 5), (1, 9, 3, 3), (1,)], 0),
    "conv2d-depthwise": (lambda x, w, b: T.conv2d(x, w, b, groups=3),
                         [(3, 6, 5), (3, 1, 3, 3), (3,)], 0),
    "matmul": (T.matmul, [(2, 3, 4), (4, 5)], 0),
    "add_bias": (T.add_bias, [(3, 4), (4,)], 0),
    "gated_linear": (T.gated_linear, [(3, 4), (3, 4), (4, 2), (2,)], 1),
    "gated_linear-a": (T.gated_linear, [(3, 4), (3, 4), (4, 2), (2,)], 0),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(3, 4), (3, 2)], 0),
}


@pytest.mark.parametrize("op, shapes, narrow", list(_MIXED.values()), ids=list(_MIXED))
def test_mixed_dtype_op_hands_each_leaf_a_gradient_in_its_own_dtype(op, shapes, narrow):
    data = [rand(*shape, seed=80 + i) for i, shape in enumerate(shapes)]
    data[narrow] = data[narrow].astype(np.float32)
    runs = []
    for arrays in ([d.astype(np.float64) for d in data], data):
        leaves = [Tensor(d, requires_grad=True) for d in arrays]
        with Tape() as tape:
            out = op(*leaves)
            loss = sum_all(T.mul(out, Tensor(rand(*out.shape, seed=90))))
        untaped = op(*(Tensor(d) for d in arrays)).data
        # computed in the wider dtype, taped or not
        assert out.data.dtype == untaped.dtype == np.float64
        np.testing.assert_array_equal(out.data, untaped)
        tape.backward(loss)
        runs.append((out.data, [leaf.grad for leaf in leaves]))
    (want_out, want_grads), (out, grads) = runs
    # the float64 computation, each gradient then cast to its leaf's dtype
    np.testing.assert_array_equal(out, want_out)
    for d, g, want in zip(data, grads, want_grads):
        assert g.dtype == d.dtype
        np.testing.assert_array_equal(g, want.astype(d.dtype))


# ---------------------------------------------------------------------------
# purity / determinism / NaN policy


def test_forward_ops_do_not_mutate_inputs():
    x = rand(3, 6, 6, seed=21)
    w = rand(4, 3, 3, 3, seed=22)
    xc, wc = x.copy(), w.copy()
    T.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(x, xc)
    np.testing.assert_array_equal(w, wc)


def test_repeated_eval_bit_identical():
    x = rand(4, 8, seed=23)
    a = T.softmax(T.gelu(Tensor(x)), axis=-1).data
    b = T.softmax(T.gelu(Tensor(x)), axis=-1).data
    np.testing.assert_array_equal(a, b)


def test_nan_detection_raises_and_can_be_disabled():
    bad = Tensor(np.array([1.0, np.inf]))
    with np.errstate(over="ignore"):
        with pytest.raises(T.NonFiniteError):
            T.exp(Tensor(np.array([1000.0])))
        with T.no_nan_checks():
            out = T.add(bad, bad)
            assert np.isinf(out.data[1])
        with pytest.raises(T.NonFiniteError):   # checks are on again after the block
            T.add(bad, bad)


@pytest.mark.parametrize("view", [lambda t: T.transpose(t, (1, 0)), lambda t: T.reshape(t, (-1,))],
                         ids=["transpose", "reshape"])
def test_views_never_scan(view):
    bad = np.array([[1.0, np.inf], [2.0, 3.0]])
    with T.no_nan_checks():
        made = T.add(Tensor(bad), Tensor(np.zeros((2, 2))))
    for x in (Tensor(bad), made):                  # a leaf, an output made unchecked
        v = view(view(x))
        assert np.isinf(v.data).sum() == 1
        with pytest.raises(T.NonFiniteError, match="^scale produced non-finite values$"):
            T.scale(v, 1.0)                        # the first computing op scans


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_scan_finds_one_non_finite_value_anywhere(bad, dtype):
    for pos in (0, 61, 119):                   # first, middle, last of 120
        hwc_data = rand(4, 5, 6, seed=pos).astype(dtype)
        hwc_data.flat[pos] = bad
        # row-major, and the [C,H,W] view of an [H,W,C] array that conv2d
        # returns (scale's output keeps its input's layout)
        for x in (hwc_data, hwc_data.transpose(2, 0, 1)):
            with pytest.raises(T.NonFiniteError, match="^scale produced non-finite values$"):
                T.scale(Tensor(x), 1.0)
        with pytest.raises(T.NonFiniteError, match="^mean produced non-finite values$"):
            T.mean_all(Tensor(hwc_data))          # a 0-d output
    with T.no_nan_checks():
        out = T.scale(Tensor(hwc_data.transpose(2, 0, 1)), 1.0)
    assert out.data.base is None and not out.data.flags.c_contiguous


@pytest.mark.parametrize("dtype, big", [(np.float32, 1e20), (np.float64, 1e200)])
def test_scan_passes_huge_finite_values_and_an_empty_output(dtype, big):
    # squares of 1e20 (float32) and 1e200 (float64) overflow
    x = np.full((3, 4), big, dtype=dtype)
    x[1, 2] = -big
    np.testing.assert_array_equal(T.scale(Tensor(x), 1.0).data, x)
    assert T.mean_all(Tensor(x)).item() == pytest.approx(big * 10 / 12, rel=1e-6)
    empty = T.scale(Tensor(np.zeros((0, 3), dtype=dtype)), 1.0)
    assert empty.shape == (0, 3)


def test_no_nan_checks_skips_the_scan(monkeypatch):
    def fail(a):
        raise AssertionError("scanned")
    monkeypatch.setattr(T, "_finite", fail)
    with T.no_nan_checks():
        out = T.scale(Tensor(np.array([np.nan, 1.0])), 2.0)
    assert np.isnan(out.data[0]) and out.data[1] == 2.0
    with pytest.raises(AssertionError, match="scanned"):
        T.scale(Tensor(np.ones(2)), 2.0)


@pytest.mark.parametrize("layout", ["row-major", "conv2d"])
def test_scan_allocates_no_array_the_size_of_the_output(layout):
    hwc_data = np.ones((64, 128, 128), dtype=np.float32)          # 4 MiB
    out = hwc_data if layout == "row-major" else hwc_data.transpose(2, 0, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        T._finish(out, (), lambda g: (g,), "probe")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes / 8, peak / out.nbytes


# ---------------------------------------------------------------------------
# backward


def test_backward_square():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(T.mul(x, x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_reads_any_size_one_tensor(shape):
    value = Tensor(np.full(shape, 2.5)).item()
    assert value == 2.5 and type(value) is float


def test_item_rejects_a_tensor_of_another_size():
    with pytest.raises(ValueError, match="^can only convert an array of size 1"):
        Tensor(np.ones(2)).item()


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)
        with pytest.raises(T.ShapeError):
            tape.backward(y)


def test_backward_rejects_a_loss_this_tape_did_not_record():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        h = T.mul(x, x)
    after = sum_all(h)                      # computed once the block closed
    with Tape() as other:
        elsewhere = sum_all(T.mul(x, x))    # recorded on a second tape
    for loss in (after, elsewhere):
        with pytest.raises(ValueError, match="^backward needs a loss recorded on this tape$"):
            tape.backward(loss)
    assert x.grad is None
    other.backward(elsewhere)
    np.testing.assert_array_equal(x.grad, [6.0])


def test_backward_skips_nodes_the_loss_does_not_reach():
    x, y = (Tensor(np.array([v]), requires_grad=True) for v in (2.0, 5.0))
    with Tape() as tape:
        T.mul(y, y)                 # recorded before the loss, off its path
        loss = sum_all(T.mul(x, x))
        T.mul(y, x)                 # recorded after the loss
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [4.0])
    assert y.grad is None


def test_backward_matmul_chain_vs_finite_differences():
    rng = np.random.default_rng(24)
    a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
    c = Tensor(rng.uniform(-1, 1, (5, 2)), requires_grad=True)

    def loss():
        return sum_all(T.gelu(T.matmul(T.matmul(a, b), c)))

    check_gradients(loss, [a, b, c], rtol=1e-4, max_per_tensor=6, rng=rng)


def test_backward_softmax_cross_entropy_vs_finite_differences():
    rng = np.random.default_rng(25)
    logits = Tensor(rng.uniform(-2, 2, (4, 6)), requires_grad=True)
    target = np.zeros((4, 6))
    target[np.arange(4), [1, 3, 0, 5]] = 1.0

    def loss():
        p = T.softmax(logits, axis=-1)
        return T.scale(sum_all(T.mul(Tensor(target), T.log(p))), -1.0)

    check_gradients(loss, [logits], rtol=1e-4, max_per_tensor=12, rng=rng)


@pytest.mark.parametrize("op_name", [
    "conv", "conv_stride1", "conv_narrow", "conv_narrow_stride2", "depthwise", "layer_norm",
    "pool", "shuffle", "resize", "concat", "abs", "bias", "linear", "embedding", "softmax_axis", "gated_linear",
])
def test_backward_each_op_vs_finite_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    if op_name == "conv":
        x = Tensor(rng.uniform(-1, 1, (3, 6, 6)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.conv2d(x, w, b, stride=2)))
        params = [x, w, b]
    elif op_name == "conv_stride1":
        x = Tensor(rng.uniform(-1, 1, (4, 5, 7)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 4, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.conv2d(x, w, b)))
        params = [x, w, b]
    elif op_name.startswith("conv_narrow"):     # 9 * C_out <= C_in: the stacked-taps path
        stride = 2 if op_name.endswith("stride2") else 1
        x = Tensor(rng.uniform(-1, 1, (18, 5, 7)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 18, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 2), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.conv2d(x, w, b, stride=stride)))
        params = [x, w, b]
    elif op_name == "depthwise":
        x = Tensor(rng.uniform(-1, 1, (5, 6, 6)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (5, 1, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.conv2d(x, w, b, groups=5)))
        params = [x, w, b]
    elif op_name == "layer_norm":
        x = Tensor(rng.uniform(-1, 1, (4, 7)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, 7), requires_grad=True)
        b = Tensor(rng.uniform(-0.5, 0.5, 7), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.layer_norm(x, g, b)))
        params = [x, g, b]
    elif op_name == "pool":
        x = Tensor(rng.uniform(-1, 1, (5, 7, 2)), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.adaptive_avg_pool(x, 2, 3)))
        params = [x]
    elif op_name == "shuffle":
        x = Tensor(rng.uniform(-1, 1, (4, 6, 3)), requires_grad=True)
        # a position-dependent weight between the two, so neither backward
        # can hide behind the round trip being the identity
        c = Tensor(rng.uniform(0.5, 1.5, (2, 3, 12)))
        fn = lambda: sum_all(T.gelu(T.pixel_shuffle(T.mul(T.pixel_unshuffle(x, 2), c), 2)))
        params = [x]
    elif op_name == "resize":
        x = Tensor(rng.uniform(-1, 1, (4, 5, 2)), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.bilinear_resize(x, 7, 3)))
        params = [x]
    elif op_name == "concat":
        a = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.concat([a, b], axis=1)))
        params = [a, b]
    elif op_name == "abs":
        x = Tensor(rng.uniform(0.1, 2, 9), requires_grad=True)  # keep away from kink
        fn = lambda: sum_all(T.absolute(T.mul(x, x)))
        params = [x]
    elif op_name == "bias":
        x = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.add_bias(x, b)))
        params = [x, b]
    elif op_name == "linear":
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.add_bias(T.matmul(x, w), b)))
        params = [x, w, b]
    elif op_name == "softmax_axis":
        x = Tensor(rng.uniform(-2, 2, (2, 5, 4)), requires_grad=True)
        # columns of a softmax over axis -2 sum to 1, so weight them
        c = Tensor(rng.uniform(0.5, 1.5, (2, 5, 4)))
        fn = lambda: sum_all(T.mul(T.softmax(x, axis=-2), c))
        params = [x]
    elif op_name == "gated_linear":
        a = Tensor(rng.uniform(-3, 3, (3, 4, 2)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (3, 4, 2)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        bias = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        fn = lambda: sum_all(T.gelu(T.gated_linear(a, b, w, bias)))
        params = [a, b, w, bias]
    else:  # embedding
        w = Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
        ids = np.array([0, 2, 2, 5])
        fn = lambda: sum_all(T.gelu(T.embedding(w, ids)))
        params = [w]
    check_gradients(fn, params, rtol=1e-4, max_per_tensor=6, rng=rng)


def test_grad_accumulates_across_tapes():
    x = Tensor(np.array([2.0]), requires_grad=True)
    for _ in range(3):
        with Tape() as tape:
            tape.backward(sum_all(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, [12.0], atol=1e-12)


def test_tapes_and_no_nan_checks_are_per_thread():
    # another thread holds a Tape and no_nan_checks open; neither reaches this one
    entered, release, held = threading.Event(), threading.Event(), []

    def hold():
        with T.no_nan_checks(), Tape() as tape:
            held.append(tape)
            entered.set()
            release.wait(30)

    other = threading.Thread(target=hold)
    other.start()
    try:
        assert entered.wait(30)
        with pytest.raises(T.NonFiniteError, match="^scale produced non-finite values$"):
            T.scale(Tensor(np.array([1.0, np.inf])), 1.0)
        x = Tensor(np.ones(3), requires_grad=True)
        assert not T.mul(x, x).requires_grad
        with Tape() as mine:
            T.mul(x, x)
        assert len(mine) == 1 and len(held[0]) == 0
    finally:
        release.set()
        other.join()


def test_no_tape_means_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.mul(x, x)
    assert not y.requires_grad and y.grad is None


def test_leaf_grads_do_not_alias():
    # backward hands a leaf its gradient array without a copy only when that
    # array owns its data and no other leaf took it; each leaf must still own
    # its .grad. Every case's loss is a plain sum, so each .grad is all ones
    cases = {
        # add hands one g to both parents
        "add": ([(3, 4), (3, 4)], lambda x, y: T.add(x, y)),
        # x's gradient is a view of the g that y takes
        "transpose": ([(4, 3), (3, 4)], lambda x, y: T.add(T.transpose(x, (1, 0)), y)),
        "reshape": ([(12,), (3, 4)], lambda x, y: T.add(T.reshape(x, (3, 4)), y)),
        # with a 1-d x, lead is () and add_bias hands g to both too
        "add_bias-1d": ([(4,), (4,)], lambda x, b: T.add_bias(x, b)),
    }
    for name, (shapes, op) in cases.items():
        leaves = [Tensor(rand(*shape, seed=40 + i), requires_grad=True)
                  for i, shape in enumerate(shapes)]
        with Tape() as tape:
            tape.backward(sum_all(op(*leaves)))
        grads = [leaf.grad for leaf in leaves]
        for i, gi in enumerate(grads):
            assert gi.shape == shapes[i], name
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj), name
        for i, gi in enumerate(grads):
            gi *= 0.5
            for j, gj in enumerate(grads):
                np.testing.assert_array_equal(gj, 0.5 if j == i else 1.0, err_msg=name)
            gi *= 2.0


def test_backward_hands_an_owned_leaf_gradient_over_without_a_copy():
    x = Tensor(rand(2, 1024, seed=43), requires_grad=True)
    w = Tensor(rand(1024, 1024, seed=44), requires_grad=True)   # 8 MiB
    with Tape() as tape:
        loss = sum_all(T.matmul(x, w))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the matmul's fresh gradient, and no second copy of it
    assert peak < 1.5 * w.data.nbytes, peak / w.data.nbytes
    np.testing.assert_allclose(w.grad, np.repeat(x.data.sum(axis=0)[:, None], 1024, axis=1),
                               rtol=1e-12)


def test_backward_hands_a_whole_view_gradient_over_without_a_copy():
    # conv2d's weight gradients (dense and depthwise) and a resized leaf's
    # gradient are views that cover their whole base: each leaf takes the
    # closure's array, where a copy would own its data
    rng = np.random.default_rng(45)
    dense, depthwise = nn.Conv2d(4, 6, rng), nn.Conv2d(4, 4, rng, groups=4)
    x = Tensor(rand(5, 7, 4, seed=46))
    pos = Tensor(rand(3, 3, 4, seed=47), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(dense(T.add(depthwise(x), T.bilinear_resize(pos, 5, 7))))
    tape.backward(loss)
    for name, g in (("dense", dense.weight.grad), ("depthwise", depthwise.weight.grad),
                    ("resize", pos.grad)):
        assert not g.flags.owndata and g.size == g.base.size, name


def test_a_second_tape_on_a_thread_raises_and_the_open_tape_keeps_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        with pytest.raises(RuntimeError, match="^a tape is already open on this thread$"):
            with Tape():
                pass
        T.mul(x, x)
    assert len(tape) == 1
    assert not T.mul(x, x).requires_grad

    # two interleaved generators on one thread: the second cannot open a tape
    # while the first holds one, and the first's keeps recording
    def square_on_a_tape():
        with Tape() as tape:
            yield tape
            T.mul(x, x)
            yield tape

    first, second = square_on_a_tape(), square_on_a_tape()
    tape = next(first)
    with pytest.raises(RuntimeError, match="^a tape is already open on this thread$"):
        next(second)
    next(first)
    assert len(tape) == 1
    first.close()                     # exits the tape
    assert not T.mul(x, x).requires_grad


def test_tape_holds_no_output_backward_does_not_read():
    # add, reshape and add_bias read nothing in backward, so once the caller
    # drops the intermediates only the last output is left (a tape pinning
    # every output retains 4x the array: the add and add_bias outputs)
    x = Tensor(np.ones((1024, 1024)), requires_grad=True)      # 8 MiB
    b = Tensor(np.ones(512), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            h = x
            for _ in range(2):
                h = T.add(h, x)
                h = T.reshape(h, (2048, 512))
                h = T.add_bias(h, b)
                h = T.reshape(h, (1024, 1024))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape) == 8
    assert retained < 3 * x.data.nbytes, retained / x.data.nbytes
    with tape:
        loss = sum_all(h)             # h = 3x + 2b
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full((1024, 1024), 3.0))
    np.testing.assert_array_equal(b.grad, np.full(512, 2 * 2048.0))


def test_fan_out_gradients_are_exact():
    # values on a 1/4 grid keep every sum exact, so the gradients compare bit for bit
    x = Tensor(np.arange(-6, 6).reshape(3, 4) / 4, requires_grad=True)
    y = Tensor(np.arange(12).reshape(3, 4) / 4, requires_grad=True)
    with Tape() as tape:
        h = T.scale(x, 2.0)                         # a non-leaf used by three ops
        a = T.add(T.mul(h, y), T.scale(h, 3.0))
        loss = sum_all(T.add(T.add(a, h), T.add(T.add(y, y), y)))   # y: three uses
        tape.backward(loss)
    # d/dh = y + 3 + 1 and h = 2x; d/dy = h + 3
    np.testing.assert_array_equal(x.grad, 2 * (y.data + 4))
    np.testing.assert_array_equal(y.grad, 2 * x.data + 3)


def test_backward_mutates_no_array_a_closure_returned(monkeypatch):
    returned = []
    record = Tape._record

    def spying_record(self, out, parents, backward):
        def spy(g):
            pgs = backward(g)
            returned.extend((pg, pg.copy()) for pg in pgs if pg is not None)
            return pgs
        record(self, out, parents, spy)

    monkeypatch.setattr(Tape, "_record", spying_record)
    x = Tensor(rand(2, 3, seed=42), requires_grad=True)
    with Tape() as tape:
        h = T.add(x, x)
        loss = sum_all(T.add(T.add(T.add(h, h), T.mul(h, x)), T.gelu(h)))
        tape.backward(loss)
    assert len(returned) == 13
    for pg, snapshot in returned:
        np.testing.assert_array_equal(pg, snapshot)


def test_closed_tape_tensor_is_a_leaf_of_the_next_tape():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with Tape() as first:
        h = T.scale(x, 3.0)
        h_sum = sum_all(h)
    with Tape() as second:
        loss = sum_all(T.mul(h, h))
    second.backward(loss)
    np.testing.assert_array_equal(h.grad, 2 * h.data)
    assert x.grad is None
    first.backward(h_sum)
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_second_backward_on_the_same_tape():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(T.mul(x, x))
    tape.backward(loss)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [8.0])
