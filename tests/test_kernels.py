"""Contract tests for the numpy kernels in promptrestore._kernels.

The depthwise kernels take and return channels-last [H,W,C] arrays. They
are checked against the brute-force convolution oracle and against
loop-form adjoints (all written for [C,H,W], so applied through transposes),
for both layouts tensor.conv2d hands them. Each layout is named by the
[C,H,W] argument conv2d receives: "chw", a contiguous [C,H,W] array, gives
the kernel a non-contiguous [H,W,C] view; "hwc_view", nn.Conv2d's transposed
view of a channels-last feature, gives it a contiguous [H,W,C] array. Row
blocks are checked in float64 and float32, and the kernels' bits must not
depend on the input's layout or memory offset. GELU is checked against its
closed form and its slope against central differences.
"""

import math

import numpy as np
import pytest

from promptrestore import _kernels
from promptrestore import tensor as T
from promptrestore.tensor import Tape, Tensor

from helpers import check_gradients, conv2d_oracle, sum_all

SHAPES = [(1, 1, 1), (1, 5, 2), (2, 3, 3), (6, 7, 5), (5, 1, 4)]    # [H,W,C]
LAYOUTS = ["chw", "hwc_view"]


def make(shape, seed, layout, dtype=np.float64):
    """An [H,W,C] array: a transposed contiguous [C,H,W] array, or contiguous."""
    h, w, c = shape
    r = np.random.default_rng(seed)
    if layout == "chw":
        return r.uniform(-1, 1, (c, h, w)).astype(dtype).transpose(1, 2, 0)
    return r.uniform(-1, 1, (h, w, c)).astype(dtype)


def weights(c, seed, dtype=np.float64):
    return np.random.default_rng(seed).uniform(-1, 1, (c, 3, 3)).astype(dtype)


def chw(a):
    return a.transpose(2, 0, 1)


def hwc(a):
    return a.transpose(1, 2, 0)


def grad_input_oracle(g, w):
    # scatter every output gradient back through the taps that produced it
    c, h, wd = g.shape
    gx = np.zeros((c, h, wd))
    for ch in range(c):
        for y in range(h):
            for x in range(wd):
                for i in range(3):
                    for j in range(3):
                        u, v = y + i - 1, x + j - 1
                        if 0 <= u < h and 0 <= v < wd:
                            gx[ch, u, v] += w[ch, i, j] * g[ch, y, x]
    return gx


def grad_weight_oracle(x, g):
    c, h, wd = x.shape
    gw = np.zeros((c, 3, 3))
    for ch in range(c):
        for i in range(3):
            for j in range(3):
                for y in range(h):
                    for xx in range(wd):
                        u, v = y + i - 1, xx + j - 1
                        if 0 <= u < h and 0 <= v < wd:
                            gw[ch, i, j] += g[ch, y, xx] * x[ch, u, v]
    return gw


# ---------------------------------------------------------------------------
# depthwise 3x3


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_depthwise3x3_vs_conv_oracle(shape, layout):
    c = shape[2]
    x, w = make(shape, 1, layout), weights(c, 2)
    xc, wc = x.copy(), w.copy()
    out = _kernels.depthwise3x3(x, w)
    ref = hwc(conv2d_oracle(chw(x), w[:, None], padding=1, groups=c))
    assert out.shape == shape
    assert np.abs(out - ref).max() <= 1e-12
    assert not np.may_share_memory(out, x)   # conv2d adds its bias in place
    np.testing.assert_array_equal(x, xc)
    np.testing.assert_array_equal(w, wc)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_depthwise3x3_grad_input_vs_adjoint(shape, layout):
    g, w = make(shape, 3, layout), weights(shape[2], 4)
    gx = _kernels.depthwise3x3_grad_input(g, w)
    assert gx.shape == shape
    assert np.abs(gx - hwc(grad_input_oracle(chw(g), w))).max() <= 1e-12


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_depthwise3x3_grad_weight_vs_loops(shape, layout):
    x, g = make(shape, 5, layout), make(shape, 6, layout)
    gw = _kernels.depthwise3x3_grad_weight(x, g)
    assert gw.shape == (shape[2], 3, 3)
    assert np.abs(gw - grad_weight_oracle(chw(x), chw(g))).max() <= 1e-12


def oracles(x, w, g):
    """The float64 oracles of the three depthwise kernels, in kernel order."""
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    return (hwc(conv2d_oracle(chw(x), w[:, None], padding=1, groups=x.shape[2])),
            hwc(grad_input_oracle(chw(g), w)), grad_weight_oracle(chw(x), chw(g)))


def run_kernels(x, w, g):
    return (_kernels.depthwise3x3(x, w), _kernels.depthwise3x3_grad_input(g, w),
            _kernels.depthwise3x3_grad_weight(x, g))


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_depthwise3x3_row_blocks(monkeypatch, rows):
    # blocks of `rows` rows, so 7 rows end in a partial block
    shape = (7, 5, 3)
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", rows * 5 * 3 * 8)
    x, w, g = make(shape, 7, "hwc_view"), weights(3, 8), make(shape, 14, "hwc_view")
    for got, ref in zip(run_kernels(x, w, g), oracles(x, w, g)):
        assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("layout", LAYOUTS)
def test_float32_row_blocks_match_the_float64_oracles(monkeypatch, layout):
    # 2-row blocks: 4 of them over 7 rows, the last one partial
    shape = (7, 5, 3)
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 2 * 5 * 3 * 4)
    x, g = make(shape, 15, layout, np.float32), make(shape, 16, layout, np.float32)
    w = weights(3, 17, np.float32)
    for got, ref in zip(run_kernels(x, w, g), oracles(x, w, g)):
        assert got.dtype == np.float32
        assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max()


def sequential_correlation(x, w):
    # the documented order: from zero, tap by tap in (i, j) order, each
    # product rounded before its add
    h, wd, c = x.shape
    xp = np.zeros((h + 2, wd + 2, c), dtype=x.dtype)
    xp[1:-1, 1:-1] = x
    out = np.zeros_like(xp[1:-1, 1:-1])
    for i in range(3):
        for j in range(3):
            out = out + xp[i:i + h, j:j + wd] * w[:, i, j]
    return out


def shifted(a, offset, layout):
    """a's values in the given layout, starting `offset` items into a buffer."""
    base = chw(a) if layout == "chw" else a
    buf = np.empty(base.size + offset, dtype=a.dtype)
    out = buf[offset:].reshape(base.shape)
    out[...] = base
    return hwc(out) if layout == "chw" else out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_depthwise_bits_do_not_depend_on_layout_or_memory_offset(monkeypatch, dtype):
    # 3-row blocks over 8 rows; the correlation is the sequential sum bit for bit
    shape = (8, 9, 6)
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 3 * 9 * 6 * np.dtype(dtype).itemsize)
    x0, g0 = make(shape, 18, "hwc_view", dtype), make(shape, 19, "hwc_view", dtype)
    w = weights(6, 20, dtype)
    want = (sequential_correlation(x0, w), sequential_correlation(g0, w[:, ::-1, ::-1]),
            _kernels.depthwise3x3_grad_weight(x0, g0))
    for layout in LAYOUTS:
        for offset in range(16):
            x, g = shifted(x0, offset, layout), shifted(g0, offset, layout)
            for got, ref in zip(run_kernels(x, w, g), want):
                np.testing.assert_array_equal(got, ref)


def test_kernels_keep_float32():
    x, g = make((4, 5, 3), 9, "hwc_view", np.float32), make((4, 5, 3), 10, "chw", np.float32)
    w = weights(3, 11, np.float32)
    assert _kernels.depthwise3x3(x, w).dtype == np.float32
    assert _kernels.depthwise3x3_grad_input(g, w).dtype == np.float32
    assert _kernels.depthwise3x3_grad_weight(x, g).dtype == np.float32
    y, dy = _kernels.gelu(x)
    assert y.dtype == np.float32 and dy.dtype == np.float32


# ---------------------------------------------------------------------------
# GELU


def gelu_closed_form(v):
    return 0.5 * v * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v ** 3)))


def test_gelu_vs_closed_form_and_central_difference():
    x = np.random.default_rng(12).uniform(-6, 6, (7, 9))
    x[0, :3] = [0.0, -30.0, 30.0]
    y, dy = _kernels.gelu(x)
    y_only, none = _kernels.gelu(x, False)
    assert none is None
    np.testing.assert_array_equal(y_only, y)
    h = 1e-6
    for idx in np.ndindex(x.shape):
        v = float(x[idx])
        assert abs(y[idx] - gelu_closed_form(v)) <= 1e-12
        fd = (gelu_closed_form(v + h) - gelu_closed_form(v - h)) / (2 * h)
        assert abs(dy[idx] - fd) <= 1e-8


def test_gelu_slope_only_when_taped(monkeypatch):
    asked = []
    real = _kernels.gelu

    def recorder(x, slope=True):
        asked.append(slope)
        return real(x, slope)

    monkeypatch.setattr(_kernels, "gelu", recorder)
    r = np.random.default_rng(13)
    leaf = Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True)
    const = Tensor(r.uniform(-2, 2, (3, 4)))
    T.gelu(leaf)                     # no tape
    with Tape():
        T.gelu(const)                # taped, but nothing to differentiate
    assert asked == [False, False]
    with Tape():
        y = T.gelu(leaf)
    assert asked[-1] is True and y.requires_grad
    check_gradients(lambda: sum_all(T.mul(T.gelu(leaf), const)), [leaf],
                    rtol=1e-6, max_per_tensor=12, rng=r)
