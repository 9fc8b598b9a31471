"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

The op set is what the restoration model needs: matmul (a linear map of the
last axis, or batched), conv2d (3x3, dense or depthwise), softmax, layer norm,
pixel shuffle / unshuffle, adaptive average pooling, bilinear resize, embedding
lookup, gated_gelu (gelu(a) * b, the gated FFN's gate, as one op that
holds only a and b for backward) and a small elementwise suite, plus mul,
sub, exp, log, absolute and mean_all, which the model does not call: the
library has no loss, and perfbench's train_64 L1 + BCE loss and
tools/numcheck.py build theirs from them. Forward ops never mutate their
inputs; gradients are recorded on an explicit Tape, one open tape per
thread, and replayed in reverse.

What a tape holds: per taped op, its backward closure and a reference to
each parent that needs a gradient, with the parent's dtype, nothing else. A
parent made on the same tape is referred to by its node's index, any other
(a leaf, or a tensor made on an earlier tape) by the Tensor itself. Op
outputs are not held: an activation lives as long as the caller keeps it or
a closure that reads it in backward, and each closure captures only the
arrays its backward reads. What backward keeps: from a loss the tape
recorded, one table from a node index or a leaf Tensor to its gradient so
far, a plain array that a later contribution replaces with a fresh sum, so
backward writes into no array. A node's entry is dropped when the walk
reaches it. A leaf's entry becomes its .grad without a copy when the array
covers its whole base and no other leaf took that base, is copied
otherwise, and is added into a .grad the leaf already has; either way a
leaf's .grad is an array no other leaf or op holds (Tape.backward states
the rule every op's backward keeps for this).

Non-finite checks: with checks on (the default; see no_nan_checks) every op
scans its output for NaN/Inf in `_finish` and raises NonFiniteError, except
reshape and transpose: a view holds its input's values, and the first
computing op on it scans them. The scan is one dot product of the output
with itself, which is NaN or inf when any value is, and allocates nothing;
only when that is not finite does an exact elementwise test decide, so
finite values whose squares overflow do not raise.

Dtypes: a Tensor holds a float32 or float64 array; anything else is cast
to DTYPE (float64). An op allocates in its inputs' dtype, and scalars are
Python floats, which never upcast (NEP 50), so a float32 model runs in
float32 end to end. An op that mixes dtypes computes in the wider one, and
the tape hands each parent its gradient in that parent's dtype: a float64
loss target leaves a float32 model's gradients float32.

Layout conventions:
  * op outputs are row-major, except conv2d's
  * every image op is channels-last [H,W,C] (pixel shuffle / unshuffle,
    adaptive pooling, bilinear resize, the _kernels depthwise kernels).
    conv2d is the only op that takes [C,H,W]: it transposes to [H,W,C]
    once, computes there and returns a [C,H,W] view of the fresh result, so
    nn.Conv2d, its one caller, transposes to and from it with free views
  * pixel_unshuffle packs sub-pixels row-major: output [y, x, c*r*r + i*r + j]
    holds input pixel [y*r + i, x*r + j, c]
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels

DTYPE = np.float64          # what a Tensor casts any non-float32/64 data to
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
_LN_EPS = 1e-6  # inside layer_norm's sqrt denominator


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested op."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN/Inf while non-finite checks were enabled."""


class _State(threading.local):
    # per-thread: the open tape, if any, and the switch no_nan_checks flips;
    # each thread starts with no tape and checks on
    def __init__(self):
        self.tape: Optional[Tape] = None
        self.nan_checks = True


_state = _State()


@contextlib.contextmanager
def no_nan_checks():
    """Context manager that disables non-finite output detection in its block.

    Checks are on by default, the debug/test behaviour: any op but a view
    (reshape, transpose) whose output contains NaN/Inf raises
    NonFiniteError. Inside the block NaN/Inf propagate silently (release
    behaviour for long training runs). The switch is per thread.
    """
    prev, _state.nan_checks = _state.nan_checks, False
    try:
        yield
    finally:
        _state.nan_checks = prev


class Tensor:
    """A dense float32 or float64 array that can participate in gradient
    recording. A float32 or float64 array is kept as given (no copy); other
    data (ints, lists, float16) is cast to DTYPE.

    A taped op's output records the tape and node index that made it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        self.data = arr if arr.dtype in _FLOATS else arr.astype(DTYPE)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional[Tape] = None
        self._node = -1

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of ops for one backward pass.

    A node is (parent refs, parent dtypes, backward closure). A parent ref
    is the index of the node that made the parent when this tape made it,
    else the parent Tensor itself (a leaf, or a tensor made on an earlier
    tape), or None when the parent needs no gradient. The tape holds no op
    output, so an activation no closure reads is freed once the caller
    drops it.

    Nodes are appended in construction order, which is topological by
    definition (an op's inputs exist before the op). backward() walks the
    list once in reverse from a loss this tape recorded, and may be called
    again. A Tape is single-owner; there is one open tape per thread
    (entering a second raises RuntimeError), and threads do not interact.
    """

    def __init__(self):
        self._nodes: list[tuple[tuple, tuple, Callable]] = []

    def __enter__(self) -> "Tape":
        if _state.tape is not None:
            raise RuntimeError("a tape is already open on this thread")
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, out: Tensor, parents, backward) -> None:
        refs = tuple(p._node if p._tape is self else p if p.requires_grad else None
                     for p in parents)
        out._tape, out._node = self, len(self._nodes)
        self._nodes.append((refs, tuple(p.data.dtype for p in parents), backward))

    def backward(self, loss: Tensor) -> None:
        """Populate .grad of every requires_grad leaf reachable from loss.

        loss must be a scalar this tape recorded, else ValueError. Grads
        accumulate into leaves, so calling backward for several losses (e.g.
        per-sample in a batch) sums their gradients. The walk writes into no
        array: a second contribution allocates the sum. The tape hands each
        parent its gradient in that parent's dtype: a mixed-dtype op's
        closure returns the wider one, cast on the edge. Each leaf's .grad is
        memory the leaf alone holds: a leaf with no .grad takes its table
        array itself when that array covers its whole base (it owns its
        data, or is a view of every element of the array that does) and no
        other leaf took that base, else a copy (a slice such as np.split
        hands out, or the one array add hands both its parents); a leaf with
        a .grad gets a fresh sum.

        Handing the table's arrays over is sound because, after the walk,
        the table is the only holder of their bases (an edge's cast returns
        the array itself or a fresh one). Every op must keep the rule that
        makes this so: a backward closure keeps no gradient, and returns
        arrays derived from its g (g itself, a view of it, or a result
        computed from it) or fresh ones, never an array something else holds
        or a view of one, such as an input's data or an array the closure
        captured.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise ValueError("backward needs a loss recorded on this tape")
        # a node index (a tensor made on this tape) or a leaf Tensor -> its
        # gradient so far; after the walk only leaf entries remain
        table: dict = {loss._node: np.ones_like(loss.data)}
        for i in range(len(self._nodes) - 1, -1, -1):
            if i not in table:
                continue
            g = table.pop(i)
            refs, dtypes, backward = self._nodes[i]
            for ref, dtype, pg in zip(refs, dtypes, backward(g)):
                if ref is not None:
                    pg = pg.astype(dtype, copy=False)
                    table[ref] = pg if ref not in table else table[ref] + pg
        taken = set()       # ids of the bases a leaf took as (a view of) its .grad
        for leaf, g in table.items():
            assert g.shape == leaf.data.shape
            base = g if g.base is None else g.base
            if leaf.grad is not None:
                leaf.grad = leaf.grad + g
            elif g.size == base.size and id(base) not in taken:
                taken.add(id(base))
                leaf.grad = g
            else:
                leaf.grad = g.copy()


def _taped(parents: Sequence[Tensor]) -> Optional[Tape]:
    # the tape an op on parents records on, or None when it is not recorded
    return _state.tape if any(p.requires_grad for p in parents) else None


def _finite(a: np.ndarray) -> bool:
    # one pass that allocates nothing: a sum of squares is NaN or inf when any
    # value is; only then (or when finite squares overflow) does the exact
    # elementwise test run. ravel(order="K") is a view of every op output
    flat = a.ravel(order="K")
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.dot(flat, flat)
    return bool(np.isfinite(sq)) or bool(np.isfinite(a).all())


def _finish(out_data: np.ndarray, parents: Sequence[Tensor], backward: Callable,
            opname: str, scan: bool = True) -> Tensor:
    # scan is False only for views (reshape, transpose)
    if scan and _state.nan_checks and not _finite(out_data):
        raise NonFiniteError(f"{opname} produced non-finite values")
    out = Tensor(out_data)
    tape = _taped(parents)
    if tape is not None:
        out.requires_grad = True
        tape._record(out, tuple(parents), backward)
    return out


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")
    return _finish(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} vs {b.shape}")
    return _finish(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _finish(ad * bd, (a, b), lambda g: (g * bd, g * ad), "mul")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _finish(x.data * c, (x,), lambda g: (g * c,), "scale")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x + b with b broadcast over x's leading axes (b matches trailing dims)."""
    if x.shape[x.ndim - b.ndim:] != b.shape:
        raise ShapeError(f"add_bias: trailing dims {x.shape} vs {b.shape}")
    lead = tuple(range(x.ndim - b.ndim))
    return _finish(x.data + b.data, (x, b),
                   lambda g: (g, g.sum(axis=lead)), "add_bias")


def gated_gelu(a: Tensor, b: Tensor) -> Tensor:
    """gelu(a) * b, the gate of the gated FFN, as one op. Backward
    recomputes gelu(a) and its slope from a, so a taped call holds a's and
    b's data (in the wider dtype) and no third array. Values and gradients
    are bit-equal to mul(gelu(a), b) with both inputs in the wider dtype."""
    if a.shape != b.shape:
        raise ShapeError(f"gated_gelu: shapes {a.shape} vs {b.shape}")
    dt = np.result_type(a.data, b.data)
    ad, bd = a.data.astype(dt, copy=False), b.data.astype(dt, copy=False)
    y = _kernels.gelu(ad, False)[0]
    out = np.multiply(y, bd, out=y)

    def backward(g):
        y, slope = _kernels.gelu(ad, True)
        return (g * bd) * slope, g * y

    return _finish(out, (a, b), backward, "gated_gelu")


def gelu(x: Tensor) -> Tensor:
    # tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)));
    # the slope is computed only when _finish will record the op
    out, slope = _kernels.gelu(x.data, _taped((x,)) is not None)
    return _finish(out, (x,), lambda g: (g * slope,), "gelu")


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    return _finish(y, (x,), lambda g: (g * y,), "exp")


def log(x: Tensor) -> Tensor:
    xd = x.data
    return _finish(np.log(xd), (x,), lambda g: (g / xd,), "log")


def absolute(x: Tensor) -> Tensor:
    xd = x.data
    return _finish(np.abs(xd), (x,), lambda g: (g * np.sign(xd),), "abs")


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    shape = x.shape
    return _finish(np.asarray(x.data.mean()), (x,),
                   lambda g: (np.broadcast_to(g / n, shape).copy(),), "mean")


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape
    out = x.data.reshape(shape)
    return _finish(out, (x,), lambda g: (g.reshape(old),), "reshape", scan=False)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    # a view; ops that need contiguity make their own copies
    return _finish(x.data.transpose(axes), (x,),
                   lambda g: (g.transpose(inv),), "transpose", scan=False)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _finish(out, tuple(tensors), backward, "concat")


# ---------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b. With a 2-d b this is a[..., k] @ b[k, n], a linear map of a's
    last axis whose leading axes fold into one GEMM; otherwise both operands
    are stacked 3-d+ with equal batch dims."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError("matmul needs >= 2-d operands")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dims {ad.shape} vs {bd.shape}")
    if bd.ndim == 2:
        a_shape = ad.shape
        a2 = ad.reshape(-1, a_shape[-1])
        out = np.matmul(a2, bd).reshape(*a_shape[:-1], bd.shape[1])

        def backward(g):
            g2 = g.reshape(-1, bd.shape[1])
            return np.matmul(g2, bd.T).reshape(a_shape), np.matmul(a2.T, g2)

        return _finish(out, (a, b), backward, "matmul")
    if ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul: batch dims {ad.shape} vs {bd.shape}")
    out = np.matmul(ad, bd)

    def backward(g):
        ga = np.matmul(g, bd.swapaxes(-1, -2))
        gb = np.matmul(ad.swapaxes(-1, -2), g)
        return ga, gb

    return _finish(out, (a, b), backward, "matmul")


# ---------------------------------------------------------------------------
# softmax / layer norm


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    xd = x.data
    y = xd - xd.max(axis=axis, keepdims=True)   # the one output array
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _finish(y, (x,), backward, "softmax")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    gamma/beta are 1-d with the normalized extent. eps = 1e-6 sits inside
    the sqrt denominator.
    """
    gd = gamma.data
    xd = x.data.astype(np.result_type(x.data, gd, beta.data), copy=False)   # the widest dtype
    n = xd.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError("layer_norm: gamma/beta must match normalized extent")
    # the row mean is a GEMV against a 1/n vector, the variance a row-wise dot
    # of the centred rows; at most two arrays of x's size: xhat, and out only
    # when the op is taped (backward reads xhat), else xhat becomes out in place
    taped = _taped((x, gamma, beta)) is not None
    x2 = xd.reshape(-1, n)
    xhat = x2 - (x2 @ np.full(n, 1.0 / n, dtype=x2.dtype))[:, None]
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / n + _LN_EPS)[:, None]
    xhat *= inv
    out = xhat * gd if taped else np.multiply(xhat, gd, out=xhat)
    out += beta.data
    xhat = xhat.reshape(xd.shape)
    inv = inv.reshape(*xd.shape[:-1], 1)

    def backward(g):
        gxh = g * gd
        s1 = gxh.sum(axis=-1, keepdims=True)
        s2 = (gxh * xhat).sum(axis=-1, keepdims=True)
        dx = (gxh - s1 / n - xhat * s2 / n) * inv
        red = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=red)
        dbeta = g.sum(axis=red)
        return dx, dgamma, dbeta

    return _finish(out.reshape(xd.shape), (x, gamma, beta), backward, "layer_norm")


# ---------------------------------------------------------------------------
# convolution


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, groups: int = 1) -> Tensor:
    """3x3 cross-correlation of x[C_in,H,W] with w[C_out,C_in/groups,3,3],
    zero padding 1, plus bias[C_out]: out[C_out, (H-1)//stride+1, (W-1)//stride+1].

    The shapes choose one of the model's two convs: depthwise (groups == C_in
    == C_out, stride 1) runs the _kernels kernels; dense (groups == 1) sums
    one GEMM per tap of strided windows of the padded input. Both compute
    channels-last and return a [C,H,W] view of a fresh [H,W,C] array. Any
    other kernel size or grouping raises ShapeError.
    """
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d: needs a 3-d x and a 4-d w, got x {x.shape} and w {w.shape}")
    cin, h, wdt = x.shape
    cout, cg, kh, kw = w.shape
    dense = groups == 1 and cg == cin
    if (kh, kw) != (3, 3) or not (dense or groups == cin == cout and cg == 1 and stride == 1):
        raise ShapeError(f"conv2d: w {w.shape} on x {x.shape} with stride={stride}, groups="
                         f"{groups} is neither a dense nor a stride-1 depthwise 3x3 conv")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape}, expected ({cout},)")
    # a mixed call computes in the widest dtype; each cast is a no-op when the
    # dtypes match, so the transpose of nn.Conv2d's transposed input is free
    dt = np.result_type(x.data, w.data, bias.data)
    xh, wd = x.data.astype(dt, copy=False).transpose(1, 2, 0), w.data.astype(dt, copy=False)
    # each path's backward captures only what it reads: the padded copy on
    # the dense path, the input view on the depthwise one
    if dense:
        ho, wo = (h - 1) // stride + 1, (wdt - 1) // stride + 1
        xp = np.zeros((h + 2, wdt + 2, cin), dtype=xh.dtype)
        xp[1:-1, 1:-1] = xh
        # tap t = 3i + j reads the padded input at rows i::stride, cols j::stride
        wins = [(slice(i, i + (ho - 1) * stride + 1, stride),
                 slice(j, j + (wo - 1) * stride + 1, stride))
                for i in range(3) for j in range(3)]
        wt = wd.transpose(2, 3, 1, 0).reshape(9, cin, cout)  # a copy, per tap contiguous
        out = np.zeros((ho, wo, cout), dtype=xh.dtype)
        buf = np.empty_like(out)
        for t, win in enumerate(wins):
            out += np.matmul(xp[win], wt[t], out=buf)

        def backward(g):
            gh = g.transpose(1, 2, 0)
            gwt, gxp = np.empty_like(wt), np.zeros_like(xp)
            for t, win in enumerate(wins):
                # window^T g per output row, summed over the rows
                gwt[t] = np.matmul(xp[win].transpose(0, 2, 1), gh).sum(axis=0)
                # the tap's input gradient, scattered onto the positions it read
                gxp[win] += np.matmul(gh, wt[t].T)
            gw = gwt.reshape(3, 3, cin, cout).transpose(3, 2, 0, 1)
            return gxp[1:-1, 1:-1].transpose(2, 0, 1), gw, g.sum(axis=(1, 2))
    else:
        wk, w_shape = wd.reshape(cin, 3, 3), w.shape
        out = _kernels.depthwise3x3(xh, wk)

        def backward(g):
            gh = g.transpose(1, 2, 0)
            gxh = _kernels.depthwise3x3_grad_input(gh, wk)
            gw = _kernels.depthwise3x3_grad_weight(xh, gh).reshape(w_shape)
            return gxh.transpose(2, 0, 1), gw, g.sum(axis=(1, 2))
    out += bias.data                    # out is a fresh array on both paths

    return _finish(out.transpose(2, 0, 1), (x, w, bias), backward, "conv2d")


# ---------------------------------------------------------------------------
# pixel shuffle


def _unshuffle(a: np.ndarray, r: int) -> np.ndarray:
    # [H,W,C] -> [H/r,W/r,C*r*r]: (y*r+i, x*r+j, c) lands at (y, x, c*r*r+i*r+j)
    h, w, c = a.shape
    return a.reshape(h // r, r, w // r, r, c).transpose(0, 2, 4, 1, 3) \
        .reshape(h // r, w // r, c * r * r)


def _shuffle(a: np.ndarray, r: int) -> np.ndarray:
    # [H,W,C*r*r] -> [H*r,W*r,C], the inverse of _unshuffle
    h, w, crr = a.shape
    c = crr // (r * r)
    return a.reshape(h, w, c, r, r).transpose(0, 3, 1, 4, 2).reshape(h * r, w * r, c)


def _hwc(x: Tensor, opname: str) -> tuple[int, int, int]:
    if x.ndim != 3:
        raise ShapeError(f"{opname}: needs a 3-d [H,W,C] input, got shape {x.shape}")
    return x.shape


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """[H,W,C] -> [H/r,W/r,C*r*r]; sub-pixel (i,j) of c lands at c*r*r+i*r+j."""
    h, w, _ = _hwc(x, "pixel_unshuffle")
    if h % r or w % r:
        raise ShapeError(f"pixel_unshuffle: {h}x{w} not divisible by r={r}")
    return _finish(np.ascontiguousarray(_unshuffle(x.data, r)), (x,),
                   lambda g: (_shuffle(g, r),), "pixel_unshuffle")


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """[H,W,C*r*r] -> [H*r,W*r,C]; exact inverse of pixel_unshuffle."""
    crr = _hwc(x, "pixel_shuffle")[2]
    if crr % (r * r):
        raise ShapeError(f"pixel_shuffle: {crr} channels not divisible by r^2={r * r}")
    return _finish(np.ascontiguousarray(_shuffle(x.data, r)), (x,),
                   lambda g: (_unshuffle(g, r),), "pixel_shuffle")


# ---------------------------------------------------------------------------
# pooling / resize (both are linear maps realized as row/col matrix sandwiches)


@functools.cache
def _pool_matrix(n_in: int, n_out: int, dtype: np.dtype) -> np.ndarray:
    m = np.zeros((n_out, n_in), dtype=dtype)
    for i in range(n_out):
        lo = (i * n_in) // n_out
        hi = -(-(i + 1) * n_in // n_out)  # ceil
        m[i, lo:hi] = 1.0 / (hi - lo)
    return m


@functools.cache
def _resize_matrix(n_in: int, n_out: int, dtype: np.dtype) -> np.ndarray:
    # bilinear weights, align_corners convention (endpoints map to endpoints)
    m = np.zeros((n_out, n_in), dtype=dtype)
    pos = np.arange(n_out) * (n_in - 1) / max(n_out - 1, 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    for i in range(n_out):
        m[i, lo[i]] += 1.0 - frac[i]
        m[i, hi[i]] += frac[i]
    return m


# rows first, then cols: the path optimize=True picks, forward and backward,
# at every pool and resize shape of the presets, given so no call searches
_SANDWICH_PATH = ["einsum_path", (0, 2), (0, 1)]


def _sandwich(x: Tensor, matrix: Callable, out_h: int, out_w: int, opname: str) -> Tensor:
    # out[i,j,c] = sum_hw rows[i,h] cols[j,w] x[h,w,c], rows and cols cached per
    # (n_in, n_out, dtype) and built in x's dtype; backward is its adjoint
    h, w, _ = _hwc(x, opname)
    rows, cols = matrix(h, out_h, x.data.dtype), matrix(w, out_w, x.data.dtype)
    out = np.einsum("ih,jw,hwc->ijc", rows, cols, x.data, optimize=_SANDWICH_PATH)

    def backward(g):
        return (np.einsum("ih,jw,ijc->hwc", rows, cols, g, optimize=_SANDWICH_PATH),)

    return _finish(out, (x,), backward, opname)


def adaptive_avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Mean-pool x[H,W,C] onto an out_h x out_w grid (floor/ceil windows)."""
    h, w, _ = _hwc(x, "adaptive_avg_pool")
    if out_h > h or out_w > w:
        raise ShapeError(f"adaptive_avg_pool: output {out_h}x{out_w} exceeds input {h}x{w}")
    return _sandwich(x, _pool_matrix, out_h, out_w, "adaptive_avg_pool")


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinearly resize x[H,W,C] to [out_h,out_w,C] (align-corners)."""
    return _sandwich(x, _resize_matrix, out_h, out_w, "bilinear_resize")


# ---------------------------------------------------------------------------
# embedding


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: weight[V,E] gathered at integer ids -> [len(ids), E]."""
    ids = np.asarray(ids, dtype=np.int64)
    v = weight.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise IndexError(f"embedding: id out of range 0..{v - 1}")
    out = weight.data[ids]
    w_shape, dtype = weight.shape, weight.data.dtype

    def backward(g):
        gw = np.zeros(w_shape, dtype=dtype)
        np.add.at(gw, ids, g)
        return (gw,)

    return _finish(out, (weight,), backward, "embedding")
