"""Hot inner loops: depthwise 3x3 convolution (stride 1, zero pad 1) and GELU.

One numpy implementation per kernel. The depthwise kernels take
channels-last [H,W,C] arrays (any strides) and return fresh contiguous
[H,W,C] arrays. No padded copy is made: each of the 9 taps accumulates a
shifted slice, a block of rows at a time. The contract tests compare every
kernel against an independent oracle.

All kernels are dtype-generic: they inherit the input array's dtype.
"""

from __future__ import annotations

import numpy as np

# there are no compiled kernels; perfbench's machine facts read this flag
_HAVE_NUMBA = False

_GELU_K = 0.7978845608028654  # sqrt(2/pi)
_GELU_C = 0.044715


# rows per pass of the forward correlation: a block this size stays in L2
# across all 9 taps instead of streaming the whole array from memory 9 times
_BLOCK_BYTES = 1 << 18


def _taps(h, w, c, r0=0, r1=None):
    """Yield (i, j, dst, src) for the off-centre taps of a zero-padded 3x3
    correlation on [H, W*C] rows, restricted to output rows r0:r1:
    out[dst] += x[src] * w[:, i, j]."""
    r1 = h if r1 is None else r1
    for i in range(3):
        for j in range(3):
            if i == 1 and j == 1:
                continue
            di, dj = i - 1, j - 1
            y0, y1 = max(r0, -di), min(r1, h - max(0, di))
            x0, x1 = max(0, -dj) * c, (w - max(0, dj)) * c
            if y0 < y1 and x0 < x1:
                yield i, j, (slice(y0, y1), slice(x0, x1)), \
                    (slice(y0 + di, y1 + di), slice(x0 + dj * c, x1 + dj * c))


def _correlate3x3(x, w):
    # out[y,x,c] = sum_ij w[c,i,j] * x[y+i-1, x+j-1, c]
    h, wd, c = x.shape
    x2 = x.reshape(h, wd * c)       # a copy only when x is a strided view
    # per-tap weights tiled along a row: wt[i, j, x*C + ch] = w[ch, i, j]
    wt = np.tile(w.astype(x.dtype, copy=False).transpose(1, 2, 0), (1, 1, wd))
    out = np.empty_like(x2)
    rows = max(1, _BLOCK_BYTES // max(1, x2[:1].nbytes))
    scratch = np.empty((min(rows, h), wd * c), dtype=x.dtype)
    for r0 in range(0, h, rows):
        r1 = min(h, r0 + rows)
        np.multiply(x2[r0:r1], wt[1, 1], out=out[r0:r1])
        for i, j, dst, src in _taps(h, wd, c, r0, r1):
            xs = x2[src]
            buf = scratch[:xs.shape[0], :xs.shape[1]]
            np.multiply(xs, wt[i, j, dst[1]], out=buf)
            out[dst] += buf
    return out.reshape(h, wd, c)


def depthwise3x3(x, w):
    """Depthwise 3x3 cross-correlation of x[H,W,C] with w[C,3,3]."""
    return _correlate3x3(x, w)


def depthwise3x3_grad_input(g, w):
    """Adjoint of depthwise3x3 in x: the correlation with the flipped kernel."""
    return _correlate3x3(g, w[:, ::-1, ::-1])


def depthwise3x3_grad_weight(x, g):
    """Gradient of depthwise3x3 in w: gw[c,i,j] = sum_yx g[y,x,c] x[y+i-1,x+j-1,c]."""
    h, wd, c = g.shape
    gw = np.zeros((c, 3, 3), dtype=g.dtype)
    gw[:, 1, 1] = np.einsum("hwc,hwc->c", g, x)
    for i, j, dst, src in _taps(h, wd, 1):
        gw[:, i, j] = np.einsum("hwc,hwc->c", g[dst], x[src])
    return gw


def gelu(x, slope=True):
    """tanh-approximate GELU; returns (y, dy/dx), with None for dy/dx when
    slope is False. All arithmetic is in place on at most three arrays."""
    p = np.multiply(x, x, out=np.empty_like(x))
    p *= _GELU_C
    p += 1.0
    p *= x
    p *= _GELU_K
    np.tanh(p, out=p)
    p += 1.0
    p *= 0.5                      # p = (1 + tanh(inner)) / 2
    if not slope:
        p *= x
        return p, None
    # dy/dx = p + 2 s p (1 - p), with s = x d(inner)/dx = K x (1 + 3 C x^2)
    s = x * x
    s *= 3 * _GELU_C
    s += 1.0
    s *= _GELU_K
    s *= x
    s *= 2.0
    s *= p
    y = p * x
    np.subtract(1.0, p, out=p)    # p now holds 1 - p
    s *= p
    s += 1.0
    s -= p
    return y, s
