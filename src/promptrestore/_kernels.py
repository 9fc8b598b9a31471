"""Hot inner loops: depthwise 3x3 convolution (stride 1, zero pad 1) and GELU.

One numpy implementation per kernel. The depthwise kernels take
channels-last [H,W,C] arrays (any strides) and return fresh contiguous
[H,W,C] arrays. They walk the input a block of rows at a time: each block
and its two halo rows are copied into one reused zero-padded scratch, and
a single einsum over a strided view of its 9 taps sums the block. Each
output of the correlation is summed from zero, tap by tap in (i, j) order,
each product rounded before its add (no FMA), so its bits are those of
the sequential sum whatever the input's layout or memory offset. The
contract tests compare every kernel against an independent oracle.

All kernels are dtype-generic: they inherit the input array's dtype.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

# there are no compiled kernels; perfbench's machine facts read this flag
_HAVE_NUMBA = False

_GELU_K = 0.7978845608028654  # sqrt(2/pi)
_GELU_C = 0.044715


# rows per block: a block's padded copy stays in L2 across all 9 taps
# instead of streaming the whole array from memory 9 times
_BLOCK_BYTES = 1 << 18


def _row_blocks(x):
    """Walk x[H,W,C] in row blocks; yield (r0, r1, taps), taps a read-only
    [3, 3, r1-r0, W*C] view with taps[i, j, y, u*C + ch] = x[r0+y+i-1, u+j-1, ch]
    (zero outside x). Each block and its two halo rows are copied into one
    reused zero-padded scratch, so a view is valid until the next yield."""
    h, wd, c = x.shape
    rows = max(1, min(h, _BLOCK_BYTES // max(1, wd * c * x.itemsize)))
    pad = np.zeros((rows + 2, (wd + 2) * c), dtype=x.dtype)
    body = pad[:, c:(wd + 1) * c].reshape(rows + 2, wd, c)   # pad row p holds x row r0-1+p
    s0, s1 = pad.strides
    for r0 in range(0, h, rows):
        r1 = min(h, r0 + rows)
        lo, hi = max(0, r0 - 1), min(h, r1 + 1)
        body[lo - r0 + 1:hi - r0 + 1] = x[lo:hi]
        if hi == r1:                    # below the last row: zero, not a stale row
            body[r1 - r0 + 1] = 0
        yield r0, r1, as_strided(pad, (3, 3, r1 - r0, wd * c), (s0, c * s1, s0, s1),
                                 writeable=False)


def _correlate3x3(x, w):
    # out[y,x,c] = sum_ij w[c,i,j] * x[y+i-1, x+j-1, c]
    h, wd, c = x.shape
    # per-tap weights tiled along a row: wt[i, j, x*C + ch] = w[ch, i, j]
    wt = np.tile(w.astype(x.dtype, copy=False).transpose(1, 2, 0), (1, 1, wd))
    out = np.empty((h, wd * c), dtype=x.dtype)
    for r0, r1, taps in _row_blocks(x):
        np.einsum("ijhk,ijk->hk", taps, wt, out=out[r0:r1])
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
    g = np.ascontiguousarray(g)         # else the einsum's sum order follows g's strides
    # rows and columns are summed inside the einsum: no [3,3,W*C] partial sums
    gw = np.zeros((3, 3, c), dtype=g.dtype)
    for r0, r1, taps in _row_blocks(x):
        gw += np.einsum("ijhwc,hwc->ijc", taps.reshape(3, 3, r1 - r0, wd, c), g[r0:r1])
    return gw.transpose(2, 0, 1)


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
