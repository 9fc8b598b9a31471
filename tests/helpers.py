"""Shared brute-force oracles for contract tests.

Everything here is deliberately written as plain loops / direct formulas so
it stays independent of the library code paths it checks.
"""

import numpy as np


def matmul_oracle(a, b):
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv2d_oracle(x, w, bias=None, stride=1, padding=0, groups=1):
    cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    xp = np.zeros((cin, h + 2 * padding, wd + 2 * padding))
    xp[:, padding:padding + h, padding:padding + wd] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((cout, ho, wo))
    cpg_out = cout // groups
    for o in range(cout):
        g = o // cpg_out
        for y in range(ho):
            for xx in range(wo):
                acc = 0.0
                for c in range(cg):
                    for i in range(kh):
                        for j in range(kw):
                            acc += w[o, c, i, j] * xp[g * cg + c, y * stride + i, xx * stride + j]
                out[o, y, xx] = acc
        if bias is not None:
            out[o] += bias[o]
    return out


def adaptive_pool_oracle(x, oh, ow):
    # x is channels-last [H,W,C]
    h, w, c = x.shape
    out = np.zeros((oh, ow, c))
    for i in range(oh):
        for j in range(ow):
            y0, y1 = (i * h) // oh, -(-(i + 1) * h // oh)
            x0, x1 = (j * w) // ow, -(-(j + 1) * w // ow)
            out[i, j] = x[y0:y1, x0:x1].mean(axis=(0, 1))
    return out


def softmax_oracle(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def attention_oracle(q, k, v):
    """Direct evaluation of softmax(q k^T / sqrt(d)) v."""
    d = q.shape[-1]
    logits = q @ k.T / np.sqrt(d)
    return softmax_oracle(logits, axis=-1) @ v
