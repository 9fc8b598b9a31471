"""Shared brute-force oracles and the gradient checker for contract tests.

The oracles are deliberately written as plain loops / direct formulas so
they stay independent of the library code paths they check.
"""

from typing import Callable, Optional, Sequence

import numpy as np

from promptrestore import tensor as T
from promptrestore.tensor import Tape, Tensor


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


# ---------------------------------------------------------------------------
# data-path loop forms: one primitive at a time over the whole image, as the
# renderers were first written. The array renderers must match them bit for
# bit (same floating-point operations in the same order).


def _splat_line(mask, y0, x0, length, angle_deg):
    h, w = mask.shape
    ang = np.deg2rad(angle_deg)
    # rain falls vertically at slant gamma: direction (cos g, sin g) in (y, x)
    dy, dx = np.cos(ang), np.sin(ang)
    steps = max(2, int(length * 2))
    for t in np.linspace(0.0, length, steps):
        y, x = y0 + t * dy, x0 + t * dx
        iy, ix = int(np.floor(y)), int(np.floor(x))
        fy, fx = y - iy, x - ix
        for yy, wy in ((iy, 1 - fy), (iy + 1, fy)):
            for xx, wx in ((ix, 1 - fx), (ix + 1, fx)):
                if 0 <= yy < h and 0 <= xx < w:
                    mask[yy, xx] = min(1.0, mask[yy, xx] + wy * wx)


def rain_oracle(img, beta, gamma, rng_stream, base_count=120, alpha=0.6, brightness=0.8):
    h, w = img.shape[:2]
    n = round(beta * base_count * (h * w) / (128 * 128))
    if n == 0:
        return img.copy()
    rng = np.random.default_rng(int(rng_stream))
    mask = np.zeros((h, w))
    for _ in range(n):
        y0 = rng.uniform(-4, h - 4)
        x0 = rng.uniform(0, w)
        length = rng.uniform(0.08, 0.16) * h
        _splat_line(mask, y0, x0, length, gamma)
    m = (alpha * mask)[:, :, None]
    return img * (1.0 - m) + brightness * m


def snow_mask_oracle(alpha, shape, cap):
    h, w = shape[:2]
    rng = np.random.default_rng(int(alpha))
    n_flakes = int(rng.integers(15, 40))
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    mask = np.zeros((h, w))
    scale = min(h, w)
    for _ in range(n_flakes):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        ry = rng.uniform(0.02, 0.06) * scale
        rx = ry * rng.uniform(0.7, 1.3)
        rho = np.sqrt(((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2)
        flake = np.clip((1.0 - rho) / 0.35, 0.0, 1.0)
        grown = np.maximum(mask, flake)
        if grown.mean() > cap:
            break
        mask = grown
    return mask


def clean_image_oracle(rng, size):
    yy, xx = np.mgrid[0:size, 0:size].astype(float) / size
    c0 = rng.uniform(0.15, 0.85, 3)
    c1 = rng.uniform(0.15, 0.85, 3)
    axis = yy if rng.random() < 0.5 else xx
    img = c0 + (c1 - c0) * axis[:, :, None]
    for _ in range(int(rng.integers(3, 8))):
        color = rng.uniform(0.1, 0.9, 3)
        if rng.random() < 0.5:
            y0, x0 = rng.integers(0, size, 2)
            hh, ww = rng.integers(size // 8, size // 2, 2)
            img[y0:y0 + hh, x0:x0 + ww] = color
        else:
            cy, cx = rng.uniform(0, size, 2)
            r = rng.uniform(size / 12, size / 4)
            inside = (yy * size - cy) ** 2 + (xx * size - cx) ** 2 < r * r
            img[inside] = color
    img = np.clip(img, 0.0, 1.0)
    mean = img.mean()
    if mean < 0.35:
        img = np.clip(img + (0.35 - mean), 0.0, 1.0)
    return img


# ---------------------------------------------------------------------------
# central-difference gradient checking against the tape


def sum_all(x: Tensor) -> Tensor:
    """The gradient tests' scalar loss: the sum of x, as its mean scaled back
    up, so that gradients do not shrink toward check_gradients' atol."""
    return T.scale(T.mean_all(x), x.size)


def numeric_grad(f: Callable[[], float], x: Tensor, index: int,
                 h: float = 1e-5) -> float:
    """d f / d x.flat[index] by central differences, restoring x afterwards."""
    flat = x.data.reshape(-1)
    orig = flat[index]
    flat[index] = orig + h
    fp = f()
    flat[index] = orig - h
    fm = f()
    flat[index] = orig
    return (fp - fm) / (2.0 * h)


def check_gradients(build_loss: Callable[[], Tensor], params: Sequence[Tensor],
                    h: float = 1e-5, rtol: float = 1e-4, atol: float = 1e-8,
                    max_per_tensor: int = 4,
                    rng: Optional[np.random.Generator] = None) -> float:
    """Compare tape gradients of a scalar loss against central differences.

    Samples up to max_per_tensor coordinates of every tensor in params.
    Passes when |ad - fd| <= atol + rtol * |fd| per coordinate. Returns the
    worst relative error seen; raises AssertionError on failure.
    """
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.requires_grad = True
        p.grad = None
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    def f():
        return float(build_loss().data)

    worst = 0.0
    for p, ad in zip(params, analytic):
        n = p.size
        k = min(max_per_tensor, n)
        idx = rng.choice(n, size=k, replace=False) if n > k else np.arange(n)
        for i in idx:
            fd = numeric_grad(f, p, int(i), h=h)
            a = ad.reshape(-1)[i]
            err = abs(a - fd)
            rel = err / max(abs(a), abs(fd), 1e-12)
            if err > atol + rtol * abs(fd):
                raise AssertionError(
                    f"gradient mismatch at tensor shape {p.shape} index {i}: "
                    f"analytic {a:.10g} vs numeric {fd:.10g} (rel {rel:.3g})")
            if err > atol:
                worst = max(worst, rel)
    return worst
