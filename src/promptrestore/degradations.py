"""Procedural degradation renderers with (alpha, beta, gamma) parameters.

All renderers map float images [H,W,3] in [0,1] to the same range. beta is
the severity in [0,1] and beta = 0 renders as the exact identity (a copy) for
every kind: lowlight, haze, blur and rain by their own formulas (a scale by
1, a transmission of 1, a 1x1 kernel, no streaks), snow by returning a copy.
gamma is the per-kind feature parameter (blur angle, rain slant, haze blob
seed); alpha seeds the snow mask. Above beta = 0 the amount of snow does not
follow beta: alpha draws 15-39 flakes and the mask stops growing at 15% of
the image. Re-rendering with an identical spec is bit-identical, which the
ground-truth consistency checks rely on.

Cost: rain is one ordered scatter-add (np.add.at) of every streak sample's
four bilinear weights, in passes of at most _SPLAT_ENTRIES entries so the
temporaries do not grow with the image; snow flakes (and the scene discs of
dataset.generate_clean_image) are evaluated on their bounding boxes only.
Both give the same bits as rendering one primitive at a time over the whole
image: the scatter adds in the same (streak, sample, corner) order, and as
every weight is >= 0, clipping the sum at 1 equals clamping after each add;
outside its box a flake is 0 and a disc holds no pixel, so the box leaves
the rest of the image as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

KINDS = ("blur", "rain", "haze", "lowlight", "snow")   # canonical label order
RENDER_ORDER = ("haze", "rain", "snow", "blur", "lowlight")

BLUR_MAX_LEN = 14          # kernel length at beta = 1 is 1 + 14
RAIN_BASE_COUNT = 120      # streaks at beta = 1 on a 128x128 image
RAIN_BRIGHTNESS = 0.8
RAIN_ALPHA = 0.6
HAZE_AIRLIGHT = 0.9
HAZE_T_FLOOR = 0.25        # keeps scene content visible under any beta
LOWLIGHT_RETAIN = 0.85     # out = img * (1 - 0.85 * beta)
SNOW_COVERAGE_CAP = 0.15


@dataclass(frozen=True)
class DegradationSpec:
    kind: str
    alpha: int = 0
    beta: float = 0.0
    gamma: float = 0.0
    rng_stream: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown degradation kind {self.kind!r}")
        b = self.beta
        if isinstance(b, bool) or not isinstance(b, (int, float)) or not 0.0 <= b <= 1.0:
            raise ValueError(f"beta must be in [0,1], got {b!r}")
        # alpha, rng_stream and a haze gamma seed numpy generators, which take
        # only non-negative integers; blur and rain gammas are signed angles
        check_int("alpha", self.alpha, 0)
        check_int("rng_stream", self.rng_stream, 0)
        g = self.gamma
        if (isinstance(g, bool) or not isinstance(g, (int, float))
                or isinstance(g, float) and not math.isfinite(g)):
            raise ValueError(f"gamma must be a finite number, got {g!r}")
        if self.kind == "haze" and (isinstance(g, float) and not g.is_integer() or g < 0):
            raise ValueError(f"haze gamma (its blob seed) must be a non-negative "
                             f"whole number, got {g!r}")
        if self.kind in ("blur", "rain") and isinstance(g, int) and not -2**63 <= g < 2**63:
            raise ValueError(f"{self.kind} gamma (an angle) must fit in int64, got {g!r}")


def check_int(name: str, value, least: int) -> None:
    """The one rule for an integer field: value must be an int (not a bool or
    a NumPy integer) and >= least, else ValueError names the field."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def from_record(cls, record):
    """cls(**record) for a stored JSON record (a spec, a manifest line, a
    checkpoint config), so cls's own validation runs. A record that is not an
    object, or does not hold exactly cls's fields, raises ValueError naming
    cls and the missing and unknown keys: no field silently takes its default."""
    if not isinstance(record, dict):
        raise ValueError(f"{cls.__name__}: expected a JSON object, got {type(record).__name__}")
    keys = {f.name for f in fields(cls)}
    missing, unknown = sorted(keys - record.keys()), sorted(record.keys() - keys)
    if missing or unknown:
        raise ValueError(f"{cls.__name__}: missing keys {missing}, unknown keys {unknown}")
    return cls(**record)


def check_removal(present, removed) -> tuple[list[str], list[str]]:
    """The one rule for a removal request: present (the kinds in an image) and
    removed (those its prompt removes), each read once, returned in KINDS
    order. A bare str for either raises TypeError naming it; ValueError names
    unknown kinds; one other ValueError says a present kind repeats or removed
    is empty, repeats a kind or names one not present."""
    for name, kinds in (("present", present), ("removed", removed)):
        if isinstance(kinds, str):
            raise TypeError(f"{name} must be a list of kinds, got the str {kinds!r}")
    present, removed = list(present), list(removed)
    unknown = sorted(set(present).union(removed).difference(KINDS), key=str)
    if unknown:
        raise ValueError(f"unknown degradation kinds {unknown}; known: {list(KINDS)}")
    kinds, gone = set(present), set(removed)
    if len(kinds) < len(present) or not gone or len(gone) < len(removed) or not gone <= kinds:
        raise ValueError(f"removed {removed} must be distinct kinds, a non-empty subset "
                         f"of the distinct present kinds {present}")
    return [k for k in KINDS if k in kinds], [k for k in KINDS if k in gone]


def apply_lowlight(img: np.ndarray, beta: float) -> np.ndarray:
    """Uniform brightness reduction; retained fraction 1 - 0.85*beta."""
    return img * (1.0 - LOWLIGHT_RETAIN * beta)


def motion_kernel(length: int, angle_deg: float) -> np.ndarray:
    """Normalized linear motion kernel: `length` unit samples along the
    angle, bilinearly splatted. At axis-aligned angles this reduces to an
    exact 1/length line."""
    size = length if length % 2 else length + 1
    k = np.zeros((size, size))
    c = (size - 1) / 2.0
    ang = np.deg2rad(angle_deg)
    dy, dx = np.sin(ang), np.cos(ang)
    for t in range(length):
        off = t - (length - 1) / 2.0
        y, x = c + off * dy, c + off * dx
        y0, x0 = int(np.floor(y)), int(np.floor(x))
        fy, fx = y - y0, x - x0
        for iy, wy in ((y0, 1 - fy), (y0 + 1, fy)):
            for ix, wx in ((x0, 1 - fx), (x0 + 1, fx)):
                if 0 <= iy < size and 0 <= ix < size and wy * wx:
                    k[iy, ix] += wy * wx
    return k / k.sum()


def _convolve_edge(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # 2-d kernel over each channel, edge padding so constants stay constant
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(img, ((ph, ph), (pw, pw), (0, 0)), mode="edge")
    out = np.zeros_like(img)
    h, w = img.shape[:2]
    for i in range(kh):
        for j in range(kw):
            if kernel[i, j]:
                out += kernel[i, j] * xp[i:i + h, j:j + w]
    return out


def apply_blur(img: np.ndarray, beta: float, gamma: float) -> np.ndarray:
    """Linear motion blur; length 1 + round(beta*14) at angle gamma degrees."""
    length = 1 + round(beta * BLUR_MAX_LEN)
    return np.clip(_convolve_edge(img, motion_kernel(length, gamma)), 0.0, 1.0)


def apply_haze(img: np.ndarray, beta: float, gamma: int) -> np.ndarray:
    """Spatially varying haze: transmission 1 - beta*G clamped to >= 0.25,
    G a max-normalized sum of Gaussian blobs placed by the gamma seed."""
    h, w = img.shape[:2]
    rng = np.random.default_rng(int(gamma))
    n_blobs = int(rng.integers(3, 7))
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    field = np.zeros((h, w))
    for _ in range(n_blobs):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sigma = rng.uniform(0.15, 0.45) * min(h, w)
        field += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
    field /= field.max()
    t = np.clip(1.0 - beta * field, HAZE_T_FLOOR, 1.0)[:, :, None]
    return img * t + HAZE_AIRLIGHT * (1.0 - t)


def rain_streak_count(beta: float, shape) -> int:
    """round(beta * 120) scaled by image area relative to 128x128."""
    h, w = shape[:2]
    return round(beta * RAIN_BASE_COUNT * (h * w) / (128 * 128))


# bilinear entries (4 per line sample) scattered per pass, so that the
# temporaries of one pass stay small whatever the image size
_SPLAT_ENTRIES = 1 << 15


def _splat_lines(h: int, w: int, lines: np.ndarray, angle_deg) -> np.ndarray:
    """Sum of anti-aliased lines, clipped at 1: each row (y0, x0, length) of
    `lines` is sampled at max(2, int(2*length)) evenly spaced points (as
    np.linspace(0, length, k)), and each point splats its four bilinear
    weights, in (line, sample, corner) order, into an [H,W] mask."""
    ang = np.deg2rad(angle_deg)
    # rain falls vertically at slant gamma: direction (cos g, sin g) in (y, x)
    dy, dx = np.cos(ang), np.sin(ang)
    y0, x0, length = lines.T
    steps = np.maximum(2, (length * 2).astype(np.int64))
    spacing = length / (steps - 1)
    ends = np.cumsum(steps)              # one past each line's last sample
    total = int(steps.sum())
    mask = np.zeros(h * w)
    per_pass = max(1, _SPLAT_ENTRIES // 4)
    for lo in range(0, total, per_pass):
        j = np.arange(lo, min(lo + per_pass, total))
        line = np.searchsorted(ends, j, side="right")
        i = j - (ends[line] - steps[line])          # sample index on its line
        t = i * spacing[line]
        last = i == steps[line] - 1
        t[last] = length[line[last]]
        y = y0[line] + t * dy
        x = x0[line] + t * dx
        iy, ix = np.floor(y), np.floor(x)
        fy, fx = y - iy, x - ix
        rows = iy.astype(np.int64)[:, None] + (0, 0, 1, 1)
        cols = ix.astype(np.int64)[:, None] + (0, 1, 0, 1)
        weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx,
                            fy * (1 - fx), fy * fx], axis=1)
        keep = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
        np.add.at(mask, rows[keep] * w + cols[keep], weights[keep])
    # every weight is >= 0, so clipping the sum equals clamping every add
    return np.minimum(mask, 1.0, out=mask).reshape(h, w)


def apply_rain(img: np.ndarray, beta: float, gamma: float,
               rng_stream: int) -> np.ndarray:
    """Anti-aliased rain streaks at slant gamma (degrees off vertical)."""
    n = rain_streak_count(beta, img.shape)
    h, w = img.shape[:2]
    rng = np.random.default_rng(int(rng_stream))
    # per streak: y0 ~ U(-4, h-4), x0 ~ U(0, w), length ~ U(0.08, 0.16) * h;
    # lo + (hi - lo) * u is how Generator.uniform maps the same doubles
    lo = np.array([-4.0, 0.0, 0.08])
    hi = np.array([h - 4.0, float(w), 0.16])
    lines = lo + (hi - lo) * rng.random((n, 3))
    lines[:, 2] *= h
    mask = _splat_lines(h, w, lines, gamma)
    m = (RAIN_ALPHA * mask)[:, :, None]
    return img * (1.0 - m) + RAIN_BRIGHTNESS * m


def snow_mask(alpha: int, shape) -> np.ndarray:
    """Feathered elliptical flakes; mask mass capped at 15% of the image."""
    h, w = shape[:2]
    rng = np.random.default_rng(int(alpha))
    n_flakes = int(rng.integers(15, 40))
    yy, xx = np.arange(h, dtype=float), np.arange(w, dtype=float)
    mask = np.zeros((h, w))
    scale = min(h, w)
    for _ in range(n_flakes):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        ry = rng.uniform(0.02, 0.06) * scale
        rx = ry * rng.uniform(0.7, 1.3)
        # the flake is 0 wherever rho >= 1, so only its bounding box can grow
        # the mask (the extra pixel of margin covers rounding)
        rows = slice(max(0, int(cy - ry)), int(cy + ry) + 2)
        cols = slice(max(0, int(cx - rx)), int(cx + rx) + 2)
        rho = np.sqrt(((yy[rows, None] - cy) / ry) ** 2 + ((xx[None, cols] - cx) / rx) ** 2)
        flake = np.clip((1.0 - rho) / 0.35, 0.0, 1.0)
        before = mask[rows, cols].copy()
        np.maximum(before, flake, out=mask[rows, cols])
        if mask.mean() > SNOW_COVERAGE_CAP:   # the same sum as over a fresh array
            mask[rows, cols] = before
            break
    return mask


def apply_snow(img: np.ndarray, alpha: int, beta: float) -> np.ndarray:
    """Snow flakes from the alpha seed; beta = 0 is the identity."""
    if beta == 0.0:     # beta's only effect: the mask does not depend on it
        return img.copy()
    m = snow_mask(alpha, img.shape)[:, :, None]
    return img * (1.0 - m) + m


def apply_spec(img: np.ndarray, spec: DegradationSpec) -> np.ndarray:
    if spec.kind == "lowlight":
        return apply_lowlight(img, spec.beta)
    if spec.kind == "blur":
        return apply_blur(img, spec.beta, spec.gamma)
    if spec.kind == "haze":
        return apply_haze(img, spec.beta, int(spec.gamma))
    if spec.kind == "rain":
        return apply_rain(img, spec.beta, spec.gamma, spec.rng_stream)
    return apply_snow(img, spec.alpha, spec.beta)


def compose_sample(clean: np.ndarray, present_specs, removed_kinds):
    """Render the degraded image (all specs) and the ground truth (specs
    not being removed, identical parameter values) from clean [H,W,3], each in
    the order haze -> rain -> snow -> blur -> lowlight (RENDER_ORDER, which
    fixes ground-truth semantics), whatever the order of present_specs.
    check_removal checks the kinds, in the order given; any other shape of
    clean raises ValueError naming it, before any rendering.

    Both images are one array until the first removed kind; that shared
    prefix is rendered once, which gives the same bits as rendering each
    from the clean image. Neither output shares memory with clean.
    """
    if clean.ndim != 3 or clean.shape[2] != 3:
        raise ValueError(f"compose_sample: clean image must be [H,W,3], got shape {clean.shape}")
    specs = list(present_specs)
    _, removed = check_removal((s.kind for s in specs), removed_kinds)
    degraded = gt = clean
    for s in sorted(specs, key=lambda s: RENDER_ORDER.index(s.kind)):
        shared = gt is degraded
        degraded = apply_spec(degraded, s)
        if s.kind not in removed:
            gt = degraded if shared else apply_spec(gt, s)
    return degraded, clean.copy() if gt is clean else gt
