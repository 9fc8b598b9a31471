"""Dataset synthesis: clean scenes, degradation sampling, prompts, manifests.

Every sample is reproducible from (seed, sample id): the per-sample RNG is
np.random.default_rng((seed, sample_id)) and each stochastic degradation
carries its seed in its spec (rain's rng_stream, snow's alpha, haze's gamma),
so regenerating a dataset or re-rendering one ground truth is byte-identical
regardless of order or parallelism.

Images are stored as binary PPM (P6, maxval 255); the manifest is UTF-8
JSON lines, one record per line. A line holds only the sample's id, its
degradation specs, the kinds its prompt removes and its split; the present
kinds, both prompts and the three image paths are derived from those (see
SampleRecord).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .degradations import (KINDS, DegradationSpec, check_int, check_removal, compose_sample,
                           from_record)

SPLITS = ("train", "val", "test")
CATEGORIES = ("1-1", "2-1", "2-2", "3-1", "3-2", "3-3")

# Table-style mix: share of one/two/three-degradation images, the
# partial/global removal split inside each, the train/val/test split, and the
# range each degradation's severity beta is drawn from
GROUP_FRACTIONS = (0.476, 0.381, 0.143)
DOUBLE_REMOVAL_FRACTIONS = (0.8, 0.2)          # 2-1 vs 2-2
TRIPLE_REMOVAL_FRACTIONS = (0.4, 0.4, 0.2)     # 3-1, 3-2, 3-3
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)
BETA_RANGE = (0.3, 0.9)


# ---------------------------------------------------------------------------
# PPM image I/O


def write_ppm(path, img: np.ndarray) -> None:
    """Binary P6, maxval 255; img is float [H,W,3] in [0,1], clipped to it.
    A shape other than [H,W,3] or a non-finite value raises ValueError
    naming the path, before the file is opened."""
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"{path}: PPM writer expects [H,W,3], got shape {img.shape}")
    if not np.isfinite(img).all():
        raise ValueError(f"{path}: {img.size - np.isfinite(img).sum()} of {img.size} "
                         "values are not finite")
    h, w = img.shape[:2]
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    """Binary P6, maxval 255, '#' comments allowed in the header; returns
    float [H,W,3] in [0,1]. A malformed or truncated file raises ValueError
    naming the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError(f"{path}: not a maxval-255 P6 PPM")
    dims = fields[1:3]
    if not all(f.isdigit() and int(f) > 0 for f in dims):
        raise ValueError(f"{path}: PPM width and height must be positive integers, got {dims}")
    w, h = int(dims[0]), int(dims[1])
    pos += 1  # single whitespace after header
    if len(blob) - pos < h * w * 3:
        raise ValueError(f"{path}: truncated PPM, {w}x{h} needs {h * w * 3} pixel bytes, "
                         f"found {max(len(blob) - pos, 0)}")
    data = np.frombuffer(blob, dtype=np.uint8, count=h * w * 3, offset=pos)
    return data.reshape(h, w, 3).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# prompts


def gen_prompt(present, removed, style: str) -> str:
    """single: "Remove a, b." / two: "There are a, b in the image. Remove a."
    Lists appear in KINDS order; check_removal is the one rule for a request."""
    present, removed = check_removal(present, removed)
    if style == "single":
        return f"Remove {', '.join(removed)}."
    if style == "two":
        return f"There are {', '.join(present)} in the image. Remove {', '.join(removed)}."
    raise ValueError(f"unknown prompt style {style!r}")


# ---------------------------------------------------------------------------
# records / manifest


def _image_path(sample_id: int, tag: str) -> str:
    """Path of one of a sample's images, relative to the dataset directory."""
    return f"images/{sample_id:05d}_{tag}.ppm"


@dataclass
class SampleRecord:
    """One manifest line: the sample id, its degradation specs (one per
    kind), the kinds its prompt removes and its split. A spec given as a dict,
    as a manifest line holds it, is parsed with from_record, and the record is
    validated when it is made, so a record that exists is valid (check_removal
    is the one rule for a removal request). The rest is derived from these and
    cannot disagree with them: the present kinds, both prompt styles, and the
    clean, degraded and gt image paths."""
    id: int
    specs: list[DegradationSpec]
    removed: list[str]
    split: str

    def __post_init__(self):
        if isinstance(self.specs, list):
            self.specs = [from_record(DegradationSpec, s) if isinstance(s, dict) else s
                          for s in self.specs]
        self.validate()

    def validate(self) -> None:
        check_int("id", self.id, 0)
        for name, item in (("removed", str), ("specs", DegradationSpec)):
            value = getattr(self, name)
            if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
                raise ValueError(f"record {self.id}: {name} must be a list of "
                                 f"{item.__name__}, got {value!r}")
        try:
            check_removal((s.kind for s in self.specs), self.removed)
        except ValueError as e:
            raise ValueError(f"record {self.id}: {e}") from e
        if self.split not in SPLITS:
            raise ValueError(f"record {self.id}: bad split {self.split!r}")

    @property
    def present(self) -> list[str]:
        return sorted((s.kind for s in self.specs), key=KINDS.index)

    @property
    def prompt_single(self) -> str:
        return gen_prompt(self.present, self.removed, "single")

    @property
    def prompt_two(self) -> str:
        return gen_prompt(self.present, self.removed, "two")

    @property
    def clean_path(self) -> str:
        return _image_path(self.id, "clean")

    @property
    def degraded_path(self) -> str:
        return _image_path(self.id, "degraded")

    @property
    def gt_path(self) -> str:
        return _image_path(self.id, "gt")

    def spec_objects(self) -> list[DegradationSpec]:
        return list(self.specs)

    def labels(self) -> np.ndarray:
        present = self.present
        return np.array([1.0 if k in present else 0.0 for k in KINDS])


def write_manifest(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(asdict(r)) + "\n")


def read_manifest(path) -> list[SampleRecord]:
    """Records of a JSON-lines manifest. Bytes that are not UTF-8, bad JSON,
    a line or spec that from_record rejects, an invalid record or spec and an
    id already used on an earlier line raise ValueError naming path:line."""
    records, id_line = [], {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = from_record(SampleRecord, json.loads(line))
                if rec.id in id_line:
                    raise ValueError(f"id {rec.id} is also on line {id_line[rec.id]}")
            except (TypeError, ValueError) as e:   # JSONDecodeError, UnicodeDecodeError
                raise ValueError(f"{path}:{lineno}: {e}") from e
            id_line[rec.id] = lineno
            records.append(rec)
    return records


# ---------------------------------------------------------------------------
# clean image synthesis


def generate_clean_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """Procedural geometric scene with mean luminance >= 0.35 (keeps every
    composed degradation above the visibility floor)."""
    coord = np.arange(size) / size       # y / size down the rows, x / size across
    c0 = rng.uniform(0.15, 0.85, 3)
    c1 = rng.uniform(0.15, 0.85, 3)
    # a linear gradient down the rows or across the columns, one [size,3] ramp
    ramp = c0 + (c1 - c0) * coord[:, None]
    ramp = ramp[:, None] if rng.random() < 0.5 else ramp[None]
    img = np.broadcast_to(ramp, (size, size, 3)).copy()
    for _ in range(int(rng.integers(3, 8))):
        color = rng.uniform(0.1, 0.9, 3)
        if rng.random() < 0.5:
            y0, x0 = rng.integers(0, size, 2)
            hh, ww = rng.integers(size // 8, size // 2, 2)
            img[y0:y0 + hh, x0:x0 + ww] = color
        else:
            cy, cx = rng.uniform(0, size, 2)
            r = rng.uniform(size / 12, size / 4)
            # only the disc's bounding box can be inside; the pixel of margin
            # covers (i / size) * size differing from i in the last bit
            rows = slice(max(0, int(cy - r) - 1), int(cy + r) + 2)
            cols = slice(max(0, int(cx - r) - 1), int(cx + r) + 2)
            inside = ((coord[rows, None] * size - cy) ** 2
                      + (coord[None, cols] * size - cx) ** 2 < r * r)
            img[rows, cols][inside] = color
    img = np.clip(img, 0.0, 1.0)
    mean = img.mean()
    if mean < 0.35:   # lift dark scenes so lowlight cannot crush them
        img = np.clip(img + (0.35 - mean), 0.0, 1.0)
    return img


# ---------------------------------------------------------------------------
# dataset construction


@dataclass(frozen=True)
class DatasetConfig:
    count: int = 500
    image_size: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, least in (("count", 0), ("image_size", 2), ("seed", 0)):
            check_int(name, getattr(self, name), least)


def _largest_remainder(total: int, fractions) -> list[int]:
    raw = [total * f for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    order = np.argsort([c - r for c, r in zip(counts, raw)])  # biggest deficit first
    for i in range(total - sum(counts)):
        counts[order[i % len(fractions)]] += 1
    return counts


def category_counts(total: int) -> dict[str, int]:
    one, two, three = _largest_remainder(total, GROUP_FRACTIONS)
    out = {"1-1": one}
    d21, d22 = _largest_remainder(two, DOUBLE_REMOVAL_FRACTIONS)
    out.update({"2-1": d21, "2-2": d22})
    t31, t32, t33 = _largest_remainder(three, TRIPLE_REMOVAL_FRACTIONS)
    out.update({"3-1": t31, "3-2": t32, "3-3": t33})
    return out


def _assignments(cfg: DatasetConfig) -> list[tuple[str, str]]:
    """Deterministic (category, split) pair per sample id."""
    pairs = []
    for cat, n in category_counts(cfg.count).items():
        split_n = _largest_remainder(n, SPLIT_FRACTIONS)
        for split, k in zip(SPLITS, split_n):
            pairs.extend([(cat, split)] * k)
    rng = np.random.default_rng((cfg.seed, 0xC0FFEE))
    rng.shuffle(pairs)
    return pairs


def _sample_specs(rng, category: str):
    n_present, n_removed = (int(x) for x in category.split("-"))
    present = sorted(rng.choice(len(KINDS), size=n_present, replace=False))
    present = [KINDS[i] for i in present]
    removed_idx = sorted(rng.choice(n_present, size=n_removed, replace=False))
    removed = [present[i] for i in removed_idx]
    specs = []
    for kind in present:
        beta = float(rng.uniform(*BETA_RANGE))
        stream = int(rng.integers(0, 2 ** 63 - 1))
        if kind == "blur":
            gamma = float(rng.uniform(0.0, 180.0))
        elif kind == "rain":
            gamma = float(rng.uniform(-20.0, 20.0))
        elif kind == "haze":
            gamma = int(rng.integers(0, 2 ** 31 - 1))
        else:
            gamma = 0.0
        alpha = int(rng.integers(0, 2 ** 31 - 1)) if kind == "snow" else 0
        specs.append(DegradationSpec(kind=kind, alpha=alpha, beta=beta,
                                     gamma=gamma, rng_stream=stream))
    return specs, removed


def build_dataset(cfg: DatasetConfig, out_dir) -> str:
    """Write images + manifest.jsonl under out_dir; returns manifest path."""
    out_dir = str(out_dir)
    img_dir = os.path.join(out_dir, "images")
    os.makedirs(img_dir, exist_ok=True)
    records = []
    for sample_id, (category, split) in enumerate(_assignments(cfg)):
        rng = np.random.default_rng((cfg.seed, sample_id))
        clean = generate_clean_image(rng, cfg.image_size)
        specs, removed = _sample_specs(rng, category)
        degraded, gt = compose_sample(clean, specs, removed)
        rec = SampleRecord(id=sample_id, specs=specs, removed=removed, split=split)
        for rel, img in ((rec.clean_path, clean), (rec.degraded_path, degraded),
                         (rec.gt_path, gt)):
            write_ppm(os.path.join(out_dir, rel), img)
        records.append(rec)
    manifest = os.path.join(out_dir, "manifest.jsonl")
    write_manifest(records, manifest)
    return manifest
