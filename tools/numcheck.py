"""Numerics check between two checkouts of promptrestore.

    python3 tools/numcheck.py dump <checkout> <out.npz>
    python3 tools/numcheck.py compare <parent.npz> <change.npz> [<change2.npz>]

`dump` imports promptrestore from <checkout>/src and saves, for fixed seeds,
the outputs of `RestorationModel.restore` (restored image and logits), the
loss of a taped L1 loss against a float64 target plus the mean logit, and
every parameter gradient; it also saves the rendered samples of the data
group:

  toy     TOY_CONFIG pinned at float64, at 64x64, forward and backward
  toy32   TOY_CONFIG as shipped (float32) at 64x64, forward and backward;
          its loss mixes dtypes, so the tape casts the float64 gradient to
          float32 on the way into the model
  micro   MICRO_CONFIG at 16x16, forward and backward
  toy128  TOY_CONFIG pinned at float64, at 128x128, forward only (twice the
          native resolution, so the position encodings are resized)
  small   TOY_CONFIG pinned at float64, at 8x8 and 24x40, forward only:
          below the agent grid, which clamps (its warning is silenced), and
          with every position encoding resized, to one pixel at 8x8
  data    degradations.compose_sample's degraded image and ground truth at
          16x16, for every non-empty set of kinds and every non-empty removal
          set of it (211 requests), once for one spec per kind drawn from a
          fixed seed (betas in dataset.BETA_RANGE) and once for the same
          specs at beta = 0. The float arrays catch a change in the last bits
          that the 8-bit PPM digests of the golden dataset test can miss.

A checkout whose ModelConfig has no dtype field (before float32 models)
computes in float64 throughout; dump it with that checkout's own numcheck.py.

`compare` prints, over the arrays of both files, the worst difference scaled
by max(1, max|parent|), how many arrays are bit-equal and which are over the
tolerance: 1e-12 * max(1, max|parent|) for a float64 array, none for a
float32 one, which passes only when bit-equal (a change that alters float32
rounding declares it). Then, per group (the key's first part), one line
with its array count, how many are over the tolerance and its worst scaled
difference. With a third file it also reports whether the two
change runs are bit-identical. It exits 1 when an array is over the
tolerance, a key is missing, a key's shapes or dtypes differ, or the change
runs differ.

Both subcommands pin BLAS to one thread, as the benchmark does.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"        # before numpy loads BLAS

import argparse           # noqa: E402
import itertools          # noqa: E402
import sys                # noqa: E402
import warnings           # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np        # noqa: E402

TOLERANCE = 1e-12
PROMPT = "remove the rain and the haze"
DATA_SIZE = 16


def _data(G, D) -> dict:
    # the "data" group: every (present, removed) request over two spec sets
    rng = np.random.default_rng(17)
    clean = D.generate_clean_image(rng, DATA_SIZE)
    beta = dict(zip(G.KINDS, (float(b) for b in rng.uniform(*D.BETA_RANGE, len(G.KINDS)))))
    drawn = [G.DegradationSpec("blur", beta=beta["blur"], gamma=float(rng.uniform(0.0, 180.0))),
             G.DegradationSpec("rain", beta=beta["rain"], gamma=float(rng.uniform(-20.0, 20.0)),
                               rng_stream=int(rng.integers(0, 2 ** 63 - 1))),
             G.DegradationSpec("haze", beta=beta["haze"], gamma=int(rng.integers(0, 2 ** 31 - 1))),
             G.DegradationSpec("lowlight", beta=beta["lowlight"]),
             G.DegradationSpec("snow", alpha=int(rng.integers(0, 2 ** 31 - 1)), beta=beta["snow"])]
    out = {}
    for tag, specs in (("drawn", drawn), ("beta0", [replace(s, beta=0.0) for s in drawn])):
        for k in range(1, len(specs) + 1):
            for present in itertools.combinations(specs, k):
                kinds = [s.kind for s in present]
                for r in range(1, k + 1):
                    for removed in itertools.combinations(kinds, r):
                        key = f"data.{tag}.{'+'.join(kinds)}.{'+'.join(removed)}"
                        out[f"{key}.degraded"], out[f"{key}.gt"] = \
                            G.compose_sample(clean, present, removed)
    return out


def dump(checkout: str, out_path: str) -> None:
    sys.path.insert(0, os.path.join(checkout, "src"))
    from promptrestore import dataset as D
    from promptrestore import degradations as G
    from promptrestore import tensor as T
    from promptrestore.model import MICRO_CONFIG, TOY_CONFIG, RestorationModel

    toy = replace(TOY_CONFIG, dtype="float64")
    out = {}
    with warnings.catch_warnings():
        # the small group's fields are smaller than the agent grid
        warnings.filterwarnings("ignore", message="agent grid clamped")
        for tag, cfg, shape, taped in (("toy", toy, (64, 64), True),
                                       ("toy32", TOY_CONFIG, (64, 64), True),
                                       ("micro", MICRO_CONFIG, (16, 16), True),
                                       ("toy128", toy, (128, 128), False),
                                       ("small.8x8", toy, (8, 8), False),
                                       ("small.24x40", toy, (24, 40), False)):
            m = RestorationModel(cfg, seed=3)
            rng = np.random.default_rng(11)
            # output_conv is zero-initialised, which would make restored == input
            # and stop every gradient behind it
            w = m.output_conv.weight
            w.data = rng.normal(0.0, 0.02, w.shape).astype(cfg.dtype)
            img, gt = rng.uniform(0, 1, (*shape, 3)), rng.uniform(0, 1, (*shape, 3))
            r = m.restore(img, PROMPT)
            out[f"{tag}.restored"], out[f"{tag}.logits"] = r.restored.data, r.logits.data
            if not taped:
                continue
            with T.Tape() as tape:
                r = m.restore(img, PROMPT)
                loss = T.add(T.mean_all(T.absolute(T.sub(r.restored, T.Tensor(gt)))),
                             T.mean_all(r.logits))
            tape.backward(loss)
            out[f"{tag}.loss"] = loss.data
            out.update({f"{tag}.grad.{n}": p.grad for n, p in m.named_parameters()})
    out.update(_data(G, D))
    np.savez(out_path, **out)
    print(f"{len(out)} arrays written to {out_path}")


def compare(parent_path: str, change_path: str, change2_path: str | None) -> bool:
    a, b = np.load(parent_path), np.load(change_path)
    ok = True
    missing = sorted(set(a.files) ^ set(b.files))
    if missing:
        print(f"keys in only one file: {missing}")
        ok = False
    worst, bad, equal, shapes, dtypes = 0.0, [], 0, [], []
    groups = {}                     # group -> (arrays, over tolerance, worst scaled diff)
    for key in sorted(set(a.files) & set(b.files)):
        x, y = a[key], b[key]
        if x.shape != y.shape:
            shapes.append((key, x.shape, y.shape))
            continue
        if x.dtype != y.dtype:      # equal values in another dtype are not bit-equal
            dtypes.append((key, str(x.dtype), str(y.dtype)))
            continue
        scale = max(1.0, float(np.abs(x).max()))
        d = float(np.abs(x - y).max())
        worst = max(worst, d / scale)
        equal += bool(np.array_equal(x, y))
        over = not d <= (TOLERANCE * scale if x.dtype == np.float64 else 0.0)
        if over:
            bad.append((key, d))
        group = key.split(".")[0]
        n, n_over, w = groups.get(group, (0, 0, 0.0))
        groups[group] = (n + 1, n_over + over, max(w, d / scale))
    print(f"{len(a.files)} arrays, worst scaled diff {worst:.3g}, {equal} bit-equal, "
          f"over tolerance: {bad}")
    for name, (n, n_over, w) in groups.items():
        print(f"  {name}: {n} arrays, {n_over} over tolerance, worst scaled diff {w:.3g}")
    if shapes:
        print(f"shapes differ (key, parent, change): {shapes}")
    if dtypes:
        print(f"dtypes differ (key, parent, change): {dtypes}")
    ok = ok and not bad and not shapes and not dtypes
    if change2_path is not None:
        c = np.load(change2_path)
        same = b.files == c.files and all(b[k].dtype == c[k].dtype and np.array_equal(b[k], c[k])
                                          for k in b.files)
        print(f"change runs bit-identical: {same}")
        ok = ok and same
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="save restore outputs, gradients and rendered samples of a checkout")
    d.add_argument("checkout")
    d.add_argument("out")
    c = sub.add_parser("compare", help="compare a parent dump with one or two change dumps")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("change2", nargs="?")
    args = ap.parse_args()
    if args.cmd == "dump":
        dump(args.checkout, args.out)
        return 0
    return 0 if compare(args.parent, args.change, args.change2) else 1


if __name__ == "__main__":
    sys.exit(main())
