"""The three benchmark workloads and the attention scaling sweep.

Each workload loads a different layer of promptrestore most heavily:

* restore_128 - `RestorationModel.restore` (TOY_CONFIG) on 128x128 degraded
  images, no tape: the inference path. 128 is twice the config's
  base_resolution, so the position-encoding resize path runs too. Depthwise
  3x3, GELU and agent self-attention take most of its time.
* train_64 - TOY_CONFIG training steps at the native 64x64: PPM read, taped
  forward, L1 + BCE loss, Tape.backward, plain SGD. Same layers as
  restore_128 but through the tape, so a forward speed-up bought by pinning
  more memory shows here as a slower backward and a higher peak RSS.
* datagen_128 - repeated `dataset.build_dataset` calls of 128x128 samples:
  degradations and dataset with no tensor code at all. It is the "no
  change" prediction for every kernel or tape optimisation.

The default 49M-parameter config is left out: one 128x128 restore takes
tens of seconds on a 2-core machine, and TOY_CONFIG runs the same layers.

A workload builds its inputs from the seed in `setup()`; `op(i, span)` is
one timed operation; `check(i, result)` validates it outside the timing and
raises CheckFailed on a wrong output. Operation i serves request
i % n_requests, a fixed piece of work that recurs through the run, so each
request's fastest repeat can be found (see run.py).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np


class CheckFailed(AssertionError):
    """An operation returned a wrong output."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


BETA_RANGE = (0.3, 0.9)


def _request_mix(kinds, categories):
    """(present, removed, betas) for one restore request per category.

    The mix is the same for every seed, so set-up costs the same whatever
    the seed (rain rendering dominates it and scales with severity): kinds
    are dealt in turn, so each appears two or three times, and severities
    step evenly through BETA_RANGE. The seed draws scenes, angles, streak
    and flake positions.
    """
    counts = [tuple(int(x) for x in c.split("-")) for c in categories]
    betas = iter(np.linspace(*BETA_RANGE, sum(p for p, _ in counts)))
    mix, k = [], 0
    for p, r in counts:
        present = [kinds[(k + j) % len(kinds)] for j in range(p)]
        k += p
        mix.append((present, present[:r], [float(next(betas)) for _ in present]))
    return mix


def _specs(pkg, rng, present, betas):
    G = pkg["degradations"]
    gammas = {"blur": rng.uniform(0.0, 180.0), "rain": rng.uniform(-20.0, 20.0),
              "haze": int(rng.integers(0, 2 ** 31 - 1))}
    return [G.DegradationSpec(kind=k, alpha=int(rng.integers(0, 2 ** 31 - 1)), beta=b,
                              gamma=gammas.get(k, 0.0),
                              rng_stream=int(rng.integers(0, 2 ** 63 - 1)))
            for k, b in zip(present, betas)]


def _nonzero_output_conv(model, rng) -> None:
    # output_conv is zero-initialised, which would make restored == input
    # and every output check vacuous
    w = model.output_conv.weight
    w.data = rng.normal(0.0, 0.02, w.shape).astype(w.data.dtype)


class Restore128:
    name = "restore_128"
    size = 128
    pixels_per_op = 128 * 128
    probes_finite_checks = True

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg, self.seed = pkg, seed
        # kept across set-ups: a rebuilt model must give the same outputs
        self.first_outputs: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def setup(self) -> None:
        M, D = self.pkg["model"], self.pkg["dataset"]
        rng = np.random.default_rng((self.seed, 1))
        self.model = M.RestorationModel(M.TOY_CONFIG, seed=self.seed)
        _nonzero_output_conv(self.model, rng)
        # one request per removal category; prompt styles alternate
        self.requests = []
        mix = _request_mix(self.pkg["degradations"].KINDS, D.CATEGORIES)
        for i, (present, removed, betas) in enumerate(mix):
            clean = D.generate_clean_image(rng, self.size)
            specs = _specs(self.pkg, rng, present, betas)
            degraded, _gt = self.pkg["degradations"].compose_sample(clean, specs, removed)
            prompt = D.gen_prompt(present, removed, "single" if i % 2 == 0 else "two")
            self.requests.append((degraded, prompt))

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    def op(self, i: int, span):
        image, prompt = self.requests[i % len(self.requests)]
        out = self.model.restore(image, prompt)
        return out.restored.data, out.logits.data

    def check(self, i: int, result) -> None:
        restored, logits = result
        k = i % len(self.requests)
        _require(restored.shape == (self.size, self.size, 3), f"restored shape {restored.shape}")
        _require(logits.shape == (self.pkg["model"].TOY_CONFIG.n_labels,),
                 f"logits shape {logits.shape}")
        _require(bool(np.isfinite(restored).all() and np.isfinite(logits).all()),
                 "non-finite output")
        _require(not np.array_equal(restored, self.requests[k][0]), "restored == input")
        first = self.first_outputs.setdefault(k, (restored, logits))
        _require(np.array_equal(first[0], restored) and np.array_equal(first[1], logits),
                 f"request {k} not bit-identical on repeat")


class Train64:
    name = "train_64"
    size = 64
    pixels_per_op = 64 * 64
    probes_finite_checks = False
    samples = 6      # few, so that each recurs often in a run
    lr = 1e-3

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg, self.seed = pkg, seed
        self.workdir = workdir
        self.setups = 0

    def setup(self) -> None:
        M, D = self.pkg["model"], self.pkg["dataset"]
        # a fresh directory per set-up: rewriting files truncates them, and
        # ext4 starts their writeback on close (see Datagen128)
        self.setups += 1
        self.data_dir = os.path.join(self.workdir, f"train_data{self.setups}")
        self.model = M.RestorationModel(M.TOY_CONFIG, seed=self.seed)
        _nonzero_output_conv(self.model, np.random.default_rng((self.seed, 1)))
        cfg = D.DatasetConfig(count=self.samples, image_size=self.size, seed=self.seed)
        self.records = D.read_manifest(D.build_dataset(cfg, self.data_dir))
        self.params = list(self.model.parameters())

    @property
    def n_requests(self) -> int:
        return len(self.records)

    def _loss(self, out, gt, labels):
        T = self.pkg["tensor"]
        l1 = T.mean_all(T.absolute(T.sub(out.restored, T.Tensor(gt))))
        z = out.logits
        # BCE with logits: mean(log(1 + e^z) - y z)
        softplus = T.log(T.add(T.exp(z), T.Tensor(np.ones(z.shape))))
        bce = T.mean_all(T.sub(softplus, T.mul(T.Tensor(labels), z)))
        return T.add(l1, bce)

    def op(self, i: int, span):
        T, D = self.pkg["tensor"], self.pkg["dataset"]
        rec = self.records[i % len(self.records)]
        self.model.zero_grad()
        with span("train.data_wait"):
            degraded = D.read_ppm(os.path.join(self.data_dir, rec.degraded_path))
            gt = D.read_ppm(os.path.join(self.data_dir, rec.gt_path))
            prompt = rec.prompt_single if i % 2 == 0 else rec.prompt_two
        with span("train.forward"):
            with T.Tape() as tape:
                loss = self._loss(self.model.restore(degraded, prompt), gt, rec.labels())
        with span("train.backward"):
            tape.backward(loss)
        with span("train.update"):
            for p in self.params:
                if p.grad is not None:
                    p.data -= self.lr * p.grad
        return loss.item()

    def check(self, i: int, loss) -> None:
        _require(np.isfinite(loss), f"loss {loss}")
        grads = [p.grad for p in self.params if p.grad is not None]
        _require(len(grads) > len(self.params) // 2, f"only {len(grads)} parameters got a gradient")
        _require(all(np.isfinite(g).all() for g in grads), "non-finite gradient")


class Datagen128:
    name = "datagen_128"
    size = 128
    # 3 is the smallest count whose dataset holds a sample with one, two and
    # three degradations; short calls let each request's fastest repeat
    # fall in a quiet moment of the host (see best_per_request in run.py)
    count = 3
    n_requests = 16
    pixels_per_op = count * 128 * 128
    probes_finite_checks = False

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg, self.seed = pkg, seed
        self.out_dir = os.path.join(workdir, "datagen")
        self.setups = 0
        # Every seed renders the same pool of datasets (seeds 1..n_requests),
        # in an order of its own. build_dataset draws each sample's
        # degradation kinds from its seed, and a sample with rain costs
        # several times one without, so a pool drawn from the workload seed
        # would give each seed a different amount of work.
        order = np.random.default_rng((seed, 3)).permutation(self.n_requests)
        self.pool = [int(k) + 1 for k in order]

    def _config(self, dataset_seed: int):
        return self.pkg["dataset"].DatasetConfig(count=self.count, image_size=self.size,
                                                 seed=dataset_seed)

    def _op_seed(self, i: int) -> int:
        return self.pool[i % self.n_requests]

    # Every call writes into a directory of its own, removed after its check.
    # Rewriting the same files would truncate them, and ext4 starts writeback
    # of a truncated file when it is closed, so the host disk would be timed
    # too; files deleted within a second of being written never reach it.
    def _dir(self, tag: str) -> str:
        return os.path.join(self.out_dir, tag)

    def setup(self) -> None:
        # the warm-up call renders the same dataset for every seed, so that
        # set-up time does not vary with the seed's degradation mix
        self.setups += 1
        self.pkg["dataset"].build_dataset(self._config(0), self._dir(f"setup{self.setups}"))

    def op(self, i: int, span):
        return self.pkg["dataset"].build_dataset(self._config(self._op_seed(i)), self._dir(f"op{i}"))

    def check(self, i: int, manifest) -> None:
        try:
            self._check(i, manifest)
        finally:
            shutil.rmtree(self._dir(f"op{i}"), ignore_errors=True)

    def _check(self, i: int, manifest) -> None:
        D, G = self.pkg["dataset"], self.pkg["degradations"]
        op_dir = os.path.dirname(manifest)
        records = D.read_manifest(manifest)
        _require(len(records) == self.count, f"{len(records)} records")
        images = {}
        for rec in records:
            rec.validate()
            for path in (rec.clean_path, rec.degraded_path, rec.gt_path):
                img = D.read_ppm(os.path.join(op_dir, path))
                _require(img.shape == (self.size, self.size, 3), f"{path}: shape {img.shape}")
                images[path] = img
        # re-render one record from its spec: the dataset promises that sample
        # `id` is reproducible from default_rng((seed, id))
        rec = records[i % len(records)]
        rng = np.random.default_rng((self._op_seed(i), rec.id))
        clean = D.generate_clean_image(rng, self.size)
        degraded, _gt = G.compose_sample(clean, rec.spec_objects(), rec.removed)
        _require(np.array_equal(_quantise(degraded), _quantise(images[rec.degraded_path])),
                 f"record {rec.id}: re-render differs from stored degraded PPM")


def _quantise(img: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


WORKLOADS = {w.name: w for w in (Restore128, Train64, Datagen128)}


# ---------------------------------------------------------------------------
# attention scaling: the paper's linear-complexity claim, measured


SCALING_SIDES = (16, 32, 64)     # N = 256, 1024, 4096 tokens
SCALING_REPEATS = 3


def attention_scaling(pkg) -> dict[str, float]:
    """Median seconds per call of agent and vanilla self-attention as N grows.

    One AttnConfig (stage 0 of the default model: 48 channels, one head,
    12x12 agents, position encodings at 64x64) serves every N. Vanilla stops
    at 64x64: at 128x128 its attention matrix is 2 GB per head.
    """
    A, T = pkg["attention"], pkg["tensor"]
    rng = np.random.default_rng(0)
    cfg = A.AttnConfig(channels=48, heads=1, agent_h=12, agent_w=12, height=64, width=64)
    modules = {"agent": A.AgentSelfAttention(cfg, rng),
               "vanilla": A.VanillaSelfAttention(cfg, rng)}
    out = {}
    for side in SCALING_SIDES:
        x = T.Tensor(rng.normal(size=(side, side, cfg.channels)))
        for label, module in modules.items():
            module(x)   # warm-up
            times = []
            for _ in range(SCALING_REPEATS):
                t0 = time.perf_counter()
                module(x)
                times.append(time.perf_counter() - t0)
            out[f"attention.scaling.{label}.n{side * side}_s"] = float(np.median(times))
    return out
