"""Contract tests for the degradation renderers: bit-equality with the
one-primitive-at-a-time loop forms in helpers.py, the beta = 0 identity,
the [0,1] range and compose_sample's composition order; for from_record, the one
reader of every stored JSON record; for check_removal, the one rule for a
removal request; and for check_int, the one rule for an integer field."""

import itertools
import json
import re
from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest

from promptrestore import degradations as G
from promptrestore.attention import AgentCrossAttention, AttnConfig
from promptrestore.dataset import DatasetConfig, SampleRecord, build_dataset, read_manifest
from promptrestore.model import MICRO_CONFIG, TOY_CONFIG, ModelConfig
from helpers import rain_oracle, snow_mask_oracle

SIZES = (16, 37, 128, 200)
BETAS = (0.05, 0.5, 1.0)
SLANTS = (-20.0, 0.0, 20.0)


def _image(h, w, seed=0):
    return np.random.default_rng((seed, h, w)).uniform(0.0, 1.0, (h, w, 3))


@pytest.mark.parametrize("size", SIZES)
def test_rain_matches_streak_loop(size):
    img = _image(size, size)
    for k, (beta, slant) in enumerate(itertools.product(BETAS, SLANTS)):
        stream = 1000 * size + k
        assert np.array_equal(G.apply_rain(img, beta, slant, stream),
                              rain_oracle(img, beta, slant, stream)), (beta, slant)


@pytest.mark.parametrize("entries", [4, 12, 36, 1000])
def test_rain_matches_streak_loop_across_scatter_passes(monkeypatch, entries):
    # 1, 3, 9 and 250 samples per pass: passes end inside a streak, and
    # every pixel must still receive its weights in the loop's order
    monkeypatch.setattr(G, "_SPLAT_ENTRIES", entries)
    for shape, beta, slant in (((37, 37), 1.0, 20.0), ((64, 21), 0.5, -20.0),
                               ((24, 61), 1.0, 0.0)):
        img = _image(*shape)
        assert np.array_equal(G.apply_rain(img, beta, slant, 5),
                              rain_oracle(img, beta, slant, 5)), (shape, entries)


def test_rain_streaks_starting_above_the_image_match_streak_loop():
    # y0 is drawn from U(-4, h - 4): find a stream whose first streak starts
    # above row 0 and leaves through a side
    h = w = 37
    stream = next(s for s in range(1000)
                  if np.random.default_rng(s).uniform(-4, h - 4) < 0)
    img = _image(h, w)
    for slant in SLANTS:
        assert np.array_equal(G.apply_rain(img, 1.0, slant, stream),
                              rain_oracle(img, 1.0, slant, stream))


def test_splat_of_no_lines_is_an_all_zero_mask():
    mask = G._splat_lines(5, 7, np.zeros((0, 3)), 0.0)
    assert mask.shape == (5, 7)
    assert not mask.any()


def test_rain_with_no_streaks_renders_by_its_formula():
    # at 8x8 the streak count 0.5 * 120 * 64 / 128^2 rounds to 0; the image
    # comes back unchanged in float64, the dtype of a render with streaks
    img = _image(8, 8).astype(np.float32)
    assert G.rain_streak_count(0.5, img.shape) == 0
    out = G.apply_rain(img, 0.5, 10.0, 3)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, img)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("cap", [G.SNOW_COVERAGE_CAP, 0.01], ids=["cap", "tight-cap"])
def test_snow_mask_matches_flake_loop(monkeypatch, size, cap):
    # the tight cap makes the cap stop the loop after a flake or two, so the
    # flake that overshoots must be taken back out exactly
    monkeypatch.setattr(G, "SNOW_COVERAGE_CAP", cap)
    for alpha in range(12):
        assert np.array_equal(G.snow_mask(alpha, (size, size)),
                              snow_mask_oracle(alpha, (size, size), cap)), alpha
    for shape in ((37, 64), (64, 21)):
        assert np.array_equal(G.snow_mask(3, shape), snow_mask_oracle(3, shape, cap))


@pytest.mark.parametrize("beta", BETAS)
def test_snow_render_for_any_positive_beta_is_the_flake_loop(beta):
    img = _image(37, 37)
    m = snow_mask_oracle(4, img.shape, G.SNOW_COVERAGE_CAP)[:, :, None]
    out = G.apply_spec(img, G.DegradationSpec("snow", alpha=4, beta=beta))
    assert np.array_equal(out, img * (1.0 - m) + m)


def _spec(kind, beta):
    return G.DegradationSpec(kind, alpha=11 if kind == "snow" else 0, beta=beta,
                             gamma={"blur": 30.0, "rain": 10.0, "haze": 5}.get(kind, 0.0),
                             rng_stream=7)


@pytest.mark.parametrize("kind", G.KINDS)
def test_beta_zero_is_an_identity_copy(kind):
    img = _image(24, 31)
    out = G.apply_spec(img, _spec(kind, 0.0))
    assert out is not img
    assert np.array_equal(out, img)


@pytest.mark.parametrize("kind", G.KINDS)
@pytest.mark.parametrize("beta", [0.3, 1.0])
def test_every_kind_stays_in_unit_range(kind, beta):
    for img in (_image(32, 32), np.zeros((32, 32, 3)), np.ones((32, 32, 3))):
        out = G.apply_spec(img, _spec(kind, beta))
        assert out.shape == img.shape
        assert out.min() >= 0.0 and out.max() <= 1.0


def _apply_in_render_order(img, specs):
    # the composition oracle: apply_spec over the specs in RENDER_ORDER
    out = img
    for kind in G.RENDER_ORDER:
        for s in specs:
            if s.kind == kind:
                out = G.apply_spec(out, s)
    return out


def test_compose_sample_follows_render_order_whatever_the_spec_order():
    img = _image(32, 32)
    specs = {k: _spec(k, 0.6) for k in G.KINDS}
    want = (_apply_in_render_order(img, specs.values()),
            _apply_in_render_order(img, [s for k, s in specs.items() if k != "snow"]))
    for perm in itertools.permutations(G.KINDS):
        degraded, gt = G.compose_sample(img, [specs[k] for k in perm], ["snow"])
        assert np.array_equal(degraded, want[0]) and np.array_equal(gt, want[1]), perm


def test_compose_sample_rejects_duplicate_kinds():
    present = ["rain", "haze", "rain"]
    message = (f"removed ['rain'] must be distinct kinds, a non-empty subset of the "
               f"distinct present kinds {present}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        G.compose_sample(_image(8, 8), [_spec(k, 0.5) for k in present], ["rain"])


@pytest.mark.parametrize("shape", [(8, 8), (8, 8, 4), (8, 8, 1), (1, 8, 8, 3)],
                         ids=lambda s: "x".join(map(str, s)))
def test_compose_sample_rejects_a_clean_image_that_is_not_rgb(monkeypatch, shape):
    def no_render(*_):
        raise AssertionError("rendered before the shape check")
    monkeypatch.setattr(G, "apply_spec", no_render)
    message = f"compose_sample: clean image must be [H,W,3], got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        G.compose_sample(np.full(shape, 0.5), [_spec("haze", 0.5), _spec("lowlight", 0.5)],
                         ["haze"])


def test_rerendering_a_spec_is_bit_identical():
    img = _image(40, 40)
    before = img.copy()
    specs = [_spec(k, 0.7) for k in G.KINDS]
    first = G.compose_sample(img, specs, ["rain", "blur"])
    second = G.compose_sample(img.copy(), specs, ["rain", "blur"])
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert np.array_equal(img, before)      # the input is not written


def test_compose_sample_outputs_never_alias_clean():
    # with every kind removed the ground truth equals clean, as a copy
    img = _image(16, 16)
    specs = [_spec(k, 0.5) for k in G.KINDS]
    degraded, gt = G.compose_sample(img, specs, G.KINDS)
    assert np.array_equal(gt, img)
    assert not np.shares_memory(gt, img) and not np.shares_memory(degraded, img)


def test_spec_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match=r"^unknown degradation kind 'fog'$"):
        G.DegradationSpec("fog")


def test_check_removal_reads_each_iterable_once():
    assert G.check_removal(iter(["rain", "blur"]), iter(["rain"])) == (["blur", "rain"], ["rain"])
    assert G.check_removal((k for k in ["snow", "haze"]), (k for k in ["snow", "haze"])) == \
        (["haze", "snow"], ["haze", "snow"])


_ATTN_FIELDS = dict(channels=8, heads=2, agent_h=2, agent_w=2, height=8, width=8)
_MODEL_FIELDS = asdict(MICRO_CONFIG)
# (class, keyword arguments of a valid instance, integer field, least value)
_INT_FIELDS = [
    *((AttnConfig, _ATTN_FIELDS, name, 1) for name in _ATTN_FIELDS),
    (AgentCrossAttention, dict(cfg=AttnConfig(**_ATTN_FIELDS), text_len=3,
                               rng=np.random.default_rng(0)), "text_len", 1),
    *((ModelConfig, _MODEL_FIELDS, name, 1) for name in _MODEL_FIELDS
      if name not in ("stage_blocks", "dtype")),
    *((ModelConfig, _MODEL_FIELDS, f"stage_blocks[{i}]", 1) for i in range(4)),
    *((DatasetConfig, {}, name, least) for name, least in (("count", 0), ("image_size", 2),
                                                            ("seed", 0))),
    *((G.DegradationSpec, dict(kind="snow", beta=0.5), name, 0) for name in ("alpha", "rng_stream")),
    (SampleRecord, dict(id=7, specs=[G.DegradationSpec("rain", beta=0.5)], removed=["rain"],
                        split="train"), "id", 0),
]


@pytest.mark.parametrize("cls, valid, name, least", _INT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name, _ in _INT_FIELDS])
def test_every_integer_field_follows_check_int(cls, valid, name, least):
    cls(**valid)
    field, _, index = name.partition("[")
    for bad in (True, 2.0, np.int64(3), least - 1):
        value = bad
        if index:                   # one entry of a tuple field
            value = list(valid[field])
            value[int(index[:-1])] = bad
        message = f"{name} must be an int >= {least}, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**{**valid, field: value})


@pytest.mark.parametrize("config, name", [(AttnConfig(**_ATTN_FIELDS), "heads"),
                                          (DatasetConfig(), "count")],
                         ids=["AttnConfig", "DatasetConfig"])
def test_validated_configs_are_frozen(config, name):
    # an assignment after __post_init__ would skip its checks
    before = getattr(config, name)
    with pytest.raises(FrozenInstanceError):
        setattr(config, name, 3)
    assert getattr(config, name) == before


def test_compose_sample_rejects_bad_removal_sets():
    img = _image(8, 8)
    specs = [_spec("rain", 0.5), _spec("blur", 0.5)]
    with pytest.raises(ValueError, match="non-empty"):
        G.compose_sample(img, specs, [])
    with pytest.raises(ValueError, match="a non-empty subset of the distinct present kinds"):
        G.compose_sample(img, specs, ["rain", "snow"])


def test_compose_sample_renders_the_kept_prefix_once(monkeypatch):
    # every (present, removed) pair over the five kinds: the degraded image and
    # the ground truth equal rendering each from the clean image, and each
    # spec before the first removed kind in RENDER_ORDER is applied once
    img = _image(12, 12)
    calls = []
    apply_spec = G.apply_spec
    monkeypatch.setattr(G, "apply_spec", lambda im, s: calls.append(s.kind) or apply_spec(im, s))
    for k in range(1, len(G.KINDS) + 1):
        for present in itertools.combinations(G.KINDS, k):
            specs = [_spec(kind, 0.5) for kind in present]
            for r in range(1, k + 1):
                for removed in itertools.combinations(present, r):
                    kept = [s for s in specs if s.kind not in removed]
                    want = _apply_in_render_order(img, specs), _apply_in_render_order(img, kept)
                    calls.clear()
                    degraded, gt = G.compose_sample(img, specs, removed)
                    assert np.array_equal(degraded, want[0]) and np.array_equal(gt, want[1])
                    order = [kind for kind in G.RENDER_ORDER if kind in present]
                    split = min(order.index(kind) for kind in removed)
                    after = [kind for kind in order[split:] if kind not in removed]
                    assert sorted(calls) == sorted(order + after), (present, removed)


# ---------------------------------------------------------------------------
# from_record

_SPECS = (   # one per kind
    G.DegradationSpec("blur", beta=0.4, gamma=12.5, rng_stream=3),
    G.DegradationSpec("rain", beta=0.5, gamma=-7, rng_stream=2),
    G.DegradationSpec("haze", beta=1.0, gamma=2 ** 31 - 2),
    G.DegradationSpec("lowlight", beta=0.3),
    G.DegradationSpec("snow", alpha=9, beta=0.7, rng_stream=4),
)


def _built_record(tmp_path):
    # the record with the most specs among those build_dataset wrote
    records = read_manifest(build_dataset(DatasetConfig(count=6, image_size=16, seed=5), tmp_path))
    return max(records, key=lambda r: len(r.specs))


@pytest.mark.parametrize("make", [
    *(lambda _, s=s: s for s in _SPECS),
    _built_record,
    lambda _: TOY_CONFIG,
    lambda _: MICRO_CONFIG,
], ids=[*(s.kind for s in _SPECS), "sample-record", "toy-config", "micro-config"])
def test_from_record_round_trips_and_wants_exactly_the_fields(tmp_path, make):
    obj = make(tmp_path)
    cls, name = type(obj), type(obj).__name__
    record = json.loads(json.dumps(asdict(obj)))
    assert G.from_record(cls, record) == obj
    first = next(iter(record))
    with pytest.raises(ValueError, match=rf"^{name}: expected a JSON object, got list$"):
        G.from_record(cls, list(record.values()))
    with pytest.raises(ValueError, match=rf"^{name}: missing keys \['{first}'\], unknown keys \[\]$"):
        G.from_record(cls, {k: v for k, v in record.items() if k != first})
    with pytest.raises(ValueError, match=rf"^{name}: missing keys \[\], unknown keys \['extra'\]$"):
        G.from_record(cls, {**record, "extra": 1})
