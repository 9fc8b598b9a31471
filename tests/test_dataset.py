import hashlib
import json
import os
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from promptrestore import dataset as D
from promptrestore.dataset import read_ppm, write_ppm
from helpers import clean_image_oracle


def test_ppm_round_trip_with_header_comment(tmp_path):
    img = np.random.default_rng(0).uniform(0, 1, (5, 7, 3))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    expect = np.rint(img * 255.0) / 255.0
    np.testing.assert_array_equal(read_ppm(path), expect)

    blob = path.read_bytes()
    assert blob.startswith(b"P6\n7 5\n255\n")
    commented = tmp_path / "commented.ppm"
    commented.write_bytes(b"P6\n# written by a test\n7 5\n255\n" + blob[len(b"P6\n7 5\n255\n"):])
    np.testing.assert_array_equal(read_ppm(commented), expect)


def test_ppm_truncated_pixels_raise_naming_the_file(tmp_path):
    path = tmp_path / "short.ppm"
    write_ppm(path, np.zeros((4, 4, 3)))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match=r"short\.ppm: truncated PPM"):
        read_ppm(path)


@pytest.mark.parametrize("header", [b"P6\nx 4\n255\n", b"P6\n4 0\n255\n",
                                    b"P6\n-4 4\n255\n", b"P6\n4 2.5\n255\n"],
                         ids=["non-integer", "zero", "negative", "fractional"])
def test_ppm_bad_size_raises_naming_the_file(tmp_path, header):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header + bytes(4 * 4 * 3))
    with pytest.raises(ValueError, match=r"bad\.ppm: PPM width and height"):
        read_ppm(path)


def test_ppm_wrong_magic_raises_naming_the_file(tmp_path):
    path = tmp_path / "p3.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError, match=r"p3\.ppm: not a maxval-255 P6 PPM"):
        read_ppm(path)


@pytest.mark.parametrize("img, what", [
    (np.full((4, 5, 3), np.nan), "60 of 60 values are not finite"),
    (np.array([[[0.5, np.inf, 0.5]]]), "1 of 3 values are not finite"),
    (np.array([[[0.5, -np.inf, 0.5]]]), "1 of 3 values are not finite"),
    (np.zeros((4, 5)), r"expects \[H,W,3\], got shape \(4, 5\)"),
    (np.zeros((4, 5, 4)), r"expects \[H,W,3\], got shape \(4, 5, 4\)"),
], ids=["nan", "inf", "-inf", "2-d", "4-channel"])
def test_write_ppm_rejects_bad_images_naming_the_file(tmp_path, img, what):
    path = tmp_path / "bad.ppm"
    with pytest.raises(ValueError, match=rf"bad\.ppm: .*{what}"):
        write_ppm(path, img)
    assert not path.exists()


@pytest.mark.parametrize("size", [16, 24, 37, 100, 129])
def test_clean_image_matches_full_image_disc_loop(size):
    # sizes that are not powers of two make (i / size) * size differ from i
    for seed in range(30):
        assert np.array_equal(D.generate_clean_image(np.random.default_rng((seed, size)), size),
                              clean_image_oracle(np.random.default_rng((seed, size)), size)), seed


def test_clean_image_lifts_a_dark_scene_to_the_floor():
    # this scene's mean is below 0.35 before the lift; after it the mean is
    # 0.35 up to rounding (no pixel reaches the clip at 1)
    img = D.generate_clean_image(np.random.default_rng(25), 16)
    assert abs(img.mean() - 0.35) < 1e-12 and img.max() < 1.0
    np.testing.assert_array_equal(img, clean_image_oracle(np.random.default_rng(25), 16))


# sha256 of every PPM that build_dataset(DatasetConfig(count=6, image_size=37,
# seed=2)) writes, recorded before the renderers were vectorised; the config
# holds all five kinds at a size that is not a power of two
GOLDEN_PPM_SHA256 = {
    "00000_clean.ppm": "aaed59c634193a017e9a5cd591b78f856a007030b94c3e017be75e47de4ada77",
    "00000_degraded.ppm": "f554246238f67aecd2b10cec18aa5d55ce84c8942cbd653bbcf0df19c7017429",
    "00000_gt.ppm": "5fc5a5b08aaa3412fbd5da7d1453236fd3f3da5c44953e9394158ba77c948a3d",
    "00001_clean.ppm": "c5b34e7e8c97182c4dfeac637697c49c9da2d12eb6a4bfc3d36543b01598bb18",
    "00001_degraded.ppm": "56fc6ffdd0d641fd810a1239cdbfca74f970f429de462455cc5d71709437135d",
    "00001_gt.ppm": "c5b34e7e8c97182c4dfeac637697c49c9da2d12eb6a4bfc3d36543b01598bb18",
    "00002_clean.ppm": "070b5ff9552a2e0a4929061b4bbf0df04f36e9a7751e1e6492d3252769a7f01a",
    "00002_degraded.ppm": "90b6e5f14a899bfe6a8b5d77658b6f64686f186adf5b5c3e4f9e21d80ba9e78e",
    "00002_gt.ppm": "4f9c5e524728228347e8cc78fc2942b001b842fb587e53dfcb83a9b08c640a97",
    "00003_clean.ppm": "4b9b18bb62ff50267545dc8339adad879a0f1c52587eb6e5e90c14ca98ad8b1a",
    "00003_degraded.ppm": "065ce332b14afb378b2d8c8d0c35e6fc9801325ef77b9f3ce3f58b25d0755934",
    "00003_gt.ppm": "4b9b18bb62ff50267545dc8339adad879a0f1c52587eb6e5e90c14ca98ad8b1a",
    "00004_clean.ppm": "23b0725e8e4ba715ac4b9b7b99507a891fbfe55c1d8427f8d2acd3957a7a4d86",
    "00004_degraded.ppm": "230efc2c115320ce5df69ae8e73b3ed64b41aab2a0ac3fed527a40a6067c7996",
    "00004_gt.ppm": "78dd4e5ba1b5dab108b35583aa6d89b266feddc6dfdd383c8e1f240bec0e4686",
    "00005_clean.ppm": "2b05871dac99c66c1421b5bcd7e87b16d005ababa94c99d7b0f4dadea33cbab9",
    "00005_degraded.ppm": "783bd61d66869dd10f7c86388703289b9bcbbaecb49c6dfe49ab9996da8523a0",
    "00005_gt.ppm": "2b05871dac99c66c1421b5bcd7e87b16d005ababa94c99d7b0f4dadea33cbab9",
}
# sha256 of the manifest.jsonl the same call writes, recorded while records
# still held their specs as dicts: holding DegradationSpecs must not change it
GOLDEN_MANIFEST_SHA256 = "ac6cbb543398d4e84837ea21721ac216007a9492315e306484cfb2604206900c"


def test_build_dataset_writes_golden_bytes(tmp_path):
    manifest = D.build_dataset(D.DatasetConfig(count=6, image_size=37, seed=2), tmp_path)
    kinds = {k for rec in D.read_manifest(manifest) for k in rec.present}
    assert kinds == set(D.KINDS)
    images = tmp_path / "images"
    assert sorted(os.listdir(images)) == sorted(GOLDEN_PPM_SHA256)
    digests = {name: hashlib.sha256((images / name).read_bytes()).hexdigest()
               for name in GOLDEN_PPM_SHA256}
    assert digests == GOLDEN_PPM_SHA256
    with open(manifest, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_MANIFEST_SHA256


@pytest.mark.parametrize("field, value", [
    ("count", -3), ("count", True), ("count", 2.5),
    ("image_size", 0), ("image_size", 1), ("image_size", 8.0),
    ("seed", -1), ("seed", False), ("seed", "0"),
], ids=["count-negative", "count-bool", "count-float", "image_size-0", "image_size-1",
        "image_size-float", "seed-negative", "seed-bool", "seed-str"])
def test_dataset_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an int >= "):
        D.DatasetConfig(**{field: value})


def test_category_and_split_counts_sum_exactly():
    for total in range(201):
        counts = D.category_counts(total)
        assert list(counts) == list(D.CATEGORIES)
        assert sum(counts.values()) == total
        pairs = D._assignments(D.DatasetConfig(count=total))
        assert len(pairs) == total
        for cat, n in counts.items():
            assert sum(c == cat for c, _ in pairs) == n
        assert {s for _, s in pairs} <= set(D.SPLITS)


@pytest.mark.parametrize("present, removed", [(["rain", "fog"], ["rain"]),
                                              (["rain"], ["fog"])])
def test_gen_prompt_rejects_unknown_kinds(present, removed):
    with pytest.raises(ValueError, match=r"^unknown degradation kinds \['fog'\]; known: "):
        D.gen_prompt(iter(present), iter(removed), "two")


@pytest.mark.parametrize("style", ["single", "two"])
def test_gen_prompt_rejects_removed_kinds_not_present(style):
    with pytest.raises(ValueError, match=r"^removed \['snow', 'rain'\] must be distinct kinds, "
                                         r"a non-empty subset of the distinct present kinds "
                                         r"\['rain'\]$"):
        D.gen_prompt(iter(["rain"]), iter(["snow", "rain"]), style)
    # each argument is read once, so iterators work
    assert D.gen_prompt(iter(["rain", "blur"]), iter(["rain"]), "two") == \
        "There are blur, rain in the image. Remove rain."


def test_gen_prompt_rejects_an_unknown_style():
    with pytest.raises(ValueError, match=r"^unknown prompt style 'three'$"):
        D.gen_prompt(["rain"], ["rain"], "three")


# (present, removed, the one message every entry point gives); each case was
# accepted by at least one entry point, or worded differently by them, before
# they shared degradations.check_removal
_BAD_REQUESTS = [
    (["rain", "rain"], ["rain"], "removed ['rain'] must be distinct kinds, a non-empty "
     "subset of the distinct present kinds ['rain', 'rain']"),
    (["rain", "haze"], [], "removed [] must be distinct kinds, a non-empty "
     "subset of the distinct present kinds ['rain', 'haze']"),
    (["rain", "haze"], ["rain", "rain"], "removed ['rain', 'rain'] must be distinct kinds, "
     "a non-empty subset of the distinct present kinds ['rain', 'haze']"),
    (["rain"], ["snow"], "removed ['snow'] must be distinct kinds, a non-empty "
     "subset of the distinct present kinds ['rain']"),
    (["rain"], ["fog"], f"unknown degradation kinds ['fog']; known: {list(D.KINDS)}"),
]


@pytest.mark.parametrize("present, removed, message", _BAD_REQUESTS,
                         ids=["duplicate-present", "empty-removed", "duplicate-removed",
                              "removed-not-present", "unknown-removed"])
def test_every_entry_point_rejects_a_bad_request_alike(tmp_path, present, removed, message):
    specs = [D.DegradationSpec(k, beta=0.5) for k in present]
    for style in ("single", "two"):
        with pytest.raises(ValueError) as e:
            D.gen_prompt(present, removed, style)
        assert str(e.value) == message
    with pytest.raises(ValueError) as e:
        D.compose_sample(np.zeros((8, 8, 3)), specs, removed)
    assert str(e.value) == message
    with pytest.raises(ValueError) as e:
        D.SampleRecord(id=4, specs=specs, removed=removed, split="train")
    assert str(e.value) == f"record 4: {message}"
    path = tmp_path / "manifest.jsonl"
    line = dict(id=4, specs=[asdict(s) for s in specs], removed=removed, split="train")
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as e:
        D.read_manifest(path)
    assert str(e.value) == f"{path}:1: record 4: {message}"


def test_a_bare_string_is_not_a_list_of_kinds():
    # a str is iterable, so without the check its letters would be read as kinds
    with pytest.raises(TypeError, match="^present must be a list of kinds, got the str 'rain'$"):
        D.gen_prompt("rain", ["rain"], "single")
    for call in (lambda: D.gen_prompt(["rain"], "rain", "two"),
                 lambda: D.compose_sample(np.zeros((8, 8, 3)),
                                          [D.DegradationSpec("rain", beta=0.5)], "rain")):
        with pytest.raises(TypeError, match="^removed must be a list of kinds, got the str 'rain'$"):
            call()


def test_manifest_round_trip(tmp_path):
    records = [
        D.SampleRecord(id=0, specs=[asdict(D.DegradationSpec("blur", beta=0.4, gamma=12.5, rng_stream=3)),
                                    asdict(D.DegradationSpec("snow", alpha=9, beta=0.7))],
                       removed=["snow"], split="val"),
        D.SampleRecord(id=1, specs=[asdict(D.DegradationSpec("haze", beta=1.0, gamma=2 ** 31 - 2))],
                       removed=["haze"], split="test"),
    ]
    path = tmp_path / "manifest.jsonl"
    D.write_manifest(records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [list(json.loads(line)) for line in lines] == [["id", "specs", "removed", "split"]] * 2
    back = D.read_manifest(path)
    assert back == records
    assert [r.spec_objects() for r in back] == [r.spec_objects() for r in records]
    assert all(type(s) is D.DegradationSpec for r in back for s in r.specs)
    rec = back[0]
    assert rec.present == ["blur", "snow"]
    assert rec.prompt_single == "Remove snow."
    assert rec.prompt_two == "There are blur, snow in the image. Remove snow."
    assert (rec.clean_path, rec.degraded_path, rec.gt_path) == (
        "images/00000_clean.ppm", "images/00000_degraded.ppm", "images/00000_gt.ppm")
    assert back[1].labels().tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]


def test_build_dataset_records_name_the_files_it_writes(tmp_path, monkeypatch):
    built, write = [], D.write_manifest

    def keep(records, path):
        built.extend(records)
        write(records, path)

    monkeypatch.setattr(D, "write_manifest", keep)
    manifest = D.build_dataset(D.DatasetConfig(count=6, image_size=16, seed=5), tmp_path)
    records = D.read_manifest(manifest)
    assert built == records
    assert all(type(s) is D.DegradationSpec for r in built + records for s in r.specs)
    paths = [p for rec in records for p in (rec.clean_path, rec.degraded_path, rec.gt_path)]
    assert sorted(paths) == sorted(f"images/{name}" for name in os.listdir(tmp_path / "images"))
    counts = Counter(f"{len(rec.specs)}-{len(rec.removed)}" for rec in records)
    assert counts == {cat: n for cat, n in D.category_counts(6).items() if n}


def _record(**changes):
    rec = dict(id=7, specs=[asdict(D.DegradationSpec("blur", beta=0.5)),
                            asdict(D.DegradationSpec("rain", beta=0.5))],
               removed=["rain"], split="train")
    rec.update(changes)
    return rec


# what check_removal says of the removed ['rain'] of _record() and its spec kinds
_NOT_A_SUBSET = (r"removed \['rain'\] must be distinct kinds, "
                 r"a non-empty subset of the distinct present kinds ")


@pytest.mark.parametrize("changes, what", [
    (dict(specs=[]), _NOT_A_SUBSET + r"\[\]$"),
    (dict(specs=[asdict(D.DegradationSpec("blur", beta=0.5))]), _NOT_A_SUBSET + r"\['blur'\]$"),
    (dict(specs=[asdict(D.DegradationSpec("blur", beta=0.5))] * 2),
     _NOT_A_SUBSET + r"\['blur', 'blur'\]$"),
    (dict(specs=[asdict(D.DegradationSpec("rain", beta=0.5))] * 2),
     _NOT_A_SUBSET + r"\['rain', 'rain'\]$"),
], ids=["no-specs", "missing-spec", "duplicate-spec", "duplicate-other-spec"])
def test_record_spec_kinds_must_be_exactly_present(changes, what):
    D.SampleRecord(**_record())
    with pytest.raises(ValueError, match=f"^record 7: {what}"):
        D.SampleRecord(**_record(**changes))


def _spec(kind, **changes):
    # a spec dict with every key, as build_dataset writes it, some values replaced
    return {**asdict(D.DegradationSpec(kind)), **changes}


def _unknown(*keys):
    return rf"SampleRecord: missing keys \[\], unknown keys \[{', '.join(repr(k) for k in keys)}\]"


# the seven keys an eleven-key line of the earlier format added to _record()
_ELEVEN_KEY_EXTRAS = dict(
    clean_path="images/00007_clean.ppm", degraded_path="images/00007_degraded.ppm",
    gt_path="images/00007_gt.ppm", present=["blur", "rain"], category="2-1",
    prompt_single="Remove rain.", prompt_two="There are blur, rain in the image. Remove rain.")


@pytest.mark.parametrize("line, what", [
    ('{"id": 1,', "Expecting"),
    ("[1, 2]", "SampleRecord: expected a JSON object, got list"),
    (json.dumps({k: v for k, v in _record().items() if k != "split"}),
     r"SampleRecord: missing keys \['split'\], unknown keys \[\]"),
    (json.dumps(_record(extra=1)), r"SampleRecord: missing keys \[\], unknown keys \['extra'\]"),
    (json.dumps(_record(removed=["haze"])),
     r"record 7: removed \['haze'\] must be distinct kinds, a non-empty subset"),
    (json.dumps(_record(removed=[])), r"record 7: removed \[\] must be distinct kinds"),
    (json.dumps(_record(removed=["rain", "rain"])),
     r"record 7: removed \['rain', 'rain'\] must be distinct kinds"),
    (json.dumps(_record(specs=[_spec("blur", beta=1.5), _spec("rain")])),
     r"beta must be in \[0,1\], got 1.5"),
    (json.dumps(_record(specs=[_spec("blur", beta=True), _spec("rain")])),
     r"beta must be in \[0,1\], got True"),
    (json.dumps(_record(specs=[_spec("blur", beta="0.5"), _spec("rain")])),
     r"beta must be in \[0,1\], got '0.5'"),
    (json.dumps(_record(specs=[_spec("blur", sigma=2), _spec("rain")])),
     r"DegradationSpec: missing keys \[\], unknown keys \['sigma'\]"),
    (json.dumps(_record(specs=[_spec("blur"), {k: v for k, v in _spec("rain").items()
                                                 if k != "beta"}])),
     r"DegradationSpec: missing keys \['beta'\], unknown keys \[\]"),
    (json.dumps(_record(specs=[_spec("blur"), _spec("snow", beta=0.5, alpha=-1)],
                        removed=["snow"])),
     "alpha must be an int >= 0, got -1"),
    (json.dumps(_record(specs=[_spec("blur", alpha=2.0), _spec("rain")])),
     "alpha must be an int >= 0, got 2.0"),
    (json.dumps(_record(specs=[_spec("blur"), _spec("rain", rng_stream=True)])),
     "rng_stream must be an int >= 0, got True"),
    (json.dumps(_record(specs=[_spec("blur"), _spec("rain", rng_stream=-5)])),
     "rng_stream must be an int >= 0, got -5"),
    (json.dumps(_record(specs=[_spec("blur"), _spec("haze", beta=0.5, gamma=-3.0)],
                        removed=["haze"])),
     r"haze gamma \(its blob seed\) must be a non-negative whole number, got -3.0"),
    (json.dumps(_record(specs=[_spec("blur"), _spec("haze", beta=0.5, gamma=2.5)],
                        removed=["haze"])),
     "haze gamma .* got 2.5"),
    (json.dumps(_record(specs=[_spec("blur", gamma=float("inf")), _spec("rain")])),
     "gamma must be a finite number, got inf"),
    (json.dumps(_record(specs=[_spec("blur", gamma=float("nan")), _spec("rain")])),
     "gamma must be a finite number, got nan"),
    (json.dumps(_record(specs=[_spec("blur", gamma="x"), _spec("rain")])),
     "gamma must be a finite number, got 'x'"),
    (json.dumps(_record(specs=[_spec("blur", gamma=None), _spec("rain")])),
     "gamma must be a finite number, got None"),
    (json.dumps(_record(specs=[_spec("blur"), _spec("rain", gamma=float("nan"))])),
     "gamma must be a finite number, got nan"),
    (json.dumps(_record(specs=[_spec("blur"), _spec("rain", gamma=False)])),
     "gamma must be a finite number, got False"),
    (json.dumps(_record(specs=[_spec("blur", gamma=10**30), _spec("rain")])),
     r"blur gamma \(an angle\) must fit in int64, got 10{30}$"),
    (json.dumps(_record(specs=[_spec("blur"), _spec("rain", gamma=10**400)])),
     r"rain gamma \(an angle\) must fit in int64, got 10{400}$"),
    (json.dumps(_record(id="7")), "id must be an int >= 0, got '7'"),
    (json.dumps(_record(id=True)), "id must be an int >= 0, got True"),
    (json.dumps(_record(id=-1)), "id must be an int >= 0, got -1"),
    (json.dumps(_record(removed=[1])), r"record 7: removed must be a list of str, got \[1\]"),
    (json.dumps(_record(specs=["blur", "rain"])),
     r"record 7: specs must be a list of DegradationSpec, got \['blur', 'rain'\]"),
    (json.dumps(_record(split=0)), "record 7: bad split 0"),
    # a key derived from the four stored ones is unknown, whatever its value:
    # an image path that leaves the dataset directory, a prompt that
    # disagrees with the removed kinds, a mistyped copy, or a whole line of
    # the earlier eleven-key format
    (json.dumps(_record(clean_path="/etc/hostname")), _unknown("clean_path")),
    (json.dumps(_record(degraded_path="../../x.ppm")), _unknown("degraded_path")),
    (json.dumps(_record(prompt_single="Remove blur.")), _unknown("prompt_single")),
    (json.dumps(_record(prompt_two="There are rain in the image. Remove rain.")),
     _unknown("prompt_two")),
    (json.dumps(_record(clean_path=None)), _unknown("clean_path")),
    (json.dumps(_record(degraded_path=5)), _unknown("degraded_path")),
    (json.dumps(_record(gt_path=["g"])), _unknown("gt_path")),
    (json.dumps(_record(present="blur rain")), _unknown("present")),
    (json.dumps(_record(prompt_single=1)), _unknown("prompt_single")),
    (json.dumps(_record(prompt_two=None)), _unknown("prompt_two")),
    (json.dumps(_record(category=2.1)), _unknown("category")),
    (json.dumps(_record(**_ELEVEN_KEY_EXTRAS)), _unknown(*sorted(_ELEVEN_KEY_EXTRAS))),
    # a valid record whose id the first line already has
    (json.dumps(_record(split="val")), "id 7 is also on line 1$"),
], ids=["bad-json", "not-an-object", "missing-key", "unknown-key", "invalid-record",
        "empty-removed", "duplicate-removed", "bad-spec-value", "bool-beta", "string-beta",
        "unknown-spec-key", "missing-spec-key", "negative-alpha", "float-alpha", "bool-rng-stream",
        "negative-rng-stream", "negative-haze-gamma", "fractional-haze-gamma", "inf-blur-gamma",
        "nan-blur-gamma", "string-blur-gamma", "null-blur-gamma", "nan-rain-gamma",
        "bool-rain-gamma", "huge-blur-gamma", "huge-rain-gamma", "string-id", "bool-id",
        "negative-id", "int-removed", "string-specs",
        "int-split", "absolute-clean-path", "climbing-degraded-path", "prompt-single-mismatch",
        "prompt-two-mismatch", "null-clean-path", "int-degraded-path", "list-gt-path",
        "string-present", "int-prompt-single", "null-prompt-two", "float-category",
        "eleven-key-line", "repeated-id"])
def test_read_manifest_names_the_bad_line(tmp_path, line, what):
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(_record()) + "\n\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"manifest\.jsonl:3: .*{what}"):
        D.read_manifest(path)



def test_read_manifest_names_the_line_of_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_bytes(json.dumps(_record()).encode() + b"\n\n\xff\xfe\n")
    with pytest.raises(ValueError, match=r"manifest\.jsonl:3: 'utf-8' codec can't decode byte 0xff"):
        D.read_manifest(path)
