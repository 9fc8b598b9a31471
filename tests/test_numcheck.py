import importlib.util
from pathlib import Path

import numpy as np
import pytest

NUMCHECK = Path(__file__).resolve().parent.parent / "tools" / "numcheck.py"


@pytest.fixture(scope="module")
def numcheck():
    spec = importlib.util.spec_from_file_location("numcheck", NUMCHECK)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _save(path, **arrays):
    np.savez(path, **arrays)
    return str(path)


def test_compare_passes_identical_files(numcheck, tmp_path, capsys):
    arrays = {"a": np.arange(3.0), "b": np.ones((2, 2))}
    parent = _save(tmp_path / "parent.npz", **arrays)
    change = _save(tmp_path / "change.npz", **arrays)
    assert numcheck.compare(parent, change, change)
    assert "2 bit-equal" in capsys.readouterr().out


@pytest.mark.parametrize("shape", [(3, 1), (4,)])
def test_compare_fails_on_a_shape_mismatch(numcheck, tmp_path, capsys, shape):
    # (3, 1) against (3,) would broadcast, (4,) against (3,) would not
    parent = _save(tmp_path / "parent.npz", a=np.zeros(3), b=np.ones(2))
    change = _save(tmp_path / "change.npz", a=np.zeros(shape), b=np.ones(2))
    assert not numcheck.compare(parent, change, None)
    assert f"shapes differ (key, parent, change): [('a', (3,), {shape})]" in capsys.readouterr().out


def test_compare_fails_on_a_dtype_mismatch(numcheck, tmp_path, capsys):
    # float32 values equal to the parent's float64 ones are not bit-equal
    parent = _save(tmp_path / "parent.npz", a=np.arange(3.0), b=np.ones(2))
    change = _save(tmp_path / "change.npz", a=np.arange(3.0, dtype=np.float32), b=np.ones(2))
    assert not numcheck.compare(parent, change, None)
    out = capsys.readouterr().out
    assert "1 bit-equal" in out
    assert "dtypes differ (key, parent, change): [('a', 'float64', 'float32')]" in out
    # two change runs that differ only in dtype are not bit-identical either
    assert not numcheck.compare(parent, parent, change)


def test_compare_wants_float32_arrays_bit_equal(numcheck, tmp_path, capsys):
    # one float32 ulp at 1e-6 is far inside the float64 tolerance
    a32 = np.full(3, 1e-6, dtype=np.float32)
    b32 = np.nextafter(a32, np.float32(1))
    parent = _save(tmp_path / "parent.npz", a=a32, b=a32.astype(np.float64))
    change = _save(tmp_path / "change.npz", a=b32, b=b32.astype(np.float64))
    assert not numcheck.compare(parent, change, None)
    ulp = float(np.abs(b32 - a32).max())
    assert f"0 bit-equal, over tolerance: [('a', {ulp!r})]" in capsys.readouterr().out


def test_compare_prints_one_line_per_group(numcheck, tmp_path, capsys):
    # the group is the key's first part; data.* stays equal, toy.* does not
    parent = _save(tmp_path / "parent.npz", **{"toy.a": np.ones(2), "toy.b": np.full(2, 4.0),
                                                 "data.c": np.zeros(2)})
    change = _save(tmp_path / "change.npz", **{"toy.a": np.ones(2), "toy.b": np.full(2, 5.0),
                                                 "data.c": np.zeros(2)})
    assert not numcheck.compare(parent, change, None)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("3 arrays, worst scaled diff 0.25, 2 bit-equal")
    assert lines[1:] == ["  data: 1 arrays, 0 over tolerance, worst scaled diff 0",
                         "  toy: 2 arrays, 1 over tolerance, worst scaled diff 0.25"]
