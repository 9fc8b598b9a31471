import numpy as np
import pytest

from promptrestore.dataset import read_ppm, write_ppm


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
