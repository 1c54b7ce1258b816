import numpy as np
import pytest

from cloudmap.imagefile import write_pgm, write_ppm


def read_pixels(path, header, shape):
    """The bytes after the exact header, as (H, W[, 3]) floats in [0, 1]."""
    raw = path.read_bytes()
    assert raw[:len(header)] == header
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=len(header))
    return pixels.reshape(shape).astype(np.float64) / 255.0


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (5, 7))
    path = tmp_path / "a.pgm"
    write_pgm(img, path)
    back = read_pixels(path, b"P5\n7 5\n255\n", (5, 7))
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-9


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (4, 6, 3))
    path = tmp_path / "a.ppm"
    write_ppm(img, path)
    back = read_pixels(path, b"P6\n6 4\n255\n", (4, 6, 3))
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-9


def test_pgm_magic_and_header(tmp_path):
    path = tmp_path / "b.pgm"
    write_pgm(np.zeros((2, 3)), path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5")
    assert b"3 2" in raw  # width height
    assert b"255" in raw


def test_ppm_magic(tmp_path):
    path = tmp_path / "b.ppm"
    write_ppm(np.zeros((2, 2, 3)), path)
    assert path.read_bytes().startswith(b"P6")


def test_values_clipped_to_byte_range(tmp_path):
    img = np.array([[-0.5, 0.0], [1.5, 1.0]])
    path = tmp_path / "c.pgm"
    write_pgm(img, path)
    back = read_pixels(path, b"P5\n2 2\n255\n", (2, 2))
    assert back[0, 0] == 0.0
    assert back[1, 0] == 1.0


def test_wrong_channel_count_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(np.zeros((2, 2, 1)), tmp_path / "x.ppm")
    with pytest.raises(ValueError):
        write_pgm(np.zeros((2, 2, 3)), tmp_path / "x.pgm")
