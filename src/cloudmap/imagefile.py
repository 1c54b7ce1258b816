"""8-bit binary PGM/PPM export of [0, 1] float images, for inspection."""

import numpy as np


def _to_u8(data: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(data * 255.0), 0, 255).astype(np.uint8)


def write_pgm(data: np.ndarray, path) -> None:
    """data: (H, W) or (H, W, 1) floats in [0, 1]."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 3:
        if data.shape[2] != 1:
            raise ValueError("PGM export needs a single channel")
        data = data[:, :, 0]
    if data.ndim != 2:
        raise ValueError("PGM export needs a 2D image")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(_to_u8(data).tobytes())


def write_ppm(data: np.ndarray, path) -> None:
    """data: (H, W, 3) floats in [0, 1]."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError("PPM export needs an (H, W, 3) image")
    h, w, _ = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(_to_u8(data).tobytes())
