"""8-bit binary PGM/PPM export of [0, 1] float images, for inspection."""

import numpy as np


def _write_netpbm(magic: str, data: np.ndarray, path) -> None:
    """The header, then the pixels of data (H, W[, C]) as bytes."""
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(np.clip(np.rint(data * 255.0), 0, 255).astype(np.uint8).tobytes())


def write_pgm(data: np.ndarray, path) -> None:
    """data: (H, W) or (H, W, 1) floats in [0, 1]."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 3 and data.shape[2] == 1:
        data = data[:, :, 0]
    if data.ndim != 2:
        raise ValueError(f"PGM export needs an (H, W) or (H, W, 1) image, got {data.shape}")
    _write_netpbm("P5", data, path)


def write_ppm(data: np.ndarray, path) -> None:
    """data: (H, W, 3) floats in [0, 1]."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError("PPM export needs an (H, W, 3) image")
    _write_netpbm("P6", data, path)
