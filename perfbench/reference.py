"""Reference computations the benchmark checks the program's outputs
against. They import nothing from cloudmap and are written for clarity,
not speed: explicit loops over points and 3x3 taps.

Images follow cloudmap's layout: (H, W, C) float64 in [0, 1], row 0 at
world y = +1, column 0 at world x = -1.
"""

import numpy as np


def pixel_coords(points, size):
    """(rows, cols, inside) for world (x, y) in [-1, 1): the pixel of a
    coordinate t is floor((t + 1) / 2 * size), rows counted from y = +1.
    inside marks the points that fall in the frame; no policy is applied
    to the others."""
    rows = np.floor((1.0 - points[:, 1]) / 2.0 * size).astype(np.int64)
    cols = np.floor((points[:, 0] + 1.0) / 2.0 * size).astype(np.int64)
    inside = (rows >= 0) & (rows < size) & (cols >= 0) & (cols < size)
    return rows, cols, inside


def compared_pixels(points, size, ring):
    """Mask of the pixels a comparison may use whatever the program does
    with out-of-frame points: all of them when every point is inside,
    else all but a border ring `ring` pixels wide (a dropped point
    changes nothing, a folded or clamped one lands on the border)."""
    mask = np.ones((size, size), dtype=bool)
    if not pixel_coords(points, size)[2].all():
        mask[:ring] = mask[-ring:] = False
        mask[:, :ring] = mask[:, -ring:] = False
    return mask


def occupancy(points, size):
    """(size, size, 1) image with 1 at every pixel an inside point hits."""
    img = np.zeros((size, size, 1))
    rows, cols, inside = pixel_coords(points, size)
    for r, c, ok in zip(rows, cols, inside):
        if ok:
            img[r, c, 0] = 1.0
    return img


def leaky(points, size):
    """(size, size, 3) image: each hit pixel holds the encoded coordinates
    clip((t + 1) / 2, 0, 1) of the last inside point, in index order, that
    hits it."""
    img = np.zeros((size, size, 3))
    rows, cols, inside = pixel_coords(points, size)
    enc = np.clip((points + 1.0) / 2.0, 0.0, 1.0)
    for i in range(len(points)):
        if inside[i]:
            img[rows[i], cols[i]] = enc[i]
    return img


def max_splat(points, size, alpha, beta, splat):
    """(size, size, 1) depth image seen along -z: each inside point has
    intensity clip(exp(-((1 - z) - alpha) / beta), 0, 1) and paints the
    splat x splat block around its pixel wherever it is the brightest."""
    img = np.zeros((size, size))
    rows, cols, inside = pixel_coords(points, size)
    inten = np.clip(np.exp(-((1.0 - points[:, 2]) - alpha) / beta), 0.0, 1.0)
    half = splat // 2
    for r, c, ok, v in zip(rows, cols, inside, inten):
        if not ok:
            continue
        for rr in range(max(r - half, 0), min(r + half, size - 1) + 1):
            for cc in range(max(c - half, 0), min(c + half, size - 1) + 1):
                img[rr, cc] = max(img[rr, cc], v)
    return img[:, :, None]


def quantize_u8(data):
    """8-bit value of [0, 1] intensities: round half to even, clipped."""
    return np.clip(np.rint(np.asarray(data) * 255.0), 0, 255).astype(np.uint8)


def read_ppm(path):
    """(H, W, 3) uint8 pixels of a binary P6 file with maxval 255 and a
    header of whitespace-separated fields without comments."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = raw.split(maxsplit=4)
    if fields[0] != b"P6" or int(fields[3]) != 255:
        raise ValueError(f"{path}: not an 8-bit P6 file")
    w, h = int(fields[1]), int(fields[2])
    pixels = np.frombuffer(raw[len(raw) - w * h * 3:], dtype=np.uint8)
    return pixels.reshape(h, w, 3)


# ---------------------------------------------------------------------------
# TinyNet forward: entry average pool, 3 x [conv3x3 same, ReLU, 2x2 max
# pool], global average pool, linear. Conv weights are (C_in, 3, 3, C_out).

def entry_pool(x, factor):
    """Average over factor x factor blocks; a block cut by the image edge
    averages only the pixels it holds."""
    if factor <= 1:
        return x
    h, w, c = x.shape
    out = np.zeros((-(-h // factor), -(-w // factor), c))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            block = x[i * factor:(i + 1) * factor, j * factor:(j + 1) * factor]
            out[i, j] = block.sum(axis=(0, 1)) / (block.shape[0] * block.shape[1])
    return out


def conv3x3(x, w, b):
    """Zero-padded 'same' convolution, summed one tap at a time: tap
    (i, j) reads the input at offset (i - 1, j - 1)."""
    h, wd, _ = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((h, wd, w.shape[3])) + b
    for i in range(3):
        for j in range(3):
            out += xp[i:i + h, j:j + wd] @ w[:, i, j, :]
    return out


def maxpool2(x):
    """2x2 max pool with stride 2, a trailing odd row or column dropped;
    an input 1 pixel high or wide passes through."""
    h, w, c = x.shape
    if h < 2 or w < 2:
        return x
    out = np.full((h // 2, w // 2, c), -np.inf)
    for di in range(2):
        for dj in range(2):
            out = np.maximum(out, x[di:2 * (h // 2):2, dj:2 * (w // 2):2])
    return out


def tinynet_logits(params, x, downsample):
    a = entry_pool(np.asarray(x, dtype=np.float64), downsample)
    for i in (1, 2, 3):
        a = conv3x3(a, params[f"conv{i}_w"], params[f"conv{i}_b"])
        a = maxpool2(np.maximum(a, 0.0))
    return a.mean(axis=(0, 1)) @ params["fc_w"] + params["fc_b"]


# ---------------------------------------------------------------------------
# attack reports

def attack_summary(rows):
    """(clean %, attacked %, ASR %, mean perturbation L2) from per-sample
    rows of (label, clean_pred, attacked_pred, perturbation_l2). ASR is
    (clean - attacked) / clean, 0 when clean is 0, never negative."""
    n = len(rows)
    clean = 100.0 * sum(r[1] == r[0] for r in rows) / n
    attacked = 100.0 * sum(r[2] == r[0] for r in rows) / n
    asr = 0.0 if clean <= 0.0 else max(0.0, (clean - attacked) / clean * 100.0)
    return clean, attacked, asr, sum(r[3] for r in rows) / n


def simplex_edges(simplices):
    """Set of (u, v), u < v, over every vertex pair of every simplex."""
    edges = set()
    for simplex in simplices:
        vs = sorted(int(v) for v in simplex)
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                edges.add((vs[a], vs[b]))
    return edges
