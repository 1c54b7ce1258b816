"""Frozen copy of TinyNet's layers as they were before two rewrites in
cloudmap.net. The convolutions are einsum contractions over the
sliding-window view, with one einsum per window offset for the input
gradient, as before the im2col matmul rewrite. Each block applies ReLU
and then a 2x2 max pool through argmax over a transposed window copy, as
before the pool-then-ReLU rewrite. Tests use it as an oracle: the
rewrites must reproduce its logits and gradients within a stated
tolerance, and the pool-then-ReLU block must equal _maxpool(_relu(x))
exactly. Do not optimize this file.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _relu(x: np.ndarray):
    mask = x > 0.0
    return x * mask, mask


def _maxpool(x: np.ndarray):
    """2x2, stride 2, trailing odd row/col dropped. First max wins ties.
    Inputs already down to 1 pixel in either dimension pass through."""
    h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    if h2 == 0 or w2 == 0:
        return x, None
    xr = x[:2 * h2, :2 * w2].reshape(h2, 2, w2, 2, c)
    xr = xr.transpose(0, 2, 4, 1, 3).reshape(h2, w2, c, 4)
    idx = xr.argmax(axis=-1)
    out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    return out, (idx, x.shape)


def _maxpool_back(d_out: np.ndarray, cache) -> np.ndarray:
    if cache is None:
        return d_out
    idx, x_shape = cache
    h, w, c = x_shape
    h2, w2 = h // 2, w // 2
    scattered = np.zeros((h2, w2, c, 4))
    np.put_along_axis(scattered, idx[..., None], d_out[..., None], axis=-1)
    d_x = np.zeros((h, w, c))
    d_x[:2 * h2, :2 * w2] = scattered.reshape(h2, w2, c, 2, 2) \
        .transpose(0, 3, 1, 4, 2).reshape(2 * h2, 2 * w2, c)
    return d_x


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    h, wd, ci = x.shape
    xp = np.zeros((h + 2, wd + 2, ci))
    xp[1:-1, 1:-1] = x
    win = sliding_window_view(xp, (3, 3), axis=(0, 1))  # (h, wd, ci, 3, 3)
    out = np.einsum("hwcij,cijo->hwo", win, w, optimize=True) + b
    return out, (win, w, x.shape)


def _conv_back(d_out: np.ndarray, cache):
    win, w, x_shape = cache
    h, wd, ci = x_shape
    d_w = np.einsum("hwcij,hwo->cijo", win, d_out, optimize=True)
    d_b = d_out.sum(axis=(0, 1))
    d_xp = np.zeros((h + 2, wd + 2, ci))
    for i in range(3):
        for j in range(3):
            d_xp[i:i + h, j:j + wd] += np.einsum(
                "hwo,co->hwc", d_out, w[:, i, j, :], optimize=True)
    return d_xp[1:-1, 1:-1], d_w, d_b


def _forward_cached(params: dict, x: np.ndarray):
    p = params
    caches = {}
    a = x
    for i in (1, 2, 3):
        a, caches[f"conv{i}"] = _conv(a, p[f"conv{i}_w"], p[f"conv{i}_b"])
        a, caches[f"relu{i}"] = _relu(a)
        a, caches[f"max{i}"] = _maxpool(a)
    caches["gap_shape"] = a.shape
    feat = a.mean(axis=(0, 1))
    caches["feat"] = feat
    logits = feat @ p["fc_w"] + p["fc_b"]
    return logits, caches


def loss_and_grad(params: dict, x: np.ndarray, label: int):
    """(logits, loss, parameter gradients, input gradient)."""
    p = params
    logits, caches = _forward_cached(p, np.asarray(x, dtype=np.float64))

    zmax = logits.max()
    lse = zmax + np.log(np.exp(logits - zmax).sum())
    loss = float(lse - logits[label])
    d_logits = np.exp(logits - lse)
    d_logits[label] -= 1.0

    grads = {}
    grads["fc_w"] = np.outer(caches["feat"], d_logits)
    grads["fc_b"] = d_logits.copy()
    d_feat = p["fc_w"] @ d_logits
    gh, gw, _ = caches["gap_shape"]
    d_a = np.broadcast_to(d_feat / (gh * gw), caches["gap_shape"]).copy()
    for i in (3, 2, 1):
        d_a = _maxpool_back(d_a, caches[f"max{i}"])
        d_a = d_a * caches[f"relu{i}"]
        d_a, grads[f"conv{i}_w"], grads[f"conv{i}_b"] = _conv_back(d_a, caches[f"conv{i}"])
    return logits, loss, grads, d_a
