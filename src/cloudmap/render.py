"""Depth rendering and feature modulation.

zbuffer() images a cloud onto the plane z = +1, looking toward -z: the
point at (x, y) lands on the pixel of (x, y), and its depth d = 1 - z
becomes intensity exp(-(d - alpha) / beta), splatted into a 3x3
neighborhood where the brightest (nearest) contribution wins. Quantized
pixel coordinates carry no input gradient, so the result is grad-blocked.

adain() rescales each channel of a feature map to statistics predicted
from a scene-control vector; the backward pass is implemented by hand so
the layer can sit inside the numpy training loop.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cloud import PointCloud, check_int, check_real
from .project import GradPath, MappedImage, _pixel_coords

DEFAULT_SCENE_CONTROL = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
ADAIN_EPS = 1e-5  # variance floor of adain, inside the square root


@dataclass(frozen=True)
class ZBufferConfig:
    alpha: float = 0.0   # image plane touches the near side of the unit ball
    beta: float = 1.0
    size: ClassVar[int] = 313
    splat: ClassVar[int] = 3  # odd: the block is centred on the point's pixel
    view: ClassVar[str] = "z"  # the one view: along z, from the positive side

    def __post_init__(self):
        check_real("alpha", self.alpha)
        if check_real("beta", self.beta) <= 0.0:
            raise ValueError("beta must be > 0")


def zbuffer(cloud: PointCloud, config: ZBufferConfig = ZBufferConfig()) -> MappedImage:
    size = config.size
    rows, cols = _pixel_coords(cloud.points, size)
    depth = 1.0 - cloud.points[:, 2]
    inten = np.exp(-(depth - config.alpha) / config.beta)
    inten = np.clip(inten, 0.0, 1.0)

    img = np.zeros((size, size), dtype=np.float64)
    half = config.splat // 2
    for dr in range(-half, half + 1):
        for dc in range(-half, half + 1):
            rr = rows + dr
            cc = cols + dc
            ok = (rr >= 0) & (rr < size) & (cc >= 0) & (cc < size)
            np.maximum.at(img, (rr[ok], cc[ok]), inten[ok])
    return MappedImage(img[:, :, None], GradPath.BLOCKED)


def positional_embedding(height: int, width: int) -> np.ndarray:
    """(H, W, 2): channel 0 is row/(H-1), channel 1 is col/(W-1); a
    1-pixel dimension yields 0."""
    check_int("height", height, 1)
    check_int("width", width, 1)
    r = np.linspace(0.0, 1.0, height)[:, None]
    c = np.linspace(0.0, 1.0, width)[None, :]
    out = np.empty((height, width, 2), dtype=np.float64)
    out[:, :, 0] = r
    out[:, :, 1] = c
    return out


# ---------------------------------------------------------------------------
# adaptive instance normalization

@dataclass
class AdaINParams:
    """Affine maps from the scene-control vector to per-channel styles:
    scale = w_scale @ control + b_scale, bias = w_bias @ control + b_bias."""
    control: np.ndarray  # (D,)
    w_scale: np.ndarray  # (C, D)
    b_scale: np.ndarray  # (C,)
    w_bias: np.ndarray   # (C, D)
    b_bias: np.ndarray   # (C,)

    @classmethod
    def identity(cls, channels: int) -> "AdaINParams":
        """Predicts scale 1 and bias 0 from DEFAULT_SCENE_CONTROL."""
        d = len(DEFAULT_SCENE_CONTROL)
        return cls(DEFAULT_SCENE_CONTROL.copy(),
                   np.zeros((channels, d)), np.ones(channels),
                   np.zeros((channels, d)), np.zeros(channels))

    @classmethod
    def random(cls, channels: int, control: np.ndarray = DEFAULT_SCENE_CONTROL,
               seed: int = 0) -> "AdaINParams":
        rng = np.random.default_rng(check_int("seed", seed, 0))
        d = len(control)
        return cls(np.asarray(control, dtype=np.float64),
                   rng.normal(0.0, 0.1, (channels, d)),
                   1.0 + rng.normal(0.0, 0.1, channels),
                   rng.normal(0.0, 0.1, (channels, d)),
                   rng.normal(0.0, 0.1, channels))


def adain(features: np.ndarray, params: AdaINParams):
    """Normalize each channel over its spatial extent (population std,
    ADAIN_EPS inside the square root), then rescale and shift by the styles
    predicted from the control vector. Channel c of the output has mean
    bias[c] and std |scale[c]| up to the ADAIN_EPS floor. Mean and variance
    add the pixels in order, so a channel normalized alone is bit for bit
    that channel normalized in a stack. Returns (output, cache).

    Three full-size arrays are made: the running sum for the mean, the
    centred features (normalized in place into the cache's xhat), and
    their squares, whose running sum and then the output overwrite them.
    features is never written."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != params.w_scale.shape[0]:
        raise ValueError(f"feature channels do not match params: {x.shape}")
    y_s = params.w_scale @ params.control + params.b_scale
    y_b = params.w_bias @ params.control + params.b_bias
    n = x.shape[0] * x.shape[1]
    mu = np.cumsum(x.reshape(n, -1), axis=0)[-1] / n
    d = x - mu
    sq = d * d
    sq2d = sq.reshape(n, -1)
    var = np.cumsum(sq2d, axis=0, out=sq2d)[-1] / n
    sigma = np.sqrt(var + ADAIN_EPS)
    xhat = d
    xhat /= sigma
    out = np.multiply(y_s, xhat, out=sq)
    out += y_b
    cache = (xhat, sigma, y_s, params)
    return out, cache


def adain_backward(d_out: np.ndarray, cache):
    """Gradients of a scalar loss wrt the adain inputs. Returns
    (d_features, grads) where grads has keys w_scale, b_scale, w_bias,
    b_bias, control."""
    if cache is None:
        raise ValueError("missing forward cache")
    xhat, sigma, y_s, params = cache

    d_ys = (d_out * xhat).sum(axis=(0, 1))
    d_yb = d_out.sum(axis=(0, 1))
    grads = {
        "w_scale": np.outer(d_ys, params.control),
        "b_scale": d_ys,
        "w_bias": np.outer(d_yb, params.control),
        "b_bias": d_yb,
        "control": params.w_scale.T @ d_ys + params.w_bias.T @ d_yb,
    }

    d_xhat = d_out * y_s
    mean_dxhat = d_xhat.mean(axis=(0, 1))
    mean_dxhat_xhat = (d_xhat * xhat).mean(axis=(0, 1))
    d_x = (d_xhat - mean_dxhat - xhat * mean_dxhat_xhat) / sigma
    return d_x, grads
