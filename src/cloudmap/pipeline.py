"""A Pipeline bundles one cloud-to-image mapper with the classifier that
consumes it, so training, evaluation, and attacks all see one object.

The mapper fixes the gradient topology: basic occupancy and z-buffer
images are quantized (blocked), while the leaky projection and the
graph-drawing image carry raw coordinates in their intensities
(coordinate leak), which is exactly the surface the attack module probes.
"""

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cloud import PointCloud, check_int
from .graphdraw import GRID, map_graphdraw
from .net import TinyNet
from .project import SIZE, GradPath, MappedImage, basic_project, basic_project_leaky, encode_slope
from .render import AdaINParams, ZBufferConfig, adain, positional_embedding, zbuffer

ZCONFIG = ZBufferConfig()


def _window_sum(x: np.ndarray, factor: int) -> np.ndarray:
    """Sums over factor x factor windows of an (H, W, C) array; a partial
    edge window sums the pixels present. The strided slices x[i::f, j::f]
    are added in row-major (i, j) order, the order in which numpy reduces
    x.reshape(h/f, f, w/f, f, c) over axes (1, 3) when C >= 2, so those
    sums are bit-identical; for C == 1 numpy sums each window row first,
    which can differ in the last bit. Each pass reads only the pixels it
    adds."""
    h, w, c = x.shape
    out = np.zeros((-(-h // factor), -(-w // factor), c))
    for i in range(factor):
        for j in range(factor):
            s = x[i::factor, j::factor]
            out[:s.shape[0], :s.shape[1]] += s
    return out


def _sum_pool(image: MappedImage, factor: int) -> np.ndarray:
    """Sums a sparse image over factor x factor windows. A record image's
    lit pixels are added in row-major order, the order in which
    _window_sum adds each window's pixels, and its other pixels are zero,
    so the two are bit-identical; this reads only the lit pixels. A
    dense-built image goes to _window_sum itself."""
    if image.scatter is None:
        return _window_sum(image.data, factor)
    rows, cols, values, _ = image.scatter
    order = np.argsort(rows * image.width + cols, kind="stable")
    rows, cols, values = rows[order], cols[order], values[order]
    ph, pw = -(-image.height // factor), -(-image.width // factor)
    out = np.zeros((ph * pw, image.channels))
    np.add.at(out, rows // factor * pw + cols // factor, values)
    return out.reshape(ph, pw, image.channels)


def _avgpool_entry(x: np.ndarray, factor: int) -> np.ndarray:
    """Downsample by an integer factor; partial edge windows are averaged
    over the pixels actually present."""
    h, w, _ = x.shape
    rows = np.minimum(factor, h - factor * np.arange(-(-h // factor)))
    cols = np.minimum(factor, w - factor * np.arange(-(-w // factor)))
    counts = rows[:, None] * cols[None, :]
    return _window_sum(x, factor) / counts[:, :, None]


@functools.cache
def _zbuffer_positional(h: int, w: int, f: int) -> np.ndarray:
    """Channels 1-2 of zbuffer's net input: the positional embedding under
    identity AdaIN, average-pooled. They are the same for every depth
    image, so they are built on first use and kept read-only."""
    x, _ = adain(positional_embedding(h, w), AdaINParams.identity(2))
    out = _avgpool_entry(x, f)
    out.flags.writeable = False
    return out


class Mapper(NamedTuple):
    size: int
    c_in: int  # channels of the net input
    grad_path: GradPath
    sparse: bool  # one lit pixel per point at most; a sum pool keeps inputs O(1)
    map: Callable  # (pipeline, cloud) -> MappedImage


# Each map call names its mapper as a module global when it runs, so a
# wrapper installed on this module (a tracer, say) sees every call.
MAPPERS = {
    "basic": Mapper(SIZE, 1, GradPath.BLOCKED, True,
                    lambda p, cloud: basic_project(cloud)),
    "leaky": Mapper(SIZE, 3, GradPath.COORDINATE_LEAK, True,
                    lambda p, cloud: basic_project_leaky(cloud)),
    "graphdraw": Mapper(GRID * GRID, 3, GradPath.COORDINATE_LEAK, True,
                        lambda p, cloud: map_graphdraw(cloud, seed=p.map_seed)),
    "zbuffer": Mapper(ZCONFIG.size, 3, GradPath.BLOCKED, False,
                      lambda p, cloud: zbuffer(cloud, ZCONFIG)),
}
PIPELINE_NAMES = tuple(MAPPERS)


def _mapper(name: str) -> Mapper:
    if name not in MAPPERS:
        raise ValueError(f"unknown pipeline {name!r}, expected one of {PIPELINE_NAMES}")
    return MAPPERS[name]


@dataclass(frozen=True)
class Pipeline:
    name: str
    net: TinyNet
    map_seed: int = 0

    size = property(lambda self: MAPPERS[self.name].size)
    c_in = property(lambda self: MAPPERS[self.name].c_in)
    grad_path = property(lambda self: MAPPERS[self.name].grad_path)
    pool_factor = property(lambda self: -(-self.size // 64))  # net input <= 64x64
    zconfig = property(lambda self: ZCONFIG if self.name == "zbuffer" else None)
    # net inputs arrive pooled; the benchmark and criterion 7 still read this
    downsample = property(lambda self: 1)

    def __post_init__(self):
        c_in = _mapper(self.name).c_in
        if self.net.c_in != c_in:
            raise ValueError(f"net expects {self.net.c_in} channels, mapper provides {c_in}")
        check_int("map_seed", self.map_seed, 0)

    def map_image(self, cloud: PointCloud) -> MappedImage:
        return MAPPERS[self.name].map(self, cloud)

    def net_input_from_image(self, image: MappedImage) -> np.ndarray:
        """The array TinyNet reads, at most 64x64. Sparse images are
        sum-pooled from their lit pixels; zbuffer gets positional channels
        and identity AdaIN over every pixel, then an average pool by 5."""
        f = self.pool_factor
        if MAPPERS[self.name].sparse:
            return _sum_pool(image, f)
        x = image.data
        depth = _avgpool_entry(adain(x, AdaINParams.identity(1))[0], f)
        return np.concatenate([depth, _zbuffer_positional(*x.shape[:2], f)], axis=2)

    def net_input(self, cloud: PointCloud) -> np.ndarray:
        return self.net_input_from_image(self.map_image(cloud))

    def point_gradient(self, cloud: PointCloud, image: MappedImage,
                       d_input: np.ndarray) -> np.ndarray:
        """The adjoint of net_input_from_image on a sparse leak image of
        cloud: chains the net-input gradient d_input back through the
        image's scatter record, so each recorded point gets, on every
        channel, the encode's slope times the gradient of the cell its
        pixel is sum-pooled into. Pixel assignments are held fixed."""
        if image.scatter is None or image.scatter.pts is None:
            raise ValueError("image has no scatter record linking points to pixels")
        f = self.pool_factor
        rows, cols, _, pts = image.scatter
        grad = np.zeros_like(cloud.points)
        np.add.at(grad, pts, encode_slope(cloud.points[pts]) * d_input[rows // f, cols // f])
        return grad


def make_pipeline(name: str, num_classes: int, seed: int = 0, map_seed: int = 0) -> Pipeline:
    return Pipeline(name, TinyNet(_mapper(name).c_in, num_classes, seed=seed), map_seed)
