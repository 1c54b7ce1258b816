"""Basic projection mapping: drop z, scale to pixels, floor, mark occupancy.

Defines MappedImage, the common output type of every mapping here. The
grad_path tag records whether raw point coordinates reach pixel intensities
(CoordinateLeak) or are destroyed by quantization (Blocked); the attack
module keys off it.
"""

import hashlib
from enum import Enum
from typing import NamedTuple

import numpy as np

from .cloud import PointCloud

SIZE = 456  # side in pixels of the basic and leaky images


class GradPath(Enum):
    BLOCKED = "blocked"
    COORDINATE_LEAK = "coordinate-leak"


def cloud_key(cloud: PointCloud) -> str:
    return hashlib.sha1(np.ascontiguousarray(cloud.points).tobytes()).hexdigest()


class Scatter(NamedTuple):
    """The lit pixels of a sparse image: pixel j is (rows[j], cols[j]) and
    holds the channel values values[j]; pts[j] is the point it encodes, or
    pts is None for a mapper that links no point. Pixels are distinct."""
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray  # (L, C)
    pts: np.ndarray | None


class MappedImage:
    """H x W x C intensity grid in [0, 1].

    leak_map is an (L, 4) int array of (row, col, point_index, channel) links,
    present exactly when grad_path is COORDINATE_LEAK; channel k of a linked
    pixel holds (coordinate_k + 1) / 2 of the linked point. source_key
    fingerprints the cloud a leak_map links to, so a stale one can be
    detected; images without a leak_map leave it None.

    The constructor takes a dense image. Sparse mappers build theirs with
    from_scatter, which keeps only the scatter record; data and leak_map
    are then built from the record on first read, and writing to them
    leaves the record as it was. scatter is None for a dense-built image.
    """

    def __init__(self, data: np.ndarray, grad_path: GradPath,
                 leak_map: np.ndarray | None = None, source_key: str | None = None):
        if data.ndim != 3:
            raise ValueError("data must be (H, W, C)")
        self._set(data.shape, grad_path, source_key,
                  leak_map is not None and len(leak_map) > 0)
        self.scatter = None
        self._data, self._leak_map = data, leak_map

    @classmethod
    def from_scatter(cls, shape: tuple, grad_path: GradPath, scatter: Scatter,
                     source_key: str | None) -> "MappedImage":
        """The (H, W, C) image lit only at scatter's pixels, linked on
        every channel to scatter.pts when those are given."""
        image = object.__new__(cls)
        image._set(shape, grad_path, source_key,
                   scatter.pts is not None and len(scatter.pts) > 0)
        image.scatter = scatter
        image._data = image._leak_map = None
        return image

    def _set(self, shape, grad_path, source_key, has_leak):
        if has_leak != (grad_path is GradPath.COORDINATE_LEAK):
            raise ValueError("leak_map must be non-empty iff grad_path is COORDINATE_LEAK")
        self.shape, self.grad_path, self.source_key = shape, grad_path, source_key

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            s = self.scatter
            self._data = np.zeros(self.shape)
            self._data[s.rows, s.cols] = s.values
        return self._data

    @property
    def leak_map(self) -> np.ndarray | None:
        s = self.scatter
        if self._leak_map is None and s is not None and s.pts is not None:
            c = self.channels
            self._leak_map = np.column_stack([
                np.repeat(s.rows, c), np.repeat(s.cols, c), np.repeat(s.pts, c),
                np.tile(np.arange(c), len(s.pts))])
        return self._leak_map

    @property
    def height(self) -> int:
        return self.shape[0]

    @property
    def width(self) -> int:
        return self.shape[1]

    @property
    def channels(self) -> int:
        return self.shape[2]


def _pixel_coords(points: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Floor mapping from world (x, y) to (row, col); y grows upward in the
    world, row index grows downward. Out-of-frame points clamp to the border."""
    rows = np.floor((1.0 - points[:, 1]) / 2.0 * size)
    cols = np.floor((points[:, 0] + 1.0) / 2.0 * size)
    return (np.clip(rows, 0, size - 1).astype(np.int64),
            np.clip(cols, 0, size - 1).astype(np.int64))


def basic_project(cloud: PointCloud) -> MappedImage:
    """Binary occupancy image of the cloud's (x, y) footprint; z is discarded.

    The floor quantization has zero derivative almost everywhere, so the
    result carries no usable input gradient: grad_path is Blocked.
    """
    rows, cols = _pixel_coords(cloud.points, SIZE)
    rows, cols = np.divmod(np.unique(rows * SIZE + cols), SIZE)
    return MappedImage.from_scatter((SIZE, SIZE, 1), GradPath.BLOCKED,
                                    Scatter(rows, cols, np.ones((len(rows), 1)), None),
                                    None)


def encode(t: np.ndarray) -> np.ndarray:
    """Pixel intensity of coordinate t: clip((t + 1) / 2, 0, 1)."""
    return np.clip((t + 1.0) / 2.0, 0.0, 1.0)


def encode_slope(t: np.ndarray) -> np.ndarray:
    """d encode / dt: 1/2 where |t| <= 1, 0 where the clip holds it."""
    return np.where(np.abs(t) <= 1.0, 0.5, 0.0)


def leaky_image(cloud: PointCloud, size: int, rows: np.ndarray, cols: np.ndarray,
                pts: np.ndarray) -> MappedImage:
    """size x size x 3 image that lights pixel (rows[j], cols[j]) with the
    encoded point pts[j], linked on all channels; pixels must be distinct."""
    return MappedImage.from_scatter((size, size, 3), GradPath.COORDINATE_LEAK,
                                    Scatter(rows, cols, encode(cloud.points[pts]), pts),
                                    cloud_key(cloud))


def basic_project_leaky(cloud: PointCloud) -> MappedImage:
    """Same occupancy geometry as basic_project, but each lit pixel's three
    channels hold the mapped point's coordinates encoded as (t + 1) / 2.

    Collisions resolve last-writer-wins in ascending point order; leak_map
    records only the surviving links, so it is exactly the image's
    dependency on the cloud.
    """
    rows, cols = _pixel_coords(cloud.points, SIZE)
    # the first occurrence of a pixel in reversed order is its last writer
    _, first = np.unique((rows * SIZE + cols)[::-1], return_index=True)
    winners = cloud.n - 1 - first
    return leaky_image(cloud, SIZE, rows[winners], cols[winners], winners)


def remap_frozen(image: MappedImage, cloud: PointCloud) -> np.ndarray:
    """Re-encode pixel intensities from the (possibly perturbed) cloud while
    holding the pixel/point assignment in leak_map fixed.

    This is the differentiable branch of a leaky mapping in isolation; the
    attack module uses it for finite-difference checks of the leak gradient.
    """
    if image.leak_map is None:
        raise ValueError("image has no leak_map")
    data = image.data.copy()
    rows, cols, pts, chans = image.leak_map.T
    data[rows, cols, chans] = encode(cloud.points[pts, chans])
    return data
