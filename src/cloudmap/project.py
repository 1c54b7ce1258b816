"""Basic projection mapping: drop z, scale to pixels, floor, mark occupancy.

Defines MappedImage, the common output type of every mapping here. The
grad_path tag records whether raw point coordinates reach pixel intensities
(CoordinateLeak) or are destroyed by quantization (Blocked); the attack
module keys off it.
"""

import hashlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cloud import PointCloud

SIZE = 456  # side in pixels of the basic and leaky images


class GradPath(Enum):
    BLOCKED = "blocked"
    COORDINATE_LEAK = "coordinate-leak"


def cloud_key(cloud: PointCloud) -> str:
    return hashlib.sha1(np.ascontiguousarray(cloud.points).tobytes()).hexdigest()


@dataclass
class MappedImage:
    """H x W x C intensity grid in [0, 1].

    leak_map is an (L, 4) int array of (row, col, point_index, channel) links,
    present exactly when grad_path is COORDINATE_LEAK; channel k of a linked
    pixel holds (coordinate_k + 1) / 2 of the linked point. source_key
    fingerprints the cloud a leak_map links to, so a stale one can be
    detected; images without a leak_map leave it None.
    """
    data: np.ndarray
    grad_path: GradPath
    leak_map: np.ndarray | None = None
    source_key: str | None = None

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError("data must be (H, W, C)")
        has_leak = self.leak_map is not None and len(self.leak_map) > 0
        if has_leak != (self.grad_path is GradPath.COORDINATE_LEAK):
            raise ValueError("leak_map must be non-empty iff grad_path is COORDINATE_LEAK")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


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
    data = np.zeros((SIZE, SIZE, 1), dtype=np.float64)
    data[rows, cols, 0] = 1.0
    return MappedImage(data, GradPath.BLOCKED)


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
    data = np.zeros((size, size, 3), dtype=np.float64)
    data[rows, cols] = encode(cloud.points[pts])
    links = np.column_stack([np.repeat(rows, 3), np.repeat(cols, 3),
                             np.repeat(pts, 3), np.tile(np.arange(3), len(pts))])
    return MappedImage(data, GradPath.COORDINATE_LEAK, leak_map=links,
                       source_key=cloud_key(cloud))


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
