"""A Pipeline bundles one cloud-to-image mapper with the classifier that
consumes it, so training, evaluation, and attacks all see one object.

The mapper fixes the gradient topology: basic occupancy and z-buffer
images are quantized (blocked), while the leaky projection and the
graph-drawing image carry raw coordinates in their intensities
(coordinate leak), which is exactly the surface the attack module probes.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cloud import PointCloud
from .graphdraw import map_graphdraw
from .net import TinyNet, _avgpool_entry
from .project import GradPath, MappedImage, basic_project, basic_project_leaky
from .render import AdaINParams, ZBufferConfig, adain, positional_embedding, zbuffer

ZCONFIG = ZBufferConfig()
ZBUFFER_ADAIN = AdaINParams.identity(3)  # image, row and column channels


class Mapper(NamedTuple):
    size: int
    c_in: int  # channels of the net input
    grad_path: GradPath
    sparse: bool  # one lit pixel per point at most; a sum pool keeps inputs O(1)
    map: Callable  # (pipeline, cloud) -> MappedImage


# Each map call names its mapper as a module global when it runs, so a
# wrapper installed on this module (a tracer, say) sees every call.
MAPPERS = {
    "basic": Mapper(456, 1, GradPath.BLOCKED, True,
                    lambda p, cloud: basic_project(cloud, size=p.size)),
    "leaky": Mapper(456, 3, GradPath.COORDINATE_LEAK, True,
                    lambda p, cloud: basic_project_leaky(cloud, size=p.size)),
    "graphdraw": Mapper(256, 3, GradPath.COORDINATE_LEAK, True,
                        lambda p, cloud: map_graphdraw(cloud, seed=p.map_seed)),
    "zbuffer": Mapper(ZCONFIG.size, 3, GradPath.BLOCKED, False,
                      lambda p, cloud: zbuffer(cloud, ZCONFIG)),
}
PIPELINE_NAMES = tuple(MAPPERS)


@dataclass
class Pipeline:
    name: str
    net: TinyNet
    map_seed: int = 0

    size = property(lambda self: MAPPERS[self.name].size)
    c_in = property(lambda self: MAPPERS[self.name].c_in)
    grad_path = property(lambda self: MAPPERS[self.name].grad_path)
    zconfig = property(lambda self: ZCONFIG if self.name == "zbuffer" else None)
    # net inputs arrive pooled; the benchmark and criterion 7 still read this
    downsample = property(lambda self: 1)

    def map_image(self, cloud: PointCloud) -> MappedImage:
        return MAPPERS[self.name].map(self, cloud)

    def net_input_from_image(self, image: MappedImage) -> np.ndarray:
        """The array TinyNet reads, at most 64x64. Sparse images are
        sum-pooled; zbuffer gets positional channels and identity AdaIN,
        then an average pool by 5."""
        x = image.data
        h, w, c = x.shape
        f = -(-self.size // 64)
        if MAPPERS[self.name].sparse:
            # f divides 456 and 256: every window is full
            return x.reshape(h // f, f, w // f, f, c).sum(axis=(1, 3))
        x = np.concatenate([x, positional_embedding(h, w)], axis=2)
        x, _ = adain(x, ZBUFFER_ADAIN)
        return _avgpool_entry(x, f)[0]

    def net_input(self, cloud: PointCloud) -> np.ndarray:
        return self.net_input_from_image(self.map_image(cloud))


def make_pipeline(name: str, num_classes: int, seed: int = 0,
                  net: TinyNet | None = None, map_seed: int = 0) -> Pipeline:
    if name not in MAPPERS:
        raise ValueError(f"unknown pipeline {name!r}, expected one of {PIPELINE_NAMES}")
    c_in = MAPPERS[name].c_in
    if net is None:
        net = TinyNet(c_in, num_classes, seed=seed)
    elif net.c_in != c_in:
        raise ValueError(f"net expects {net.c_in} channels, mapper provides {c_in}")
    return Pipeline(name=name, net=net, map_seed=map_seed)
