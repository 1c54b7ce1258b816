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
from .net import TinyNet
from .project import GradPath, MappedImage, basic_project, basic_project_leaky
from .render import AdaINParams, ZBufferConfig, adain, positional_embedding, zbuffer


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
    "zbuffer": Mapper(313, 3, GradPath.BLOCKED, False,
                      lambda p, cloud: zbuffer(cloud, p.zconfig)),
}
PIPELINE_NAMES = tuple(MAPPERS)


@dataclass
class Pipeline:
    name: str
    net: TinyNet
    map_seed: int = 0
    zconfig: ZBufferConfig | None = None
    adain_params: AdaINParams | None = None

    size = property(lambda self: MAPPERS[self.name].size)
    c_in = property(lambda self: MAPPERS[self.name].c_in)
    grad_path = property(lambda self: MAPPERS[self.name].grad_path)

    @property
    def downsample(self) -> int:
        """Net entry average-pool factor; sparse images arrive sum-pooled."""
        return 1 if MAPPERS[self.name].sparse else -(-self.size // 64)

    def map_image(self, cloud: PointCloud) -> MappedImage:
        return MAPPERS[self.name].map(self, cloud)

    def net_input_from_image(self, image: MappedImage) -> np.ndarray:
        x = image.data
        h, w, c = x.shape
        if MAPPERS[self.name].sparse:
            f = -(-self.size // 64)  # divides 456 and 256: every window is full
            return x.reshape(h // f, f, w // f, f, c).sum(axis=(1, 3))
        x = np.concatenate([x, positional_embedding(h, w)], axis=2)
        if self.adain_params is not None:
            x, _ = adain(x, self.adain_params)
        return x

    def net_input(self, cloud: PointCloud) -> np.ndarray:
        return self.net_input_from_image(self.map_image(cloud))


def make_pipeline(name: str, num_classes: int, seed: int = 0,
                  net: TinyNet | None = None, map_seed: int = 0,
                  adain_params: AdaINParams | None = None) -> Pipeline:
    if name not in MAPPERS:
        raise ValueError(f"unknown pipeline {name!r}, expected one of {PIPELINE_NAMES}")
    if adain_params is not None and name != "zbuffer":
        raise ValueError(f"adain_params apply to the zbuffer mapper only, not {name!r}")
    c_in = MAPPERS[name].c_in
    if net is None:
        net = TinyNet(c_in, num_classes, seed=seed)
    elif net.c_in != c_in:
        raise ValueError(f"net expects {net.c_in} channels, mapper provides {c_in}")
    zconfig = ZBufferConfig() if name == "zbuffer" else None
    if name == "zbuffer" and adain_params is None:
        adain_params = AdaINParams.identity(c_in)
    return Pipeline(name=name, net=net, map_seed=map_seed, zconfig=zconfig,
                    adain_params=adain_params)
