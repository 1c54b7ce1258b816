from dataclasses import fields

import numpy as np
import pytest

from cloudmap.cloud import SYNTH_KINDS, AugmentConfig, PointCloud, augment, synth_shape
from cloudmap.net import _avgpool_entry
from cloudmap.pipeline import MAPPERS, PIPELINE_NAMES, Pipeline, make_pipeline
from cloudmap.render import AdaINParams, adain, positional_embedding


def entry_factor(size):
    return -(-size // 64)


def test_table_describes_every_mapper():
    assert PIPELINE_NAMES == tuple(MAPPERS)
    assert [f.name for f in fields(Pipeline)] == ["name", "net", "map_seed"]
    cloud = synth_shape("torus", 128, seed=3)
    for name in PIPELINE_NAMES:
        pipe = make_pipeline(name, 3, seed=0)
        spec = MAPPERS[name]
        image = pipe.map_image(cloud)
        x = pipe.net_input_from_image(image)
        assert (pipe.size, pipe.c_in, pipe.grad_path) == spec[:3]
        assert image.data.shape[:2] == (spec.size, spec.size), name
        assert image.grad_path is spec.grad_path, name
        assert x.shape[2] == pipe.net.c_in == spec.c_in, name
        f = entry_factor(spec.size)
        assert x.shape[:2] == (-(-spec.size // f),) * 2, name
        assert x.shape[0] <= 64 and x.shape[1] <= 64, name
        assert pipe.downsample == 1, name
        if spec.sparse:
            assert spec.size % f == 0, name


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown pipeline"):
        make_pipeline("sketch", 3)


def test_sparse_input_is_the_old_scaled_average_pool():
    # the net once read x * f^2 average-pooled by f, and zbuffer's
    # conditioned image average-pooled by f; the pipeline's inputs must be
    # the same numbers bit for bit, out-of-frame points included
    clouds = [synth_shape(kind, 128, seed=[2, ci]) for ci, kind in enumerate(SYNTH_KINDS)]
    clouds += [augment(c, AugmentConfig(seed=i)) for i, c in enumerate(clouds)]
    clouds.append(PointCloud(1.3 * clouds[0].points))
    assert any(np.abs(c.points[:, :2]).max() >= 1.0 for c in clouds)
    for name, spec in MAPPERS.items():
        pipe = make_pipeline(name, 3, seed=0)
        f = entry_factor(spec.size)
        for c in clouds:
            image = pipe.map_image(c)
            if spec.sparse:
                want, _ = _avgpool_entry(image.data * f ** 2, f)
            else:
                h, w, _ = image.data.shape
                x = np.concatenate([image.data, positional_embedding(h, w)], axis=2)
                want, _ = _avgpool_entry(adain(x, AdaINParams.identity(3))[0], f)
            assert np.array_equal(pipe.net_input_from_image(image), want), name
