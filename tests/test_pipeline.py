import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from cloudmap.cloud import SYNTH_KINDS, Mesh, PointCloud, augment, sample_surface, synth_shape
from cloudmap.net import TinyNet
from cloudmap.pipeline import MAPPERS, PIPELINE_NAMES, Pipeline, make_pipeline


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


def test_pipeline_checks_name_and_net_when_built():
    # direct construction and dataclasses.replace check as make_pipeline does
    with pytest.raises(ValueError, match="^unknown pipeline 'bogus'"):
        Pipeline("bogus", TinyNet(3, 5))
    with pytest.raises(ValueError, match="^net expects 1 channels, mapper provides 3$"):
        Pipeline("zbuffer", TinyNet(1, 5))
    with pytest.raises(ValueError, match="^net expects 1 channels, mapper provides 3$"):
        Pipeline("leaky", TinyNet(1, 5))
    pipe = make_pipeline("basic", 5)
    with pytest.raises(ValueError, match="^unknown pipeline 'sketch'"):
        replace(pipe, name="sketch")
    with pytest.raises(ValueError, match="^net expects 1 channels, mapper provides 3$"):
        replace(pipe, name="graphdraw")
    assert replace(pipe, name="leaky", net=TinyNet(3, 5)).c_in == 3
    # fields are frozen, so no assignment can skip the checks
    with pytest.raises(FrozenInstanceError):
        pipe.net = TinyNet(3, 5)
    with pytest.raises(FrozenInstanceError):
        pipe.name = "bogus"
    assert pipe.name == "basic" and pipe.net.c_in == 1


@pytest.mark.parametrize("map_seed", [-1, 1.5, "0", None, True, np.bool_(True)])
def test_pipeline_rejects_a_map_seed_that_is_not_a_non_negative_integer(map_seed):
    # checked when built, not at the first map's default_rng
    message = f"^{re.escape(f'map_seed must be an integer >= 0, got {map_seed!r}')}$"
    with pytest.raises(ValueError, match=message):
        make_pipeline("graphdraw", 5, map_seed=map_seed)
    with pytest.raises(ValueError, match=message):
        replace(make_pipeline("basic", 5), map_seed=map_seed)
    assert make_pipeline("graphdraw", 5, map_seed=np.int64(3)).map_seed == 3


TRIANGLE = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


@pytest.mark.parametrize("name, low, build", [
    ("c_in", 1, lambda v: TinyNet(v, 5)),
    ("num_classes", 1, lambda v: TinyNet(3, v)),
    ("seed", 0, lambda v: TinyNet(3, 5, seed=v)),
    ("seed", 0, lambda v: make_pipeline("leaky", 5, seed=v)),
    ("n", 1, lambda v: sample_surface(TRIANGLE, v, seed=0)),
    ("n", 64, lambda v: synth_shape("sphere", v, seed=0)),
], ids=["TinyNet-c_in", "TinyNet-num_classes", "TinyNet-seed", "make_pipeline-seed",
        "sample_surface-n", "synth_shape-n"])
def test_counts_and_seeds_follow_the_one_integer_rule(name, low, build):
    # cloud.check_int: a bool is an Integral to Python but never a count here
    for bad in (True, np.bool_(True), low - 1, 1.5, "0", None):
        message = f"{name} must be an integer >= {low}, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(bad)
    build(np.int64(low + 1))
    build(np.uint8(low))


def test_sparse_input_is_the_old_scaled_average_pool():
    # the net once read x * f^2 average-pooled by f, and zbuffer's
    # conditioned image average-pooled by f; the pipeline's inputs must be
    # the same numbers bit for bit, out-of-frame points included. The old
    # pool and conditioning are frozen here as they were, so the oracle
    # shares no code with the pipeline's path.
    def old_avgpool_entry(x, factor):
        h, w, c = x.shape
        ph, pw = -(-h // factor), -(-w // factor)
        xp = np.zeros((ph * factor, pw * factor, c))
        xp[:h, :w] = x
        sums = xp.reshape(ph, factor, pw, factor, c).sum(axis=(1, 3))
        rows = np.minimum(factor, h - factor * np.arange(ph))
        cols = np.minimum(factor, w - factor * np.arange(pw))
        counts = rows[:, None] * cols[None, :]
        return sums / counts[:, :, None]

    def old_zbuffer_conditioning(data):
        # positional channels, then adain with AdaINParams.identity(3)
        h, w, _ = data.shape
        pos = np.empty((h, w, 2))
        pos[:, :, 0] = np.linspace(0.0, 1.0, h)[:, None]
        pos[:, :, 1] = np.linspace(0.0, 1.0, w)[None, :]
        x = np.concatenate([data, pos], axis=2)
        mu = x.mean(axis=(0, 1))
        var = x.var(axis=(0, 1))
        xhat = (x - mu) / np.sqrt(var + 1e-5)
        return np.ones(3) * xhat + np.zeros(3)

    clouds = [synth_shape(kind, 128, seed=[2, ci]) for ci, kind in enumerate(SYNTH_KINDS)]
    clouds += [augment(c, i) for i, c in enumerate(clouds)]
    clouds.append(PointCloud(1.3 * clouds[0].points))
    clouds += [synth_shape(kind, n, seed=[3, ci, n])
               for n in (256, 1024) for ci, kind in enumerate(SYNTH_KINDS)]
    assert any(np.abs(c.points[:, :2]).max() >= 1.0 for c in clouds)
    for name, spec in MAPPERS.items():
        pipe = make_pipeline(name, 3, seed=0)
        f = entry_factor(spec.size)
        for c in clouds:
            image = pipe.map_image(c)
            if spec.sparse:
                want = old_avgpool_entry(image.data * f ** 2, f)
            else:
                want = old_avgpool_entry(old_zbuffer_conditioning(image.data), f)
            assert np.array_equal(pipe.net_input_from_image(image), want), name
