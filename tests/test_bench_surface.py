"""The part of the program the benchmark in perfbench/ reads: every name
its tracer wraps, the pipeline fields and properties its workloads use,
and the net entry its reference logits check."""

import copy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from cloudmap import cli, net, pipeline  # noqa: F401  (the tracer wraps cli too)
from cloudmap.cloud import synth_shape
from cloudmap.pipeline import PIPELINE_NAMES, make_pipeline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402
import tracer  # noqa: E402


def test_tracer_wraps_every_traced_name_and_restores_it():
    forward, map_image = net.forward, pipeline.Pipeline.map_image
    cloud = synth_shape("cone", 128, seed=1)
    # zbuffer's conditioned positional channels are built once per process
    pipeline._zbuffer_positional.cache_clear()
    t = tracer.Tracer()
    try:
        t.install()  # raises if a traced name is gone
        for name in PIPELINE_NAMES:
            p = make_pipeline(name, 5, seed=0)
            net.forward(p.net, p.net_input(cloud), downsample=p.downsample)
        make_pipeline("zbuffer", 5, seed=1).net_input(cloud)
    finally:
        t.uninstall()
    assert net.forward is forward and pipeline.Pipeline.map_image is map_image
    assert t.calls["net.forward"] == len(PIPELINE_NAMES)
    for key in ("pipeline.map_image", "pipeline.net_input_from_image"):
        assert t.calls[key] == len(PIPELINE_NAMES) + 1, key
    assert t.calls["render.zbuffer"] == 2
    # adain conditions each depth image, then once the positional channels
    assert t.calls["render.adain"] == 3
    for key in ("project.basic_project", "project.basic_project_leaky",
                "graphdraw.map_graphdraw", "render.positional_embedding"):
        assert t.calls[key] == 1, key


def test_pipeline_surface_matches_the_reference_logits():
    cloud = synth_shape("torus", 128, seed=2)
    for name in PIPELINE_NAMES:
        pipe = make_pipeline(name, 5, seed=3, map_seed=3)
        p = replace(pipe, net=copy.deepcopy(pipe.net))
        assert (p.name, p.map_seed) == (name, 3)
        x = p.net_input(cloud)
        assert x.shape[0] <= 64 and x.shape[1] <= 64, name
        got = net.forward(p.net, x, downsample=p.downsample)
        want = reference.tinynet_logits(p.net.params, x, p.downsample)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name
        if name == "zbuffer":
            z = p.zconfig
            assert z.view == "z" and z.size == p.size, name
            assert (z.alpha, z.beta, z.splat) == (0.0, 1.0, 3)
