"""Every scalar argument the library checks follows one of two rules:
cloud.check_int for counts, seeds, steps and sizes, and cloud.check_real
for real numbers. A value that breaks its rule raises ValueError naming
the argument, before any cloud is mapped or any Lloyd step runs."""

import re

import numpy as np
import pytest

from cloudmap import graphdraw
from cloudmap.attack import attack_suite, fgsm
from cloudmap.cloud import check_int, check_real, synth_shape
from cloudmap.graphdraw import Graph, balanced_kmeans, grid_embed_many
from cloudmap.net import TinyNet, TrainConfig, adam_step, init_adam_state, lr_at
from cloudmap.pipeline import Pipeline, make_pipeline
from cloudmap.render import ZBufferConfig, positional_embedding

CLOUD = synth_shape("sphere", 64, seed=0)


def adam(**kw):
    net = TinyNet(1, 3)
    zeros = {name: np.zeros_like(p) for name, p in net.params.items()}
    adam_step(net.params, zeros, init_adam_state(net), **({"t": 1, "lr": 0.001} | kw))


# case id: (argument, rule, call with the argument set to a value)
ARGUMENTS = {
    "fgsm-epsilon": ("epsilon", check_real,
                     lambda v: fgsm(make_pipeline("leaky", 5), CLOUD, 0, epsilon=v)),
    "attack_suite-epsilon": ("epsilon", check_real,
                             lambda v: attack_suite(make_pipeline("leaky", 5), [CLOUD], epsilon=v)),
    "TrainConfig-lr": ("lr", check_real, lambda v: TrainConfig(lr=v)),
    "adam_step-lr": ("lr", check_real, lambda v: adam(lr=v)),
    "ZBufferConfig-alpha": ("alpha", check_real, lambda v: ZBufferConfig(alpha=v)),
    "ZBufferConfig-beta": ("beta", check_real, lambda v: ZBufferConfig(beta=v)),
    "lr_at-epoch": ("epoch", check_int, lambda v: lr_at(v, TrainConfig())),
    "adam_step-t": ("t", check_int, lambda v: adam(t=v)),
    "balanced_kmeans-k": ("k", check_int, lambda v: balanced_kmeans(CLOUD, k=v)),
    "balanced_kmeans-alpha": ("alpha", check_real,
                              lambda v: balanced_kmeans(CLOUD, k=4, alpha=v)),
    "grid_embed_many-grid_size": ("grid_size", check_int, lambda v: grid_embed_many(
        [Graph(2, [[0, 1]])], [np.zeros((2, 3))], grid_size=v)),
    "Graph-n_vertices": ("n_vertices", check_int, lambda v: Graph(v, np.empty((0, 2)))),
    "positional_embedding-height": ("height", check_int, lambda v: positional_embedding(v, 4)),
    "positional_embedding-width": ("width", check_int, lambda v: positional_embedding(4, v)),
}
BAD_VALUES = {
    check_int: [True, "1", None, 2.5],
    check_real: [True, "1", None, float("nan"), float("inf"), -float("inf")],
}


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{case}-{value!r}")
    for case, (name, rule, call) in ARGUMENTS.items() for value in BAD_VALUES[rule]])
def test_every_routed_argument_breaks_its_rule_before_any_map(monkeypatch, name, call, value):
    def never(*args):
        raise AssertionError("a cloud was mapped or a Lloyd step ran")

    monkeypatch.setattr(Pipeline, "map_image", never)
    monkeypatch.setattr(graphdraw, "_kmeanspp_init", never)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be .*, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("value, want", [
    (0.5, 0.5), (3, 3.0), (np.float32(0.25), 0.25), (np.int64(-2), -2.0)])
def test_check_real_returns_a_python_float(value, want):
    got = check_real("x", value)
    assert type(got) is float and got == want


@pytest.mark.parametrize("value, message", [
    (True, "x must be a number, got True"),
    (np.True_, "x must be a number, got np.True_"),
    ("0.5", "x must be a number, got '0.5'"),
    (None, "x must be a number, got None"),
    (float("nan"), "x must be finite, got nan"),
    pytest.param(10 ** 400, f"x must be finite, got {10 ** 400}", id="int-past-the-float-range"),
    (np.float64(-np.inf), "x must be finite, got np.float64(-inf)"),
    (np.float32(np.inf), "x must be finite, got np.float32(inf)"),
])
def test_check_real_rejects_what_is_not_a_finite_number(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_real("x", value)
