import re

import numpy as np
import pytest

from cloudmap import attack as attack_module
from cloudmap import net as net_module
from cloudmap.attack import BLOCKED_GRADIENT, asr, attack_suite, fgsm, input_point_gradient
from cloudmap.cloud import PointCloud, synth_shape
from cloudmap.net import TrainConfig, evaluate, loss_and_grad, predict, train
from cloudmap.pipeline import Pipeline, make_pipeline
from cloudmap.project import MappedImage, remap_frozen


def labeled(points, label=0):
    return PointCloud(np.asarray(points, dtype=np.float64), label=label)


def small_testset(per=3, n=96):
    out = []
    for ci, kind in enumerate(("sphere", "cube", "torus")):
        for i in range(per):
            c = synth_shape(kind, n, seed=[50, ci, i])
            out.append(PointCloud(c.points, label=ci))
    return out


# ---------------------------------------------------------------------------
# input_point_gradient

def test_blocked_pipelines_return_marker():
    for name in ("basic", "zbuffer"):
        pipe = make_pipeline(name, 3, seed=0)
        g = input_point_gradient(pipe, labeled(np.zeros((4, 3))), 0)
        assert g is BLOCKED_GRADIENT
        assert g is None  # the value that already means "no link"


def test_single_point_gradient_is_half_net_gradient():
    pipe = make_pipeline("leaky", 3, seed=0)
    cloud = labeled([[0.25, -0.5, 0.75]])
    image = pipe.map_image(cloud)
    x = pipe.net_input_from_image(image)
    _, _, d_input = loss_and_grad(pipe.net, x, 0, downsample=pipe.downsample)
    # the net reads the sum-pooled image: a pixel's gradient is its cell's
    f = image.height // d_input.shape[0]
    assert f == 8
    r, c = image.leak_map[0, 0], image.leak_map[0, 1]
    expected = 0.5 * d_input[r // f, c // f, :]
    got = input_point_gradient(pipe, cloud, 0)
    assert got.shape == (1, 3)
    assert np.allclose(got[0], expected, atol=1e-15)
    assert np.any(got != 0.0)


def frozen_loss(pipe, image, points, label):
    """Loss with the leak_map's pixel assignment held fixed."""
    data = remap_frozen(image, PointCloud(points))
    x = pipe.net_input_from_image(
        type(image)(data, image.grad_path, leak_map=image.leak_map,
                    source_key=image.source_key))
    loss, _, _ = loss_and_grad(pipe.net, x, label, downsample=pipe.downsample)
    return loss


def test_leak_gradient_matches_finite_differences():
    pipe = make_pipeline("leaky", 3, seed=0)
    cloud = labeled(synth_shape("sphere", 64, seed=1).points, label=1)
    image = pipe.map_image(cloud)
    grad = input_point_gradient(pipe, cloud, 1, image=image)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(8):
        i, j = int(rng.integers(64)), int(rng.integers(3))
        eps = 1e-6
        pts = cloud.points.copy()
        pts[i, j] += eps
        lp = frozen_loss(pipe, image, pts, 1)
        pts[i, j] -= 2 * eps
        lm = frozen_loss(pipe, image, pts, 1)
        fd = (lp - lm) / (2 * eps)
        denom = max(abs(fd), abs(grad[i, j]), 1e-8)
        worst = max(worst, abs(fd - grad[i, j]) / denom)
    assert worst < 1e-3


def test_leak_gradient_is_zero_where_encode_clips():
    # z = 1.4 encodes to clip(1.2, 0, 1) = 1: the loss cannot see small moves
    pipe = make_pipeline("leaky", 5, seed=0)
    points = synth_shape("sphere", 1024, seed=[0, 1, 0, 0]).points.copy()
    points[0, 2] = 1.4
    cloud = labeled(points, label=0)
    image = pipe.map_image(cloud)
    assert 0 in image.leak_map[:, 2]
    grad = input_point_gradient(pipe, cloud, 0, image=image)
    eps = 1e-6
    plus, minus = points.copy(), points.copy()
    plus[0, 2] += eps
    minus[0, 2] -= eps
    fd = (frozen_loss(pipe, image, plus, 0) - frozen_loss(pipe, image, minus, 0)) / (2 * eps)
    assert fd == 0.0
    assert grad[0, 2] == 0.0
    assert np.all(grad[0, :2] != 0.0)  # the unclipped coordinates still leak


def test_evaluate_and_attack_suite_read_only_the_scatter_record(monkeypatch):
    def dense(image):
        raise AssertionError("built a dense image or leak map")
    monkeypatch.setattr(MappedImage, "data", property(dense))
    monkeypatch.setattr(MappedImage, "leak_map", property(dense))
    testset = small_testset(per=2, n=64)
    for name in ("basic", "leaky"):
        pipe = make_pipeline(name, 3, seed=0)
        evaluate(pipe.net, pipe, testset)
        report = attack_suite(pipe, testset, epsilon=0.05)
        assert (report.mean_perturbation_l2 > 0.0) == (name == "leaky")


def test_leak_gradient_needs_the_scatter_record():
    pipe = make_pipeline("leaky", 3, seed=0)
    cloud = labeled(synth_shape("cube", 64, seed=3).points)
    image = pipe.map_image(cloud)
    dense = MappedImage(image.data, image.grad_path, leak_map=image.leak_map,
                        source_key=image.source_key)
    with pytest.raises(ValueError, match="no scatter record"):
        input_point_gradient(pipe, cloud, 0, image=dense)
    d_input = np.ones_like(pipe.net_input_from_image(image))
    with pytest.raises(ValueError, match="no scatter record"):
        pipe.point_gradient(cloud, dense, d_input)
    blocked = make_pipeline("basic", 3, seed=0)  # its record links no point
    with pytest.raises(ValueError, match="no scatter record linking points"):
        blocked.point_gradient(cloud, blocked.map_image(cloud), d_input)


def test_stale_leak_map_rejected():
    pipe = make_pipeline("leaky", 3, seed=0)
    cloud = labeled(synth_shape("cube", 64, seed=3).points)
    image = pipe.map_image(cloud)
    moved = labeled(cloud.points + 0.01)
    with pytest.raises(ValueError):
        input_point_gradient(pipe, moved, 0, image=image)


def test_graphdraw_gradient_touches_every_point():
    pipe = make_pipeline("graphdraw", 3, seed=0)
    cloud = labeled(synth_shape("torus", 96, seed=4).points, label=2)
    grad = input_point_gradient(pipe, cloud, 2)
    assert grad.shape == (96, 3)
    # links exist for every point and channel; with a trained-free random
    # net most gradients are nonzero
    assert np.count_nonzero(np.linalg.norm(grad, axis=1)) > 90


# ---------------------------------------------------------------------------
# fgsm

@pytest.mark.parametrize("name", ["basic", "zbuffer"])
def test_fgsm_blocked_identity(name):
    pipe = make_pipeline(name, 3, seed=0)
    cloud = labeled(synth_shape("sphere", 64, seed=5).points)
    res = fgsm(pipe, cloud, 0, epsilon=0.1)
    assert res.blocked
    assert res.grad_norm == 0.0
    assert res.cloud is cloud  # literally unchanged
    assert np.linalg.norm(res.cloud.points - cloud.points) == 0.0


def test_fgsm_epsilon_zero_identity():
    pipe = make_pipeline("leaky", 3, seed=0)
    cloud = labeled(synth_shape("cube", 64, seed=6).points)
    res = fgsm(pipe, cloud, 0, epsilon=0.0)
    assert not res.blocked
    assert np.array_equal(res.cloud.points, cloud.points)


def test_fgsm_moves_by_exactly_epsilon():
    pipe = make_pipeline("leaky", 3, seed=0)
    cloud = labeled(synth_shape("torus", 64, seed=7).points, label=1)
    grad = input_point_gradient(pipe, cloud, 1)
    res = fgsm(pipe, cloud, 1, epsilon=0.1)
    assert np.array_equal(res.cloud.points,
                          cloud.points + 0.1 * np.sign(grad))
    delta = res.cloud.points - cloud.points
    nz = grad != 0.0
    assert np.allclose(np.abs(delta[nz]), 0.1, atol=1e-12)
    assert np.all(delta[~nz] == 0.0)
    assert res.grad_norm == pytest.approx(float(np.linalg.norm(grad)))


def test_fgsm_pure_function():
    pipe = make_pipeline("leaky", 3, seed=0)
    cloud = labeled(synth_shape("cone", 64, seed=8).points)
    a = fgsm(pipe, cloud, 0, epsilon=0.1)
    b = fgsm(pipe, cloud, 0, epsilon=0.1)
    assert np.array_equal(a.cloud.points, b.cloud.points)


# ---------------------------------------------------------------------------
# asr formula against the frozen reference pairs

def test_asr_reference_row_one():
    assert abs(asr(90.15, 45.99) - 48.99) < 0.01


def test_asr_reference_row_two():
    assert abs(asr(84.97, 24.76) - 70.86) < 0.01


def test_asr_reference_row_three():
    assert abs(asr(89.51, 89.51) - 0.00) < 0.01


def test_asr_edge_cases():
    assert asr(0.0, 0.0) == 0.0
    assert asr(50.0, 60.0) == 0.0  # attack helped; clamped
    assert asr(50.0, 0.0) == 100.0


# ---------------------------------------------------------------------------
# attack_suite

def test_attack_suite_blocked_exact_equality():
    pipe = make_pipeline("basic", 3, seed=0)
    report = attack_suite(pipe, small_testset(), epsilon=0.1)
    assert report.attacked_accuracy == report.clean_accuracy
    assert report.attack_success_rate == 0.0
    assert report.mean_perturbation_l2 == 0.0
    for o in report.outcomes:
        assert o["attacked_pred"] == o["clean_pred"]
        assert o["perturbation_l2"] == 0.0


def test_attack_suite_leak_perturbs():
    pipe = make_pipeline("leaky", 3, seed=0)
    report = attack_suite(pipe, small_testset(), epsilon=0.1)
    assert report.mean_perturbation_l2 > 0.0
    assert 0.0 <= report.attack_success_rate <= 100.0
    assert len(report.outcomes) == 9


def test_attack_suite_empty_rejected():
    pipe = make_pipeline("basic", 3, seed=0)
    with pytest.raises(ValueError):
        attack_suite(pipe, [], epsilon=0.1)


def test_attack_suite_unlabeled_rejected():
    pipe = make_pipeline("basic", 3, seed=0)
    with pytest.raises(ValueError):
        attack_suite(pipe, [PointCloud(np.zeros((4, 3)))], epsilon=0.1)


EVERY_LABEL_CHECK = pytest.mark.parametrize("run", [
    lambda pipe, data: train(pipe, data, TrainConfig(epochs=1, augment_cfg=None)),
    lambda pipe, data: evaluate(pipe.net, pipe, data),
    lambda pipe, data: attack_suite(pipe, data, epsilon=0.1),
    lambda pipe, data: attack_suite(pipe, data, epsilon=0.0),
], ids=["train", "evaluate", "attack_suite", "attack_suite_eps0"])


@EVERY_LABEL_CHECK
@pytest.mark.parametrize("name", ["basic", "leaky"])
def test_label_out_of_range_rejected_before_any_map(monkeypatch, name, run):
    def no_map(self, cloud):
        raise AssertionError("mapped a cloud")
    pipe = make_pipeline(name, 3, seed=0)
    data = small_testset(per=1, n=64) + [labeled(np.zeros((4, 3)), label=7),
                                         labeled(np.ones((4, 3)), label=-1)]
    monkeypatch.setattr(Pipeline, "map_image", no_map)
    with pytest.raises(ValueError, match=r"labels \[-1, 7\] out of range for 3 classes"):
        run(pipe, data)


@EVERY_LABEL_CHECK
@pytest.mark.parametrize("name", ["basic", "leaky"])
@pytest.mark.parametrize("label", [1.0, True, "1", 2.5])
def test_label_that_is_not_an_integer_rejected_before_any_map(monkeypatch, label, name, run):
    # a float or bool label indexes the logits only after every cloud is
    # mapped, and a float one would be scored without complaint
    def no_map(self, cloud):
        raise AssertionError("mapped a cloud")
    pipe = make_pipeline(name, 3, seed=0)
    data = small_testset(per=1, n=64) + [labeled(np.zeros((4, 3)), label=label)]
    monkeypatch.setattr(Pipeline, "map_image", no_map)
    message = f"label must be an integer >= 0, got {label!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(pipe, data)


@pytest.mark.parametrize("epsilon", [0.1, 0.0])
def test_attack_suite_counts_maps_and_forward_passes(monkeypatch, epsilon):
    # a blocked pipeline maps each cloud once and a leak pipeline twice,
    # clean first (once at epsilon 0); one forward pass runs per clean
    # cloud, plus one per cloud the step changed, and a backward pass
    # runs only for a cloud the step changes
    maps, forwards, backwards = [], [], []
    original_map, original_forward = Pipeline.map_image, net_module._forward_cached
    original_backward = net_module._loss_and_grads

    def map_spy(self, cloud):
        maps.append(cloud)
        return original_map(self, cloud)

    def forward_spy(*args):
        forwards.append(args)
        return original_forward(*args)

    def backward_spy(*args):
        backwards.append(args)
        return original_backward(*args)

    monkeypatch.setattr(Pipeline, "map_image", map_spy)
    monkeypatch.setattr(net_module, "_forward_cached", forward_spy)
    monkeypatch.setattr(attack_module, "_loss_and_grads", backward_spy)
    data = small_testset(per=1)
    for name in ("basic", "leaky", "graphdraw", "zbuffer"):
        maps.clear()
        forwards.clear()
        backwards.clear()
        attack_suite(make_pipeline(name, 3, seed=0), data, epsilon=epsilon)
        changed = name in ("leaky", "graphdraw") and epsilon != 0.0
        per_cloud = 2 if changed else 1
        assert len(maps) == per_cloud * len(data), name
        assert all(c is clean for c, clean in zip(maps[::per_cloud], data)), name
        if changed:
            assert not any(c is clean for c, clean in zip(maps[1::2], data)), name
        assert len(forwards) == per_cloud * len(data), name
        assert len(backwards) == (len(data) if changed else 0), name


def old_composition(pipe, testset, epsilon):
    """The per-sample chain attack_suite stood for before it shared the
    clean map: predict, fgsm, predict, each mapping on its own."""
    outcomes = []
    for i, cloud in enumerate(testset):
        clean_pred = predict(pipe.net, pipe, cloud)
        result = fgsm(pipe, cloud, cloud.label, epsilon=epsilon)
        outcomes.append({"sample": i, "label": cloud.label, "clean_pred": clean_pred,
                         "attacked_pred": predict(pipe.net, pipe, result.cloud),
                         "perturbation_l2": float(np.linalg.norm(result.cloud.points
                                                                 - cloud.points))})
    return outcomes


@pytest.fixture(scope="module")
def trained_pipelines():
    """Nets trained until their predictions differ from cloud to cloud,
    so an attack at epsilon 0.1 flips some of them."""
    out = {}
    for name in ("basic", "leaky", "graphdraw", "zbuffer"):
        pipe = make_pipeline(name, 3, seed=1)
        train(pipe, small_testset(), TrainConfig(epochs=20, lr=0.01, batch_size=3, seed=1))
        out[name] = pipe
    return out


@pytest.mark.parametrize("epsilon", [0.1, 0.0])
@pytest.mark.parametrize("name", ["basic", "leaky", "graphdraw", "zbuffer"])
def test_attack_suite_equals_old_composition(trained_pipelines, name, epsilon):
    # old_composition maps and classifies every attacked cloud again, the
    # unchanged ones too, so this pins that skipping it changes nothing
    pipe = trained_pipelines[name]
    data = small_testset(per=2)
    report = attack_suite(pipe, data, epsilon=epsilon)
    want = old_composition(pipe, data, epsilon)
    assert report.outcomes == want
    flipped = any(o["attacked_pred"] != o["clean_pred"] for o in want)
    assert flipped == (name in ("leaky", "graphdraw") and epsilon != 0.0)
    n = len(data)
    assert report.clean_accuracy == 100.0 * sum(
        o["clean_pred"] == o["label"] for o in want) / n
    assert report.attacked_accuracy == 100.0 * sum(
        o["attacked_pred"] == o["label"] for o in want) / n
    assert report.mean_perturbation_l2 == float(np.mean(
        [o["perturbation_l2"] for o in want]))


@pytest.mark.parametrize("name", ["leaky", "graphdraw"])
def test_attack_suite_classifies_the_clouds_fgsm_makes(monkeypatch, name):
    # attack_suite and input_point_gradient share one leak-gradient chain,
    # so each cloud attack_suite classifies after the step is fgsm's
    pipe = make_pipeline(name, 3, seed=0)
    data = small_testset(per=1)
    seen = []

    def predict_spy(net, pipeline, cloud):
        seen.append(cloud)
        return predict(net, pipeline, cloud)

    monkeypatch.setattr(attack_module, "predict", predict_spy)
    attack_suite(pipe, data, epsilon=0.1)
    assert len(seen) == len(data)
    for got, cloud in zip(seen, data):
        want = fgsm(pipe, cloud, cloud.label, epsilon=0.1).cloud
        assert got.points.tobytes() == want.points.tobytes()
        assert got.label == want.label


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf"), -0.1])
@pytest.mark.parametrize("name", ["basic", "leaky"])
def test_bad_epsilon_rejected_before_any_map(monkeypatch, name, epsilon):
    def no_map(self, cloud):
        raise AssertionError("mapped a cloud")
    pipe = make_pipeline(name, 3, seed=0)
    data = small_testset(per=1, n=64)
    monkeypatch.setattr(Pipeline, "map_image", no_map)
    with pytest.raises(ValueError, match="epsilon"):
        attack_suite(pipe, data, epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        fgsm(pipe, data[0], 0, epsilon=epsilon)


def test_attack_suite_deterministic():
    pipe = make_pipeline("leaky", 3, seed=0)
    data = small_testset(per=2)
    a = attack_suite(pipe, data, epsilon=0.1)
    b = attack_suite(pipe, data, epsilon=0.1)
    assert a.clean_accuracy == b.clean_accuracy
    assert a.attacked_accuracy == b.attacked_accuracy
    assert a.mean_perturbation_l2 == b.mean_perturbation_l2
