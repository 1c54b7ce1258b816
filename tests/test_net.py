import json
import re
import threading
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudmap import net as net_module
from cloudmap.cloud import SYNTH_KINDS, PointCloud, augment, synth_shape
from cloudmap.net import (LR_GAMMA, LR_STEP, WEIGHT_DECAY, TinyNet, TrainConfig,
                          _pool_relu, _pool_relu_back, adam_step, evaluate,
                          forward, init_adam_state, load_checkpoint, loss_and_grad,
                          lr_at, predict, save_checkpoint, train)
from cloudmap.pipeline import Pipeline, _window_sum, make_pipeline

import tinynet_oracle


@dataclass
class ToySample:
    image: np.ndarray
    label: int


class ToyPipeline:
    """Feeds pre-rendered images straight to the net."""

    def __init__(self, net):
        self.net = net

    def net_input(self, sample):
        return sample.image


def toy_dataset(n_per_class, seed, size=8):
    """Class 0 lights the left half, class 1 the right half."""
    rng = np.random.default_rng(seed)
    out = []
    for label in (0, 1):
        for _ in range(n_per_class):
            img = 0.05 * rng.random((size, size, 1))
            half = slice(0, size // 2) if label == 0 else slice(size // 2, size)
            img[:, half, 0] += 1.0
            out.append(ToySample(img, label))
    return out


# ---------------------------------------------------------------------------
# forward

def test_forward_shape_and_determinism():
    net = TinyNet(1, 5, seed=0)
    rng = np.random.default_rng(0)
    img = rng.random((16, 16, 1))
    a = forward(net, img)
    b = forward(net, img)
    assert a.shape == (5,)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_forward_zero_image_gives_bias_image():
    net = TinyNet(1, 4, seed=1)
    logits = forward(net, np.zeros((16, 16, 1)))
    # zero input + zero conv biases -> zero features -> fc bias (also zero)
    assert np.allclose(logits, net.params["fc_b"])


def test_forward_zero_weights_input_independent():
    net = TinyNet(2, 3, seed=2)
    for name in ("conv1_w", "conv2_w", "conv3_w"):
        net.params[name][:] = 0.0
    net.params["fc_b"][:] = [0.3, -0.1, 0.5]
    rng = np.random.default_rng(3)
    a = forward(net, rng.random((12, 12, 2)))
    b = forward(net, rng.random((12, 12, 2)))
    assert np.array_equal(a, b)
    assert np.allclose(a, [0.3, -0.1, 0.5])


def test_forward_channel_mismatch_rejected():
    net = TinyNet(3, 5, seed=0)
    with pytest.raises(ValueError):
        forward(net, np.zeros((8, 8, 1)))


@pytest.mark.parametrize("downsample", [0, 2])
def test_downsample_other_than_1_rejected(downsample):
    net = TinyNet(1, 3, seed=4)
    img = np.random.default_rng(4).random((16, 16, 1))
    with pytest.raises(ValueError, match=f"^downsample must be 1, got {downsample}$"):
        forward(net, img, downsample=downsample)
    with pytest.raises(ValueError, match=f"^downsample must be 1, got {downsample}$"):
        loss_and_grad(net, img, 0, downsample=downsample)


def reshape_window_sum(x, f):
    """The entry pool's window sum before _window_sum, frozen: zero-pad to
    whole windows, reshape, sum over the window axes."""
    h, w, c = x.shape
    ph, pw = -(-h // f), -(-w // f)
    xp = np.zeros((ph * f, pw * f, c))
    xp[:h, :w] = x
    return xp.reshape(ph, f, pw, f, c).sum(axis=(1, 3))


def window_test_array(kind, h, w, c, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((h, w, c))
    if kind == "occupancy":
        return (rng.random((h, w, c)) < 0.1).astype(np.float64)
    if kind == "sparse":
        return np.where(rng.random((h, w, c)) < 0.05, rng.random((h, w, c)), 0.0)
    if kind == "dense":
        return rng.random((h, w, c))
    # negative: mixed signs over twelve decades, so that the summation
    # order shows in the last bits
    return rng.normal(size=(h, w, c)) * 10.0 ** rng.uniform(-6, 6, (h, w, c))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 6), st.integers(0, 7),
       st.integers(1, 6), st.integers(0, 7),
       st.sampled_from(("zero", "occupancy", "sparse", "dense", "negative")),
       st.integers(0, 2**32 - 1))
def test_window_sum_equals_frozen_reshape_sum(f, c, hq, hr, wq, wr, kind, seed):
    h, w = hq * f + hr % f, wq * f + wr % f  # whole windows and partial edges
    x = window_test_array(kind, h, w, c, seed)
    got = _window_sum(x, f)
    # numpy reduces a one-channel image row by row within each window; the
    # row-major order of the strided slices is that of two or more channels
    if c == 1:
        want = reshape_window_sum(np.repeat(x, 2, axis=2), f)[:, :, :1]
    else:
        want = reshape_window_sum(x, f)
    assert got.shape == want.shape and np.array_equal(got, want)
    if kind in ("zero", "occupancy"):  # integer sums are exact in any order
        assert np.array_equal(got, reshape_window_sum(x, f))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from((1, 16)),
       st.integers(0, 2**32 - 1))
@example(1, 1, 1, 0)
@example(1, 7, 16, 1)
@example(7, 1, 1, 2)
@example(5, 9, 16, 3)
@example(8, 6, 1, 4)
def test_pool_relu_equals_frozen_relu_then_maxpool(h, w, c, seed):
    # small integers, so that ties, zeros and all-negative windows are common
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, (h, w, c)).astype(np.float64)
    relu_x, mask = tinynet_oracle._relu(x)
    want, pool_cache = tinynet_oracle._maxpool(relu_x)
    got, cache = _pool_relu(x)
    assert got.shape == want.shape and np.array_equal(got, want)
    d = rng.integers(-2, 3, got.shape).astype(np.float64)
    want_d = tinynet_oracle._maxpool_back(d, pool_cache) * mask
    got_d = _pool_relu_back(d, cache)
    assert got_d.shape == want_d.shape and np.array_equal(got_d, want_d)


def test_forward_accepts_tiny_input():
    net = TinyNet(1, 3, seed=5)
    logits = forward(net, np.random.default_rng(5).random((2, 2, 1)))
    assert np.all(np.isfinite(logits))


# ---------------------------------------------------------------------------
# loss and gradients

def test_uniform_logits_loss_ln5():
    net = TinyNet(1, 5, seed=6)
    # zero image -> zero logits -> uniform softmax
    loss, _, _ = loss_and_grad(net, np.zeros((16, 16, 1)), 2)
    assert abs(loss - np.log(5.0)) < 1e-6


def test_loss_nonnegative_random():
    net = TinyNet(1, 5, seed=7)
    rng = np.random.default_rng(7)
    for _ in range(10):
        loss, _, _ = loss_and_grad(net, rng.random((16, 16, 1)), int(rng.integers(5)))
        assert loss >= 0.0


def test_label_out_of_range():
    net = TinyNet(1, 5, seed=0)
    with pytest.raises(ValueError):
        loss_and_grad(net, np.zeros((8, 8, 1)), 5)


def test_param_gradients_match_finite_differences():
    net = TinyNet(1, 3, seed=8)
    rng = np.random.default_rng(8)
    img = rng.random((16, 16, 1))
    _, grads, _ = loss_and_grad(net, img, 1)
    worst = 0.0
    for name, p in net.params.items():
        flat = p.ravel()
        g = grads[name].ravel()
        for idx in rng.choice(flat.size, size=min(20, flat.size), replace=False):
            eps = 1e-6
            old = flat[idx]
            flat[idx] = old + eps
            lp, _, _ = loss_and_grad(net, img, 1)
            flat[idx] = old - eps
            lm, _, _ = loss_and_grad(net, img, 1)
            flat[idx] = old
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, abs(fd - g[idx]) / denom)
    assert worst < 1e-4


def test_input_gradient_matches_finite_differences():
    net = TinyNet(1, 3, seed=9)
    rng = np.random.default_rng(9)
    img = rng.random((16, 16, 1))
    _, _, d_input = loss_and_grad(net, img, 0)
    assert d_input.shape == img.shape
    worst = 0.0
    for _ in range(10):
        r, c = rng.integers(16), rng.integers(16)
        eps = 1e-6
        old = img[r, c, 0]
        img[r, c, 0] = old + eps
        lp, _, _ = loss_and_grad(net, img, 0)
        img[r, c, 0] = old - eps
        lm, _, _ = loss_and_grad(net, img, 0)
        img[r, c, 0] = old
        fd = (lp - lm) / (2 * eps)
        denom = max(abs(fd), abs(d_input[r, c, 0]), 1e-8)
        worst = max(worst, abs(fd - d_input[r, c, 0]) / denom)
    assert worst < 1e-4


def assert_close_rel(got, want, rtol=1e-12):
    """Every entry within rtol of the largest magnitude in want."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


ODD = st.integers(0, 16).map(lambda k: 2 * k + 1)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from([(1, 1), (57, 57), (64, 64)]), st.tuples(ODD, ODD)),
       st.sampled_from((1, 3)), st.integers(2, 5),
       st.booleans(), st.integers(0, 2**32 - 1))
@example((1, 1), 1, 2, False, 0)
@example((57, 57), 1, 5, True, 1)
@example((57, 57), 3, 3, False, 2)
@example((64, 64), 3, 4, True, 3)
@example((64, 64), 1, 5, False, 4)
@example((31, 17), 3, 2, False, 5)
def test_loss_and_grad_matches_einsum_oracle(shape, c_in, num_classes, sparse, seed):
    rng = np.random.default_rng(seed)
    net = TinyNet(c_in, num_classes, seed=seed % 1000)
    for i in (1, 2, 3):  # nonzero biases, so relu masks differ per pixel
        net.params[f"conv{i}_b"] = rng.normal(0.0, 0.1, 16)
    x = rng.normal(size=shape + (c_in,))
    if sparse:  # like a sum-pooled sparse map: mostly zero, nonnegative
        x = np.where(rng.random(x.shape) < 0.1, np.abs(x), 0.0)
    label = int(rng.integers(num_classes))
    want_logits, want_loss, want_grads, want_d_input = tinynet_oracle.loss_and_grad(
        net.params, x, label)
    loss, grads, d_input = loss_and_grad(net, x, label)
    assert_close_rel(forward(net, x), want_logits)
    assert abs(loss - want_loss) <= 1e-12 * max(abs(want_loss), 1.0)
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert_close_rel(grads[name], want_grads[name])
    assert_close_rel(d_input, want_d_input)


def cast_net(net, dtype):
    """A TinyNet like net whose params are copies cast to dtype."""
    out = TinyNet(net.c_in, net.num_classes)
    out.params = {name: p.astype(dtype) for name, p in net.params.items()}
    return out


def reference_train(pipeline, dataset, cfg, dtype=np.float32):
    """train's loop spelled out over loss_and_grad, d_input discarded: each
    batch steps a dtype copy of the params on dtype inputs, and the
    float64 sum of its gradients goes to a float64 Adam step."""
    net = pipeline.net
    state = init_adam_state(net)
    history = []
    t = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 31, epoch]).permutation(len(dataset))
        losses = []
        for start in range(0, len(dataset), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            acc = {name: np.zeros_like(p) for name, p in net.params.items()}
            step_net = cast_net(net, dtype)
            for si in batch:
                cloud = dataset[si]
                if cfg.augment_cfg:
                    aug_seed = int(np.random.default_rng(
                        [cfg.seed, 77, epoch, int(si)]).integers(2 ** 31))
                    cloud = augment(cloud, aug_seed)
                loss, grads, _ = loss_and_grad(
                    step_net, pipeline.net_input(cloud).astype(dtype), dataset[si].label)
                losses.append(loss)
                for name in acc:
                    acc[name] += grads[name]
            for name in acc:
                acc[name] /= len(batch)
            t += 1
            adam_step(net.params, acc, state, t, lr=lr_at(epoch, cfg))
        history.append(float(np.mean(losses)))
    return history


@pytest.mark.parametrize("name", ["basic", "leaky"])
@pytest.mark.parametrize("augmented", [False, True])
def test_train_equals_reference_loop_bit_for_bit(name, augmented):
    dataset = [synth_shape(kind, 128, seed=[s, k])
               for k, kind in enumerate(SYNTH_KINDS[:3]) for s in range(2)]
    cfg = TrainConfig(epochs=3, lr=0.01, batch_size=4, seed=5,
                      augment_cfg=augmented)
    pipe = make_pipeline(name, 3, seed=6)
    ref = make_pipeline(name, 3, seed=6)
    _, history = train(pipe, dataset, cfg)
    assert history == reference_train(ref, dataset, cfg)
    for pname, p in pipe.net.params.items():
        assert np.array_equal(p, ref.net.params[pname])


@pytest.mark.parametrize("size", [1, 2, 57])
def test_train_reusing_its_buffers_equals_reference_loop(size):
    # train reuses this thread's conv buffers, one set per layer; at
    # 1x1 and 2x2 the inputs of conv2 and conv3 have one shape
    rng = np.random.default_rng(size)
    dataset = [ToySample(rng.normal(size=(size, size, 3)), label % 3)
               for label in range(7)]
    cfg = TrainConfig(epochs=2, lr=0.01, batch_size=3, seed=size)
    nets = [TinyNet(3, 3, seed=8), TinyNet(3, 3, seed=8)]
    for net in nets:
        for i in (1, 2, 3):  # nonzero biases, so relu masks differ per pixel
            net.params[f"conv{i}_b"] = np.random.default_rng(i).normal(0.0, 0.1, 16)
    pipe, ref = ToyPipeline(nets[0]), ToyPipeline(nets[1])
    _, history = train(pipe, dataset, cfg)
    assert history == reference_train(ref, dataset, cfg)
    for pname, p in pipe.net.params.items():
        assert np.array_equal(p, ref.net.params[pname])


def max_rel_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("name", ["basic", "leaky", "graphdraw", "zbuffer"])
def test_float32_step_gradients_are_within_1e_5_of_float64(name):
    # train's step: a float32 copy of the params on a float32 net input
    pipe = make_pipeline(name, 5, seed=3)
    for i in (1, 2, 3):
        pipe.net.params[f"conv{i}_b"] = np.random.default_rng(i).normal(0.0, 0.1, 16)
    x = pipe.net_input(synth_shape("torus", 256, seed=[3, 4]))
    _, want, _ = loss_and_grad(pipe.net, x, 2)
    _, got, _, _ = net_module._loss_and_grads(
        cast_net(pipe.net, np.float32), x.astype(np.float32), 2, False)
    for pname in want:
        assert got[pname].dtype == np.float32
        assert max_rel_error(got[pname], want[pname]) < 1e-5, pname


@pytest.mark.parametrize("name", ["basic", "leaky", "zbuffer"])
def test_one_float32_epoch_stays_within_1e_5_of_float64_training(name):
    # one epoch of the train_static benchmark's recipe: 8 clouds of 256
    # points per class, batches of 8, the default lr
    dataset = [synth_shape(kind, 256, seed=[7, 0, ci, i])
               for ci, kind in enumerate(SYNTH_KINDS) for i in range(8)]
    cfg = TrainConfig(epochs=1, batch_size=8, seed=7)
    pipe = make_pipeline(name, len(SYNTH_KINDS), seed=7)
    ref = make_pipeline(name, len(SYNTH_KINDS), seed=7)
    train(pipe, dataset, cfg)
    reference_train(ref, dataset, cfg, dtype=np.float64)
    for pname, p in pipe.net.params.items():
        assert max_rel_error(p, ref.net.params[pname]) < 1e-5, pname


def test_train_keeps_master_params_and_adam_state_float64(monkeypatch):
    steps = []
    original = net_module.adam_step

    def adam_spy(params, grads, state, t, lr):
        arrays = [*params.values(), *grads.values(), *(a for ms in state.values() for a in ms)]
        steps.append({a.dtype for a in arrays})
        return original(params, grads, state, t, lr)

    monkeypatch.setattr(net_module, "adam_step", adam_spy)
    pipe = make_pipeline("leaky", 3, seed=0)
    dataset = [synth_shape(kind, 64, seed=[k]) for k, kind in enumerate(SYNTH_KINDS[:3])]
    train(pipe, dataset, TrainConfig(epochs=2, batch_size=2))
    assert steps == [{np.dtype(np.float64)}] * 4
    assert all(p.dtype == np.float64 for p in pipe.net.params.values())
    x = pipe.net_input(dataset[0])
    loss, grads, d_input = loss_and_grad(pipe.net, x, 0)
    assert forward(pipe.net, x).dtype == np.float64
    assert {g.dtype for g in [*grads.values(), d_input]} == {np.dtype(np.float64)}


def test_float32_steps_and_float64_forwards_never_share_a_buffer():
    # the pool keys each buffer by dtype: calls of both dtypes in one
    # thread, on shapes shared and not, give the bytes of a fresh thread
    rng = np.random.default_rng(26)
    net = TinyNet(3, 4, seed=26)
    for i in (1, 2, 3):
        net.params[f"conv{i}_b"] = rng.normal(0.0, 0.1, 16)
    net32 = cast_net(net, np.float32)
    inputs = [rng.normal(size=(s, s, 3)) for s in (57, 57, 31, 8, 57)]

    def step(x):
        _, grads, _, logits = net_module._loss_and_grads(net32, x.astype(np.float32), 1, False)
        return logits.tobytes() + b"".join(grads[n].tobytes() for n in sorted(grads))

    calls = [(f, x) for x in inputs for f in (step, lambda x: forward(net, x).tobytes())]

    def in_thread(run):
        out = []
        thread = threading.Thread(target=lambda: out.append(run()))
        thread.start()
        thread.join()
        return out[0]

    alternating = in_thread(lambda: [f(x) for f, x in calls])
    assert alternating == [in_thread(lambda: f(x)) for f, x in calls]


def test_loss_and_grad_results_survive_a_second_call():
    # every call reuses this thread's conv buffers, so no array that
    # forward, loss_and_grad or _loss_and_grads returned may change when a
    # later call runs on another input, of the same shape or not
    rng = np.random.default_rng(12)
    net = TinyNet(3, 4, seed=12)
    x, same = rng.normal(size=(2, 57, 57, 3))
    other = rng.normal(size=(31, 31, 3))
    logits = forward(net, x)
    _, grads, d_input = loss_and_grad(net, x, 1)
    _, grads_in, d_input_in, logits_in = net_module._loss_and_grads(net, x, 2, True)
    _, grads_no, _, logits_no = net_module._loss_and_grads(net, x, 3, False)
    arrays = [logits, d_input, d_input_in, logits_in, logits_no,
              *grads.values(), *grads_in.values(), *grads_no.values()]
    kept = [a.copy() for a in arrays]
    for y in (same, other):
        forward(net, y)
        loss_and_grad(net, y, 0)
        net_module._loss_and_grads(net, y, 0, False)
    assert all(np.array_equal(a, k) for a, k in zip(arrays, kept))


def test_threads_running_at_once_get_the_bytes_of_calls_run_in_turn():
    # each thread keeps its own conv buffers, so forward and loss_and_grad
    # may run at the same time on inputs of different shapes; two of one
    # shape would write the same buffers if threads shared them
    rng = np.random.default_rng(25)
    net = TinyNet(3, 4, seed=25)
    for i in (1, 2, 3):
        net.params[f"conv{i}_b"] = rng.normal(0.0, 0.1, 16)
    inputs = [rng.normal(size=(s, s, 3)) for s in (64, 57, 57, 8)]
    start = threading.Barrier(len(inputs))

    def run(k, out, wait):
        if wait:
            start.wait()
        for _ in range(10):
            loss, grads, d_input = loss_and_grad(net, inputs[k], k)
            out.append(forward(net, inputs[k]).tobytes() + np.float64(loss).tobytes()
                       + d_input.tobytes() + b"".join(grads[n].tobytes() for n in sorted(grads)))

    in_turn = [[] for _ in inputs]
    for k, out in enumerate(in_turn):
        run(k, out, False)
    at_once = [[] for _ in inputs]
    threads = [threading.Thread(target=run, args=(k, out, True))
               for k, out in enumerate(at_once)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert at_once == in_turn


@pytest.mark.parametrize("label, message", [
    *[(v, f"label must be an integer >= 0, got {v!r}") for v in (1.0, True, "1", -1)],
    (4, "label 4 out of range"),
])
def test_loss_and_grad_label_follows_the_integer_rule(label, message):
    # the label indexes the logits: a bool would pick a new axis, a float fail inside numpy
    x = np.random.default_rng(13).normal(size=(8, 8, 3))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        loss_and_grad(TinyNet(3, 4), x, label)


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_grad_moves_only_by_weight_decay():
    net = TinyNet(1, 3, seed=11)
    cfg = TrainConfig()
    state = init_adam_state(net)
    before = {k: v.copy() for k, v in net.params.items()}
    zeros = {k: np.zeros_like(v) for k, v in net.params.items()}
    adam_step(net.params, zeros, state, t=1, lr=cfg.lr)
    for k, p in before.items():
        assert np.array_equal(net.params[k], p - cfg.lr * (0.0 + WEIGHT_DECAY * p))


def test_adam_zero_grad_no_motion(monkeypatch):
    # with no weight decay a zero gradient leaves every parameter in place
    monkeypatch.setattr(net_module, "WEIGHT_DECAY", 0.0)
    net = TinyNet(1, 3, seed=11)
    cfg = TrainConfig()
    state = init_adam_state(net)
    before = {k: v.copy() for k, v in net.params.items()}
    zeros = {k: np.zeros_like(v) for k, v in net.params.items()}
    adam_step(net.params, zeros, state, t=1, lr=cfg.lr)
    for k in before:
        assert np.array_equal(net.params[k], before[k])


def test_adam_constant_gradient_step_size():
    cfg = TrainConfig(lr=0.01)
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([0.37])}
    state = {"w": (np.zeros(1), np.zeros(1))}
    prev = params["w"].copy()
    for t in range(1, 301):
        adam_step(params, grads, state, t, lr=cfg.lr)
        step = abs(params["w"][0] - prev[0])
        prev = params["w"].copy()
    # with constant gradient, mhat/sqrt(vhat) -> 1, so |step| -> lr
    assert abs(step - cfg.lr) < 1e-4


def test_adam_deterministic():
    runs = []
    for _ in range(2):
        net = TinyNet(1, 3, seed=12)
        cfg = TrainConfig()
        state = init_adam_state(net)
        rng = np.random.default_rng(12)
        img = rng.random((8, 8, 1))
        for t in range(1, 6):
            _, grads, _ = loss_and_grad(net, img, 0)
            adam_step(net.params, grads, state, t, lr=cfg.lr)
        runs.append({k: v.copy() for k, v in net.params.items()})
    for k in runs[0]:
        assert np.array_equal(runs[0][k], runs[1][k])


def test_adam_rejects_t_zero():
    net = TinyNet(1, 3, seed=0)
    zeros = {k: np.zeros_like(v) for k, v in net.params.items()}
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        adam_step(net.params, zeros, init_adam_state(net), t=0, lr=cfg.lr)


@pytest.mark.parametrize("lr", [0.0, -1.0])
def test_adam_rejects_a_non_positive_lr(lr):
    # TrainConfig's rule: a negative lr would climb the loss
    net = TinyNet(1, 3, seed=0)
    before = {k: v.copy() for k, v in net.params.items()}
    ones = {k: np.ones_like(v) for k, v in net.params.items()}
    with pytest.raises(ValueError, match=r"^lr must be > 0$"):
        adam_step(net.params, ones, init_adam_state(net), t=1, lr=lr)
    for k in before:
        assert np.array_equal(net.params[k], before[k])


def test_weight_decay_shrinks_without_gradient():
    params = {"w": np.array([2.0])}
    state = {"w": (np.zeros(1), np.zeros(1))}
    adam_step(params, {"w": np.zeros(1)}, state, t=1, lr=0.1)
    assert params["w"][0] == 2.0 - 0.1 * (0.0 + WEIGHT_DECAY * 2.0) < 2.0


# ---------------------------------------------------------------------------
# lr schedule

def test_lr_schedule_boundaries():
    cfg = TrainConfig(lr=0.001)
    assert lr_at(0, cfg) == 0.001
    assert lr_at(LR_STEP - 1, cfg) == 0.001
    assert lr_at(LR_STEP, cfg) == pytest.approx(0.001 * LR_GAMMA)
    assert lr_at(2 * LR_STEP, cfg) == pytest.approx(0.001 * LR_GAMMA ** 2)


def test_lr_gamma_one_constant(monkeypatch):
    # lr_at reads the schedule constants when called
    monkeypatch.setattr(net_module, "LR_GAMMA", 1.0)
    cfg = TrainConfig()
    assert all(lr_at(e, cfg) == cfg.lr for e in (0, LR_STEP - 1, LR_STEP, 100))


def test_lr_rejects_negative_epoch():
    with pytest.raises(ValueError):
        lr_at(-1, TrainConfig())


@pytest.mark.parametrize("field, value, message", [
    ("lr", 0, "lr must be > 0"),
    ("lr", -0.01, "lr must be > 0"),
    *[("lr", v, f"lr must be finite, got {v!r}")
      for v in (float("nan"), float("inf"), -float("inf"))],
    *[("lr", v, f"lr must be a number, got {v!r}")
      for v in (True, np.bool_(True), "0.1", None)],
    *[(f, v, f"{f} must be an integer >= 1, got {v!r}")
      for f in ("epochs", "batch_size") for v in (0, 2.5, 2.0, "2", True, np.bool_(True))],
    *[("seed", v, f"seed must be an integer >= 0, got {v!r}")
      for v in (-1, 1.5, "0", None, True, np.bool_(True))],
])
def test_train_config_rejects_values_outside_its_rules(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(**{field: value})


def test_train_config_takes_numpy_integers():
    cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), seed=np.uint8(1))
    assert (cfg.epochs, cfg.batch_size, cfg.seed) == (2, 4, 1)


@pytest.mark.parametrize("value", ["yes", 2, object()])
def test_train_config_augment_cfg_is_none_false_or_true(value):
    with pytest.raises(ValueError, match="^augment_cfg must be None, False or True"):
        TrainConfig(augment_cfg=value)


@pytest.mark.parametrize("value", [None, False, True])
def test_train_augments_each_sample_each_epoch_only_when_on(monkeypatch, value):
    seeds = []

    def counting_augment(cloud, seed):
        seeds.append(seed)
        return augment(cloud, seed)

    monkeypatch.setattr("cloudmap.net.augment", counting_augment)
    dataset = [synth_shape(kind, 64, seed=[s, k])
               for k, kind in enumerate(SYNTH_KINDS[:3]) for s in range(2)]
    cfg = TrainConfig(epochs=2, batch_size=4, seed=8, augment_cfg=value)
    train(make_pipeline("basic", 3, seed=0), dataset, cfg)
    want = [int(np.random.default_rng([8, 77, epoch, si]).integers(2 ** 31))
            for epoch in range(2) for si in range(len(dataset))] if value else []
    assert sorted(seeds) == sorted(want)


@pytest.mark.parametrize("augmented", [False, True])
def test_train_builds_a_pass_inputs_before_its_steps(monkeypatch, augmented):
    # every augment and net_input call of an epoch comes before the
    # epoch's first step; a static run maps each cloud once
    events = []
    original_net_input, original_step = Pipeline.net_input, net_module._loss_and_grads

    def augment_spy(cloud, seed):
        events.append(("augment", seed))
        return augment(cloud, seed)

    def net_input_spy(self, cloud):
        events.append(("net_input",))
        return original_net_input(self, cloud)

    def step_spy(*args):
        events.append(("step",))
        return original_step(*args)

    monkeypatch.setattr("cloudmap.net.augment", augment_spy)
    monkeypatch.setattr(Pipeline, "net_input", net_input_spy)
    monkeypatch.setattr(net_module, "_loss_and_grads", step_spy)
    dataset = [synth_shape(kind, 64, seed=[s, k])
               for k, kind in enumerate(SYNTH_KINDS[:3]) for s in range(2)]
    n = len(dataset)
    cfg = TrainConfig(epochs=3, batch_size=4, seed=8, augment_cfg=augmented)
    train(make_pipeline("basic", 3, seed=0), dataset, cfg)
    if augmented:
        want = []
        for epoch in range(3):
            for si in range(n):
                seed = int(np.random.default_rng([8, 77, epoch, si]).integers(2 ** 31))
                want += [("augment", seed), ("net_input",)]
            want += [("step",)] * n
    else:
        want = [("net_input",)] * n + [("step",)] * (3 * n)
    assert events == want


# ---------------------------------------------------------------------------
# training loop

def test_train_separable_reaches_100():
    data = toy_dataset(10, seed=0)
    net = TinyNet(1, 2, seed=13)
    pipe = ToyPipeline(net)
    cfg = TrainConfig(epochs=30, lr=0.01, batch_size=4, seed=0)
    net, history = train(pipe, data, cfg)
    assert len(history) == 30
    assert all(np.isfinite(h) for h in history)
    inst, cls = evaluate(net, pipe, data)
    assert inst == 100.0
    assert cls == 100.0


def test_train_deterministic():
    histories = []
    for _ in range(2):
        data = toy_dataset(6, seed=1)
        net = TinyNet(1, 2, seed=14)
        pipe = ToyPipeline(net)
        cfg = TrainConfig(epochs=5, lr=0.01, batch_size=4, seed=3)
        _, history = train(pipe, data, cfg)
        histories.append(history)
    assert histories[0] == histories[1]


def test_train_empty_dataset():
    net = TinyNet(1, 2, seed=0)
    with pytest.raises(ValueError):
        train(ToyPipeline(net), [], TrainConfig())


def test_train_unlabeled_rejected():
    net = TinyNet(1, 2, seed=0)
    data = [ToySample(np.zeros((8, 8, 1)), None)]
    with pytest.raises(ValueError):
        train(ToyPipeline(net), data, TrainConfig())


def test_train_divergence_raises_with_epoch():
    data = toy_dataset(4, seed=2, size=4)
    net = TinyNet(1, 2, seed=15)
    net.params["fc_b"][:] = np.nan  # poisons the first loss
    pipe = ToyPipeline(net)
    with pytest.raises(RuntimeError) as err:
        train(pipe, data, TrainConfig(epochs=2, seed=0))
    assert "epoch 0" in str(err.value)


# ---------------------------------------------------------------------------
# evaluation

def force_class_zero(net):
    for name in ("conv1_w", "conv2_w", "conv3_w"):
        net.params[name][:] = 0.0
    net.params["fc_b"][:] = 0.0
    net.params["fc_b"][0] = 1.0


def test_evaluate_90_10_split():
    net = TinyNet(1, 2, seed=16)
    force_class_zero(net)  # predicts class 0 for every input
    pipe = ToyPipeline(net)
    rng = np.random.default_rng(16)
    data = ([ToySample(rng.random((8, 8, 1)), 0) for _ in range(90)]
            + [ToySample(rng.random((8, 8, 1)), 1) for _ in range(10)])
    inst, cls = evaluate(net, pipe, data)
    assert inst == pytest.approx(90.0)
    assert cls == pytest.approx(50.0)


def test_evaluate_order_invariant():
    net = TinyNet(1, 2, seed=17)
    pipe = ToyPipeline(net)
    data = toy_dataset(5, seed=3)
    shuffled = list(data)
    np.random.default_rng(0).shuffle(shuffled)
    assert evaluate(net, pipe, data) == evaluate(net, pipe, shuffled)


def reference_evaluate(net, pipe, data):
    """evaluate written out: predict on each cloud, then the recalls."""
    correct, total = {}, {}
    for cloud in data:
        pred = predict(net, pipe, cloud)
        total[cloud.label] = total.get(cloud.label, 0) + 1
        correct[cloud.label] = correct.get(cloud.label, 0) + (pred == cloud.label)
    inst = 100.0 * sum(correct.values()) / sum(total.values())
    cls = 100.0 * np.mean([correct[lab] / total[lab] for lab in sorted(total)])
    return inst, float(cls)


def evaluate_logging_logits(monkeypatch, net, pipe, data):
    """evaluate's result and the logits of every forward pass it ran."""
    logits = []
    original = net_module._forward_cached

    def spy(*args):
        out = original(*args)
        logits.append(out[0].copy())
        return out

    with monkeypatch.context() as m:
        m.setattr(net_module, "_forward_cached", spy)
        result = evaluate(net, pipe, data)
    return result, logits


@pytest.mark.parametrize("name", ["basic", "leaky", "graphdraw", "zbuffer"])
def test_evaluate_equals_the_predict_loop_bit_for_bit(monkeypatch, name):
    data = [PointCloud(synth_shape(kind, 96, seed=[21, k, i]).points, label=k)
            for k, kind in enumerate(SYNTH_KINDS[:3]) for i in range(2)]
    pipe = make_pipeline(name, 3, seed=21)
    result, logits = evaluate_logging_logits(monkeypatch, pipe.net, pipe, data)
    assert result == reference_evaluate(pipe.net, pipe, data)
    assert len(logits) == len(data)
    for got, cloud in zip(logits, data):
        assert got.tobytes() == forward(pipe.net, pipe.net_input(cloud)).tobytes()


def test_evaluate_of_mixed_input_sizes_equals_the_predict_loop(monkeypatch):
    # the conv buffers outlive every call in a thread; inputs of
    # changing sizes must replace them, never read a stale one
    rng = np.random.default_rng(22)
    data = [ToySample(rng.normal(size=(s, s, 3)), i % 3)
            for i, s in enumerate((57, 1, 2, 57, 8, 1, 57))]
    net = TinyNet(3, 3, seed=22)
    for i in (1, 2, 3):
        net.params[f"conv{i}_b"] = np.random.default_rng(i).normal(0.0, 0.1, 16)
    result, logits = evaluate_logging_logits(monkeypatch, net, ToyPipeline(net), data)
    assert result == reference_evaluate(net, ToyPipeline(net), data)
    for got, sample in zip(logits, data):
        assert got.tobytes() == forward(net, sample.image).tobytes()


def test_evaluate_empty_rejected():
    net = TinyNet(1, 2, seed=0)
    with pytest.raises(ValueError):
        evaluate(net, ToyPipeline(net), [])


@pytest.mark.parametrize("labels", [[None], [0, None, 1]])
def test_evaluate_unlabeled_rejected(labels):
    net = TinyNet(1, 2, seed=0)
    data = [ToySample(np.zeros((8, 8, 1)), label) for label in labels]
    with pytest.raises(ValueError, match="^dataset cloud missing label$"):
        evaluate(net, ToyPipeline(net), data)


# ---------------------------------------------------------------------------
# persistence

def test_checkpoint_roundtrip(tmp_path):
    net = TinyNet(3, 5, seed=18)
    stem = str(tmp_path / "ckpt")
    save_checkpoint(net, stem)
    loaded = load_checkpoint(stem)
    assert loaded.c_in == 3 and loaded.num_classes == 5
    for k in net.params:
        assert np.array_equal(loaded.params[k], net.params[k])
    rng = np.random.default_rng(18)
    img = rng.random((16, 16, 3))
    assert np.array_equal(forward(net, img), forward(loaded, img))


def test_checkpoint_of_a_net_built_from_numpy_integers(tmp_path):
    # TinyNet keeps its sizes as Python ints, which the JSON manifest takes
    stem = str(tmp_path / "ckpt")
    save_checkpoint(TinyNet(np.int64(3), np.uint8(5), seed=np.int32(18)), stem)
    loaded = load_checkpoint(stem)
    assert (loaded.c_in, loaded.num_classes) == (3, 5)
    assert np.array_equal(loaded.params["fc_w"], TinyNet(3, 5, seed=18).params["fc_w"])


def test_checkpoint_with_bytes_past_its_last_value_rejected(tmp_path):
    # np.fromfile drops a partial trailing value, so the value count alone
    # would pass
    stem = str(tmp_path / "ckpt")
    save_checkpoint(TinyNet(1, 2, seed=0), stem)
    with open(stem + ".bin", "ab") as fh:
        fh.write(b"\x01\x02\x03")
    message = f"checkpoint {stem}.bin ends in 3 bytes that are not a whole value"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_checkpoint(stem)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(str(tmp_path / "nope"))


@pytest.mark.parametrize("change", [-1, None, 1])  # one short, empty, one over
def test_checkpoint_of_the_wrong_length_rejected(tmp_path, change):
    stem = str(tmp_path / "ckpt")
    save_checkpoint(TinyNet(1, 2, seed=0), stem)
    flat = np.fromfile(stem + ".bin", dtype="<f8")
    n = 0 if change is None else len(flat) + change
    np.resize(flat, n).astype("<f8").tofile(stem + ".bin")
    message = f"checkpoint {stem}.bin holds {n} values, its manifest needs {len(flat)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_checkpoint(stem)


@pytest.mark.parametrize("edit, key", [
    (lambda m: m["params"].pop("fc_b"), "params.fc_b"),
    (lambda m: m["params"].update(conv2_w=[16, 3, 3, 8]), "params.conv2_w"),
    (lambda m: m.update(num_classes=3), "params.fc_w"),  # shapes say 2 classes
    (lambda m: m.update(c_in=3), "params.conv1_w"),  # shapes say 1 channel
    (lambda m: m.update(c_in=0), "c_in"),
    (lambda m: m.update(num_classes=2.0), "num_classes"),
    (lambda m: m.update(c_in=True), "c_in"),
    (lambda m: m.pop("c_in"), "c_in"),
    (lambda m: m.pop("params"), "params"),
], ids=["fc_b-missing", "conv2_w-shape", "num_classes-vs-shapes", "c_in-vs-shapes",
        "c_in-0", "num_classes-float", "c_in-true", "c_in-missing", "params-missing"])
def test_checkpoint_manifest_must_match_the_net(tmp_path, edit, key):
    stem = str(tmp_path / "ckpt")
    save_checkpoint(TinyNet(1, 2, seed=0), stem)
    manifest = json.loads(open(stem + ".json").read())
    edit(manifest)
    open(stem + ".json", "w").write(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"^checkpoint {re.escape(stem)}.json.*{key}"):
        load_checkpoint(stem)


def test_param_count_under_desk_budget():
    assert sum(p.size for p in TinyNet(3, 5).params.values()) < 10 ** 5
