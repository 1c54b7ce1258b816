from dataclasses import dataclass

import numpy as np
import pytest

from cloudmap.net import (TinyNet, TrainConfig, adam_step, evaluate, forward,
                          init_adam_state, load_checkpoint, loss_and_grad,
                          lr_at, save_checkpoint, train, write_loss_history)


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


def test_forward_downsample_matches_manual_pool():
    net = TinyNet(1, 3, seed=4)
    rng = np.random.default_rng(4)
    img = rng.random((16, 16, 1))
    pooled = img.reshape(8, 2, 8, 2, 1).mean((1, 3))
    assert np.allclose(forward(net, img, downsample=2), forward(net, pooled))


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


def test_input_gradient_matches_fd_with_downsample():
    net = TinyNet(1, 3, seed=10)
    rng = np.random.default_rng(10)
    img = rng.random((20, 20, 1))
    _, _, d_input = loss_and_grad(net, img, 2, downsample=3)
    assert d_input.shape == img.shape  # full resolution, partial windows included
    worst = 0.0
    for _ in range(10):
        r, c = rng.integers(20), rng.integers(20)
        eps = 1e-6
        old = img[r, c, 0]
        img[r, c, 0] = old + eps
        lp, _, _ = loss_and_grad(net, img, 2, downsample=3)
        img[r, c, 0] = old - eps
        lm, _, _ = loss_and_grad(net, img, 2, downsample=3)
        img[r, c, 0] = old
        fd = (lp - lm) / (2 * eps)
        denom = max(abs(fd), abs(d_input[r, c, 0]), 1e-8)
        worst = max(worst, abs(fd - d_input[r, c, 0]) / denom)
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_grad_no_motion():
    net = TinyNet(1, 3, seed=11)
    cfg = TrainConfig(weight_decay=0.0)
    state = init_adam_state(net)
    before = {k: v.copy() for k, v in net.params.items()}
    zeros = {k: np.zeros_like(v) for k, v in net.params.items()}
    adam_step(net.params, zeros, state, cfg, t=1)
    for k in before:
        assert np.array_equal(net.params[k], before[k])


def test_adam_constant_gradient_step_size():
    cfg = TrainConfig(lr=0.01, weight_decay=0.0)
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([0.37])}
    state = {"w": (np.zeros(1), np.zeros(1))}
    prev = params["w"].copy()
    for t in range(1, 301):
        adam_step(params, grads, state, cfg, t)
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
            adam_step(net.params, grads, state, cfg, t)
        runs.append({k: v.copy() for k, v in net.params.items()})
    for k in runs[0]:
        assert np.array_equal(runs[0][k], runs[1][k])


def test_adam_rejects_t_zero():
    net = TinyNet(1, 3, seed=0)
    zeros = {k: np.zeros_like(v) for k, v in net.params.items()}
    with pytest.raises(ValueError):
        adam_step(net.params, zeros, init_adam_state(net), TrainConfig(), t=0)


def test_weight_decay_shrinks_without_gradient():
    cfg = TrainConfig(lr=0.1, weight_decay=0.5)
    params = {"w": np.array([2.0])}
    state = {"w": (np.zeros(1), np.zeros(1))}
    adam_step(params, {"w": np.zeros(1)}, state, cfg, t=1)
    assert np.allclose(params["w"], 2.0 - 0.1 * 0.5 * 2.0)


# ---------------------------------------------------------------------------
# lr schedule

def test_lr_schedule_boundaries():
    cfg = TrainConfig(lr=0.001, lr_step=20, lr_gamma=0.7)
    assert lr_at(0, cfg) == 0.001
    assert lr_at(19, cfg) == 0.001
    assert lr_at(20, cfg) == pytest.approx(0.0007)
    assert lr_at(40, cfg) == pytest.approx(0.001 * 0.49)


def test_lr_gamma_one_constant():
    cfg = TrainConfig(lr_gamma=1.0)
    assert all(lr_at(e, cfg) == cfg.lr for e in (0, 19, 20, 100))


def test_lr_rejects_negative_epoch():
    with pytest.raises(ValueError):
        lr_at(-1, TrainConfig())


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


def test_evaluate_empty_rejected():
    net = TinyNet(1, 2, seed=0)
    with pytest.raises(ValueError):
        evaluate(net, ToyPipeline(net), [])


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


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(str(tmp_path / "nope"))


def test_loss_history_csv(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_history([1.5, 0.75, 0.3], str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss"
    assert lines[1].startswith("0,1.5")
    assert len(lines) == 4


def test_param_count_under_desk_budget():
    assert TinyNet(3, 5).n_params() < 10 ** 5
