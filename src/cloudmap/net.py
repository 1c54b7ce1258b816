"""Small convolutional classifier in plain numpy with hand-written
backpropagation, Adam with decoupled weight decay WEIGHT_DECAY, the step
schedule LR_STEP and LR_GAMMA, a training loop, and accuracy metrics.

Layout is channels-last (H, W, C); conv weights are (C_in, 3, 3, C_out).
Each convolution and its weight and input gradients are plain matmuls
over an im2col matrix of 3x3 windows; train skips conv1's input
gradient, which only attacks read. The padded inputs and im2col matrices
live in one pool per thread that every call in it reuses, and no
returned array is one of them. Each block then max-pools and applies
ReLU, which equals ReLU before the pool, as ReLU is monotone. Pipelines
hand the net its final input, at most 64x64 pixels; forward and
loss_and_grad keep a downsample argument that must be 1. train builds
all net inputs of a pass (the run, or one augmented epoch) before its steps.
"""

import json
import numbers
import os
import threading
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cloud import augment, check_int, check_real

HIDDEN = 16
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
LR_STEP, LR_GAMMA, WEIGHT_DECAY = 20, 0.7, 0.0001
PARAM_ORDER = ("conv1_w", "conv1_b", "conv2_w", "conv2_b",
               "conv3_w", "conv3_b", "fc_w", "fc_b")


@dataclass
class TrainConfig:
    epochs: int = 40
    lr: float = 0.001
    batch_size: int = 16
    seed: int = 0
    augment_cfg: bool = False  # re-augment every sample each epoch; None = off

    def __post_init__(self):
        if not isinstance(self.augment_cfg, (bool, type(None))):
            raise ValueError(f"augment_cfg must be None, False or True, got {self.augment_cfg!r}")
        self.augment_cfg = bool(self.augment_cfg)
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0)
        if check_real("lr", self.lr) <= 0:
            raise ValueError("lr must be > 0")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    check_int("epoch", epoch, 0)
    return cfg.lr * LR_GAMMA ** (epoch // LR_STEP)


class TinyNet:
    """3x [conv3x3 same -> maxpool2x2 -> relu] -> global avg pool -> linear;
    max pooling commutes with the monotone ReLU, so the order is free."""

    def __init__(self, c_in: int, num_classes: int, seed: int = 0):
        self.c_in = c_in = check_int("c_in", c_in, 1)
        self.num_classes = num_classes = check_int("num_classes", num_classes, 1)
        check_int("seed", seed, 0)
        rng = np.random.default_rng([seed, 90])
        def conv_init(ci, co):
            return rng.normal(0.0, np.sqrt(2.0 / (ci * 9)), (ci, 3, 3, co))
        self.params = {
            "conv1_w": conv_init(c_in, HIDDEN), "conv1_b": np.zeros(HIDDEN),
            "conv2_w": conv_init(HIDDEN, HIDDEN), "conv2_b": np.zeros(HIDDEN),
            "conv3_w": conv_init(HIDDEN, HIDDEN), "conv3_b": np.zeros(HIDDEN),
            "fc_w": rng.normal(0.0, np.sqrt(1.0 / HIDDEN), (HIDDEN, num_classes)),
            "fc_b": np.zeros(num_classes),
        }


# ---------------------------------------------------------------------------
# layer forward/backward pairs

_POOL = threading.local()  # .buffers: {(layer, name): array}, one dict per thread


def _buffer(layer: int, key: str, shape: tuple) -> np.ndarray:
    """This thread's buffer (layer, key), replaced by zeros unless it has shape."""
    pool = vars(_POOL).setdefault("buffers", {})
    buf = pool.get((layer, key))
    if buf is None or buf.shape != shape:
        buf = pool[layer, key] = np.zeros(shape)
    return buf


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, layer: int):
    """3x3 same convolution as one matmul. Row p of the im2col matrix
    holds pixel p's zero-padded window in (3, 3, C_in) order, so the copy
    that builds it moves runs of C_in contiguous values. The padded input
    and the im2col matrix are the layer's pool buffers; only the
    padding's interior is ever written, so its border stays zero."""
    h, wd, ci = x.shape
    xp = _buffer(layer, "xp", (h + 2, wd + 2, ci))
    xp[1:-1, 1:-1] = x
    cols = _buffer(layer, "cols", (h * wd, 9 * ci))
    cols.reshape(h, wd, 3, 3, ci)[...] = \
        sliding_window_view(xp, (3, 3), axis=(0, 1)).transpose(0, 1, 3, 4, 2)
    out = cols @ w.transpose(1, 2, 0, 3).reshape(9 * ci, -1)
    out += b
    return out.reshape(h, wd, -1), (cols, w, x.shape)


def _conv_back(d_out: np.ndarray, cache, input_grad: bool):
    """Gradients for the input (None unless input_grad), weights and bias.
    The input gradient is one stacked matmul giving each window offset
    (i, j) its own contiguous (H, W, C_in) block, added shifted by (i, j)."""
    cols, w, x_shape = cache
    h, wd, ci = x_shape
    co = w.shape[3]
    d_out2d = d_out.reshape(h * wd, co)
    d_w = (cols.T @ d_out2d).reshape(3, 3, ci, co).transpose(2, 0, 1, 3)
    d_b = d_out.sum(axis=(0, 1))
    if not input_grad:
        return None, d_w, d_b
    d_cols = (d_out2d @ w.transpose(1, 2, 3, 0).reshape(9, co, ci)) \
        .reshape(3, 3, h, wd, ci)
    d_xp = np.zeros((h + 2, wd + 2, ci))
    for i in range(3):
        for j in range(3):
            d_xp[i:i + h, j:j + wd] += d_cols[i, j]
    return d_xp[1:-1, 1:-1], d_w, d_b


def _pool_views(a: np.ndarray) -> list:
    """2x2 windows as strided views in row-major (0,0), (0,1), (1,0), (1,1) order,
    odd trailing row and column dropped; a 1-pixel-thin array is its own view."""
    h, w = a.shape[0] // 2 * 2, a.shape[1] // 2 * 2
    if h == 0 or w == 0:
        return [a]
    return [a[i:h:2, j:w:2] for i in (0, 1) for j in (0, 1)]


def _pool_relu(x: np.ndarray):
    """ReLU of the 2x2 stride-2 max pool over _pool_views."""
    out = np.maximum(reduce(np.maximum, _pool_views(x)), 0.0)
    return out, (x, out)


def _pool_relu_back(d_out: np.ndarray, cache) -> np.ndarray:
    """Each window's gradient goes to its first maximum in view order, and
    only where the pooled value is positive."""
    x, out = cache
    d_x = np.zeros(x.shape)
    g = d_out * (out > 0.0)  # the gradient of windows not yet routed
    for v, d_v in zip(_pool_views(x), _pool_views(d_x)):
        np.multiply(g, v == out, out=d_v)
        g -= d_v
    return d_x


def _forward_cached(net: TinyNet, image):
    """Logits, and each block's and the head's caches."""
    a = np.asarray(image, dtype=np.float64)
    if a.ndim != 3 or a.shape[2] != net.c_in:
        raise ValueError(f"expected (H, W, {net.c_in}) input, got {a.shape}")
    p = net.params
    blocks = []
    for i in (1, 2, 3):
        a, conv = _conv(a, p[f"conv{i}_w"], p[f"conv{i}_b"], i)
        a, pool = _pool_relu(a)
        blocks.append((conv, pool))
    feat = a.mean(axis=(0, 1))
    logits = feat @ p["fc_w"] + p["fc_b"]
    return logits, (blocks, a.shape, feat)


def forward(net: TinyNet, image, downsample: int = 1) -> np.ndarray:
    if downsample != 1:
        raise ValueError(f"downsample must be 1, got {downsample}")
    return _forward_cached(net, image)[0]


def loss_and_grad(net: TinyNet, image, label: int, downsample: int = 1):
    """Softmax cross-entropy plus gradients for every parameter and for
    the input image."""
    if downsample != 1:
        raise ValueError(f"downsample must be 1, got {downsample}")
    return _loss_and_grads(net, image, label, True)[:3]


def _loss_and_grads(net: TinyNet, image, label: int, input_grad: bool):
    """loss_and_grad, then the logits of its forward pass; without
    input_grad, conv1's input gradient is never computed and d_input is
    None."""
    if check_int("label", label, 0) >= net.num_classes:
        raise ValueError(f"label {label} out of range")
    p = net.params
    logits, (blocks, gap_shape, feat) = _forward_cached(net, image)

    zmax = logits.max()
    lse = zmax + np.log(np.exp(logits - zmax).sum())
    loss = float(lse - logits[label])
    d_logits = np.exp(logits - lse)
    d_logits[label] -= 1.0

    grads = {"fc_w": np.outer(feat, d_logits), "fc_b": d_logits.copy()}
    d_feat = p["fc_w"] @ d_logits
    gh, gw, _ = gap_shape
    d_a = np.broadcast_to(d_feat / (gh * gw), gap_shape)
    for i in (3, 2, 1):
        conv, pool = blocks[i - 1]
        d_a = _pool_relu_back(d_a, pool)
        d_a, grads[f"conv{i}_w"], grads[f"conv{i}_b"] = _conv_back(
            d_a, conv, input_grad or i > 1)
    return loss, grads, d_a, logits


# ---------------------------------------------------------------------------
# optimization

def init_adam_state(net: TinyNet) -> dict:
    return {name: (np.zeros_like(p), np.zeros_like(p))
            for name, p in net.params.items()}


def adam_step(params: dict, grads: dict, state: dict, t: int, lr: float) -> None:
    """In-place Adam update with bias correction and decoupled WEIGHT_DECAY."""
    check_int("t", t, 1)
    if check_real("lr", lr) <= 0:
        raise ValueError("lr must be > 0")
    b1, b2 = ADAM_BETAS
    for name, p in params.items():
        g = grads[name]
        m, v = state[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        p -= lr * (mhat / (np.sqrt(vhat) + ADAM_EPS) + WEIGHT_DECAY * p)


# ---------------------------------------------------------------------------
# training and evaluation

def check_labeled(dataset: list, num_classes: int) -> None:
    """Rejects an empty dataset, or one holding an unlabeled cloud, an
    integer label outside range(num_classes) (all such labels are named)
    or a label that is not an integer (check_int's rule)."""
    if not dataset:
        raise ValueError("empty dataset")
    labels = [cloud.label for cloud in dataset]
    if None in labels:
        raise ValueError("dataset cloud missing label")
    bad = sorted({lab for lab in labels
                  if isinstance(lab, numbers.Integral) and not 0 <= lab < num_classes})
    if bad:
        raise ValueError(f"labels {bad} out of range for {num_classes} classes")
    for lab in labels:
        check_int("label", lab, 0)


def train(pipeline, dataset: list, cfg: TrainConfig):
    """Train the pipeline's net on labeled clouds. The net inputs of a pass
    are built before its steps: once, or with augmentation on, at the top of
    every epoch from clouds augmented per sample. evaluate() never augments.
    Returns (net, per-epoch mean loss)."""
    net = pipeline.net
    check_labeled(dataset, net.num_classes)
    state = init_adam_state(net)
    if not cfg.augment_cfg:
        inputs = [pipeline.net_input(c) for c in dataset]

    history = []
    t = 0
    n = len(dataset)
    for epoch in range(cfg.epochs):
        if cfg.augment_cfg:
            seeds = [int(np.random.default_rng([cfg.seed, 77, epoch, si]).integers(2 ** 31))
                     for si in range(n)]
            inputs = [pipeline.net_input(augment(c, s)) for c, s in zip(dataset, seeds)]
        lr = lr_at(epoch, cfg)
        order = np.random.default_rng([cfg.seed, 31, epoch]).permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            acc = {name: np.zeros_like(p) for name, p in net.params.items()}
            for si in batch:
                loss, grads, _, _ = _loss_and_grads(net, inputs[si], dataset[si].label, False)
                if not np.isfinite(loss):
                    raise RuntimeError(f"loss diverged at epoch {epoch}")
                losses.append(loss)
                for name in acc:
                    acc[name] += grads[name]
            for name in acc:
                acc[name] /= len(batch)
            t += 1
            adam_step(net.params, acc, state, t, lr=lr)
        mean_loss = float(np.mean(losses))
        if not np.isfinite(mean_loss):
            raise RuntimeError(f"loss diverged at epoch {epoch}")
        history.append(mean_loss)
    return net, history


def predict(net: TinyNet, pipeline, cloud) -> int:
    logits = forward(net, pipeline.net_input(cloud))
    return int(np.argmax(logits))


def evaluate(net: TinyNet, pipeline, dataset: list) -> tuple[float, float]:
    """(instance accuracy, class accuracy) in percent. Class accuracy is
    the unweighted mean of per-class recalls, each cloud classified by
    predict."""
    check_labeled(dataset, net.num_classes)
    correct = {}
    total = {}
    for cloud in dataset:
        pred = predict(net, pipeline, cloud)
        lab = cloud.label
        total[lab] = total.get(lab, 0) + 1
        correct[lab] = correct.get(lab, 0) + (1 if pred == lab else 0)
    inst = 100.0 * sum(correct.values()) / sum(total.values())
    cls = 100.0 * np.mean([correct[lab] / total[lab] for lab in sorted(total)])
    return inst, float(cls)


# ---------------------------------------------------------------------------
# persistence

def save_checkpoint(net: TinyNet, stem: str) -> None:
    """stem.bin holds every parameter flattened as float64 in PARAM_ORDER;
    stem.json records shapes and metadata."""
    flat = np.concatenate([net.params[n].ravel() for n in PARAM_ORDER])
    flat.astype("<f8").tofile(stem + ".bin")
    manifest = {
        "c_in": net.c_in,
        "num_classes": net.num_classes,
        "params": {n: list(net.params[n].shape) for n in PARAM_ORDER},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_checkpoint(stem: str) -> TinyNet:
    """The net save_checkpoint wrote to stem. A manifest that does not
    describe TinyNet(c_in, num_classes) raises ValueError naming the key."""
    with open(stem + ".json") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("params"), dict):
        raise ValueError(f"checkpoint {stem}.json must be an object with a params object")
    for key in ("c_in", "num_classes"):
        check_int(f"checkpoint {stem}.json: {key}", manifest.get(key), 1)
    net = TinyNet(manifest["c_in"], manifest["num_classes"])
    for name in PARAM_ORDER:
        got, shape = manifest["params"].get(name), list(net.params[name].shape)
        if got != shape:
            raise ValueError(f"checkpoint {stem}.json: params.{name} is {got!r}, "
                             f"TinyNet({net.c_in}, {net.num_classes}) needs {shape}")
    flat = np.fromfile(stem + ".bin", dtype="<f8")
    ends = np.cumsum([net.params[name].size for name in PARAM_ORDER])
    if ends[-1] != len(flat):
        raise ValueError(f"checkpoint {stem}.bin holds {len(flat)} values, "
                         f"its manifest needs {ends[-1]}")
    extra = os.path.getsize(stem + ".bin") - flat.nbytes
    if extra:
        raise ValueError(f"checkpoint {stem}.bin ends in {extra} bytes that are not a whole value")
    for name, part in zip(PARAM_ORDER, np.split(flat, ends[:-1])):
        net.params[name] = part.reshape(net.params[name].shape)
    return net
