"""Small convolutional classifier in plain numpy with hand-written
backpropagation, Adam with decoupled weight decay, a step learning-rate
schedule, a training loop over mapped point clouds, and accuracy metrics.

Layout is channels-last (H, W, C); conv weights are (C_in, 3, 3, C_out).
Pipelines hand the net inputs of at most 64x64 pixels. forward and
loss_and_grad can also average-pool by an integer downsample factor
before the first conv; the pooling is differentiable, so input gradients
come back at the original resolution.
"""

import csv
import json
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cloud import AugmentConfig, augment

HIDDEN = 16
PARAM_ORDER = ("conv1_w", "conv1_b", "conv2_w", "conv2_b",
               "conv3_w", "conv3_b", "fc_w", "fc_b")


@dataclass
class TrainConfig:
    epochs: int = 40
    lr: float = 0.001
    lr_step: int = 20
    lr_gamma: float = 0.7
    betas: tuple = (0.9, 0.999)
    weight_decay: float = 0.0001
    batch_size: int = 16
    seed: int = 0
    augment_cfg: AugmentConfig | None = None  # None = no augmentation


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.lr * cfg.lr_gamma ** (epoch // cfg.lr_step)


class TinyNet:
    """3x [conv3x3 same + relu + maxpool2x2] -> global avg pool -> linear."""

    def __init__(self, c_in: int, num_classes: int, seed: int = 0):
        self.c_in = c_in
        self.num_classes = num_classes
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

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())


# ---------------------------------------------------------------------------
# layer forward/backward pairs

def _avgpool_entry(x: np.ndarray, factor: int):
    """Downsample by an integer factor; partial edge windows are averaged
    over the pixels actually present."""
    if factor <= 1:
        return x, None
    h, w, c = x.shape
    ph, pw = -(-h // factor), -(-w // factor)
    xp = np.zeros((ph * factor, pw * factor, c))
    xp[:h, :w] = x
    sums = xp.reshape(ph, factor, pw, factor, c).sum(axis=(1, 3))
    rows = np.minimum(factor, h - factor * np.arange(ph))
    cols = np.minimum(factor, w - factor * np.arange(pw))
    counts = rows[:, None] * cols[None, :]
    out = sums / counts[:, :, None]
    return out, (h, w, factor, counts)


def _avgpool_entry_back(d_out: np.ndarray, cache) -> np.ndarray:
    if cache is None:
        return d_out
    h, w, factor, counts = cache
    scaled = d_out / counts[:, :, None]
    up = np.repeat(np.repeat(scaled, factor, axis=0), factor, axis=1)
    return up[:h, :w]


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    h, wd, ci = x.shape
    xp = np.zeros((h + 2, wd + 2, ci))
    xp[1:-1, 1:-1] = x
    win = sliding_window_view(xp, (3, 3), axis=(0, 1))  # (h, wd, ci, 3, 3)
    out = np.einsum("hwcij,cijo->hwo", win, w, optimize=True) + b
    return out, (win, w, x.shape)


def _conv_back(d_out: np.ndarray, cache):
    win, w, x_shape = cache
    h, wd, ci = x_shape
    d_w = np.einsum("hwcij,hwo->cijo", win, d_out, optimize=True)
    d_b = d_out.sum(axis=(0, 1))
    d_xp = np.zeros((h + 2, wd + 2, ci))
    for i in range(3):
        for j in range(3):
            d_xp[i:i + h, j:j + wd] += np.einsum(
                "hwo,co->hwc", d_out, w[:, i, j, :], optimize=True)
    return d_xp[1:-1, 1:-1], d_w, d_b


def _relu(x: np.ndarray):
    mask = x > 0.0
    return x * mask, mask


def _maxpool(x: np.ndarray):
    """2x2, stride 2, trailing odd row/col dropped. First max wins ties.
    Inputs already down to 1 pixel in either dimension pass through."""
    h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    if h2 == 0 or w2 == 0:
        return x, None
    xr = x[:2 * h2, :2 * w2].reshape(h2, 2, w2, 2, c)
    xr = xr.transpose(0, 2, 4, 1, 3).reshape(h2, w2, c, 4)
    idx = xr.argmax(axis=-1)
    out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    return out, (idx, x.shape)


def _maxpool_back(d_out: np.ndarray, cache) -> np.ndarray:
    if cache is None:
        return d_out
    idx, x_shape = cache
    h, w, c = x_shape
    h2, w2 = h // 2, w // 2
    scattered = np.zeros((h2, w2, c, 4))
    np.put_along_axis(scattered, idx[..., None], d_out[..., None], axis=-1)
    d_x = np.zeros((h, w, c))
    d_x[:2 * h2, :2 * w2] = scattered.reshape(h2, w2, c, 2, 2) \
        .transpose(0, 3, 1, 4, 2).reshape(2 * h2, 2 * w2, c)
    return d_x


def _forward_cached(net: TinyNet, x: np.ndarray, downsample: int):
    p = net.params
    caches = {}
    x0, caches["pool0"] = _avgpool_entry(x, downsample)
    a = x0
    for i in (1, 2, 3):
        a, caches[f"conv{i}"] = _conv(a, p[f"conv{i}_w"], p[f"conv{i}_b"])
        a, caches[f"relu{i}"] = _relu(a)
        a, caches[f"max{i}"] = _maxpool(a)
    caches["gap_shape"] = a.shape
    feat = a.mean(axis=(0, 1))
    caches["feat"] = feat
    logits = feat @ p["fc_w"] + p["fc_b"]
    return logits, caches


def forward(net: TinyNet, image, downsample: int = 1) -> np.ndarray:
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != net.c_in:
        raise ValueError(f"expected (H, W, {net.c_in}) input, got {x.shape}")
    logits, _ = _forward_cached(net, x, downsample)
    return logits


def loss_and_grad(net: TinyNet, image, label: int, downsample: int = 1):
    """Softmax cross-entropy plus gradients for every parameter and for
    the input image (at its original resolution)."""
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != net.c_in:
        raise ValueError(f"expected (H, W, {net.c_in}) input, got {x.shape}")
    if not 0 <= label < net.num_classes:
        raise ValueError(f"label {label} out of range")
    p = net.params
    logits, caches = _forward_cached(net, x, downsample)

    zmax = logits.max()
    lse = zmax + np.log(np.exp(logits - zmax).sum())
    loss = float(lse - logits[label])
    d_logits = np.exp(logits - lse)
    d_logits[label] -= 1.0

    grads = {}
    grads["fc_w"] = np.outer(caches["feat"], d_logits)
    grads["fc_b"] = d_logits.copy()
    d_feat = p["fc_w"] @ d_logits
    gh, gw, _ = caches["gap_shape"]
    d_a = np.broadcast_to(d_feat / (gh * gw), caches["gap_shape"]).copy()
    for i in (3, 2, 1):
        d_a = _maxpool_back(d_a, caches[f"max{i}"])
        d_a = d_a * caches[f"relu{i}"]
        d_a, grads[f"conv{i}_w"], grads[f"conv{i}_b"] = _conv_back(d_a, caches[f"conv{i}"])
    d_input = _avgpool_entry_back(d_a, caches["pool0"])
    return loss, grads, d_input


# ---------------------------------------------------------------------------
# optimization

def init_adam_state(net: TinyNet) -> dict:
    return {name: (np.zeros_like(p), np.zeros_like(p))
            for name, p in net.params.items()}


def adam_step(params: dict, grads: dict, state: dict, cfg: TrainConfig,
              t: int, lr: float | None = None, eps: float = 1e-8) -> None:
    """In-place Adam update with bias correction; weight decay is applied
    decoupled from the moment estimates."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if lr is None:
        lr = cfg.lr
    b1, b2 = cfg.betas
    for name, p in params.items():
        g = grads[name]
        m, v = state[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        p -= lr * (mhat / (np.sqrt(vhat) + eps) + cfg.weight_decay * p)


# ---------------------------------------------------------------------------
# training and evaluation

def train(pipeline, dataset: list, cfg: TrainConfig):
    """Train the pipeline's net on labeled clouds. Augmentation (when
    configured) is re-rolled per sample per epoch; inference inside
    evaluate() never augments. Returns (net, per-epoch mean loss)."""
    if not dataset:
        raise ValueError("empty dataset")
    for cloud in dataset:
        if cloud.label is None:
            raise ValueError("dataset cloud missing label")
    net = pipeline.net
    state = init_adam_state(net)
    static_inputs = None
    if cfg.augment_cfg is None:
        static_inputs = [pipeline.net_input(c) for c in dataset]

    history = []
    t = 0
    n = len(dataset)
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = np.random.default_rng([cfg.seed, 31, epoch]).permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            acc = {name: np.zeros_like(p) for name, p in net.params.items()}
            for si in batch:
                cloud = dataset[si]
                if static_inputs is not None:
                    x = static_inputs[si]
                else:
                    aug = replace(cfg.augment_cfg,
                                  seed=int(np.random.default_rng(
                                      [cfg.seed, 77, epoch, int(si)]).integers(2 ** 31)))
                    x = pipeline.net_input(augment(cloud, aug))
                loss, grads, _ = loss_and_grad(net, x, cloud.label)
                if not np.isfinite(loss):
                    raise RuntimeError(f"loss diverged at epoch {epoch}")
                losses.append(loss)
                for name in acc:
                    acc[name] += grads[name]
            for name in acc:
                acc[name] /= len(batch)
            t += 1
            adam_step(net.params, acc, state, cfg, t, lr=lr)
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
    the unweighted mean of per-class recalls."""
    if not dataset:
        raise ValueError("empty dataset")
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
    with open(stem + ".json") as fh:
        manifest = json.load(fh)
    net = TinyNet(manifest["c_in"], manifest["num_classes"])
    flat = np.fromfile(stem + ".bin", dtype="<f8")
    pos = 0
    for name in PARAM_ORDER:
        shape = tuple(manifest["params"][name])
        size = int(np.prod(shape))
        net.params[name] = flat[pos:pos + size].reshape(shape).copy()
        pos += size
    if pos != len(flat):
        raise ValueError("checkpoint size does not match manifest")
    return net


def write_loss_history(history: list, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for i, loss in enumerate(history):
            writer.writerow([i, f"{loss:.17g}"])
