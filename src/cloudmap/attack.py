"""FGSM attack harness. The interesting part is not the sign step but the
gradient topology: quantized mappers have no input gradient (None) and
the attack degenerates to a no-op, while mappers that write coordinates
into intensities expose a differentiable route from the loss back to every
point, which Pipeline.point_gradient chains through each image's record.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .net import _forward_cached, _loss_and_grads, _scratch, check_labeled, loss_and_grad
from .pipeline import Pipeline
from .project import GradPath, MappedImage, cloud_key


BLOCKED_GRADIENT = None  # a blocked image's gradient: there is no link to follow


def check_epsilon(epsilon) -> None:
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")


def _sign_step(cloud: PointCloud, grad: np.ndarray, epsilon: float) -> PointCloud:
    """x + epsilon * sign(grad); epsilon 0 returns cloud itself."""
    if epsilon == 0.0:
        return cloud
    return cloud.with_points(cloud.points + epsilon * np.sign(grad))


def input_point_gradient(pipeline: Pipeline, cloud: PointCloud, label: int,
                         image: MappedImage | None = None):
    """Gradient of the classification loss wrt every point coordinate,
    or None (BLOCKED_GRADIENT) when the mapper quantizes coordinates away.

    Pixel and cell assignments are held fixed: only the intensity values
    are differentiated, through the image's scatter record."""
    if image is None:
        image = pipeline.map_image(cloud)
    if image.grad_path is GradPath.BLOCKED:
        return None
    if image.source_key != cloud_key(cloud):
        raise ValueError("stale leak_map: cloud changed since it was mapped")
    x = pipeline.net_input_from_image(image)
    _, _, d_input = loss_and_grad(pipeline.net, x, label)
    return pipeline.point_gradient(cloud, image, d_input)


@dataclass
class FGSMResult:
    cloud: PointCloud
    blocked: bool
    grad_norm: float  # L2 of the final point gradient, 0 when blocked


def fgsm(pipeline: Pipeline, cloud: PointCloud, label: int,
         epsilon: float = 0.1) -> FGSMResult:
    """x' = x + epsilon * sign(grad), one step. A blocked pipeline returns
    the input unchanged with the blocked flag set. epsilon must be finite
    and >= 0."""
    check_epsilon(epsilon)
    grad = input_point_gradient(pipeline, cloud, label)
    if grad is None:
        return FGSMResult(cloud, True, 0.0)
    return FGSMResult(_sign_step(cloud, grad, epsilon), False, float(np.linalg.norm(grad)))


def asr(clean_accuracy: float, attacked_accuracy: float) -> float:
    """(clean - attacked) / clean in percent; 0 when clean is 0. Clamped
    at 0 so an attack that helps the model does not report negative."""
    if clean_accuracy <= 0.0:
        return 0.0
    return max(0.0, (clean_accuracy - attacked_accuracy) / clean_accuracy * 100.0)


@dataclass
class AttackReport:
    clean_accuracy: float
    attacked_accuracy: float
    attack_success_rate: float
    mean_perturbation_l2: float
    outcomes: list  # per-sample dicts

    def to_json(self, path) -> None:
        payload = {
            "clean_accuracy": self.clean_accuracy,
            "attacked_accuracy": self.attacked_accuracy,
            "attack_success_rate": self.attack_success_rate,
            "mean_perturbation_l2": self.mean_perturbation_l2,
            "n_samples": len(self.outcomes),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample", "label", "clean_pred", "attacked_pred",
                             "perturbation_l2"])
            for o in self.outcomes:
                writer.writerow([o["sample"], o["label"], o["clean_pred"],
                                 o["attacked_pred"], f"{o['perturbation_l2']:.17g}"])


def attack_suite(pipeline: Pipeline, testset: list,
                 epsilon: float = 0.1) -> AttackReport:
    """Clean and attacked accuracy over the same samples; epsilon must be
    finite and >= 0, and labels are checked before any map. Each clean
    cloud is mapped once and goes through one forward pass, which gives
    its clean prediction. A cloud the step would leave unchanged (a
    blocked pipeline, or epsilon 0) keeps it, and no backward pass runs;
    otherwise the pass feeds the backward pass of the fgsm step, and the
    moved cloud is mapped and classified again (same mapper seed). All of
    it runs on conv buffers kept for the whole call, and each outcome
    equals that of predict, fgsm and predict in turn."""
    check_epsilon(epsilon)
    net = pipeline.net
    check_labeled(testset, net.num_classes)
    scratch = _scratch()
    outcomes = []
    clean_hits = 0
    attacked_hits = 0
    l2s = []
    for i, cloud in enumerate(testset):
        image = pipeline.map_image(cloud)
        x = pipeline.net_input_from_image(image)
        if image.grad_path is GradPath.BLOCKED or epsilon == 0.0:
            clean_pred = attacked_pred = int(np.argmax(_forward_cached(net, x, 1, scratch)[0]))
            attacked_cloud = cloud
        else:
            _, _, d_input, logits = _loss_and_grads(net, x, cloud.label, 1, True, scratch)
            clean_pred = int(np.argmax(logits))
            grad = pipeline.point_gradient(cloud, image, d_input)
            attacked_cloud = _sign_step(cloud, grad, epsilon)
            x = pipeline.net_input(attacked_cloud)
            attacked_pred = int(np.argmax(_forward_cached(net, x, 1, scratch)[0]))
        l2 = float(np.linalg.norm(attacked_cloud.points - cloud.points))
        clean_hits += clean_pred == cloud.label
        attacked_hits += attacked_pred == cloud.label
        l2s.append(l2)
        outcomes.append({"sample": i, "label": cloud.label,
                         "clean_pred": clean_pred, "attacked_pred": attacked_pred,
                         "perturbation_l2": l2})
    n = len(testset)
    clean = 100.0 * clean_hits / n
    attacked = 100.0 * attacked_hits / n
    return AttackReport(clean, attacked, asr(clean, attacked),
                        float(np.mean(l2s)), outcomes)
