"""FGSM attack harness. The interesting part is not the sign step but the
gradient topology: quantized mappers return a Blocked marker and the
attack degenerates to a no-op, while mappers that write coordinates into
intensities expose a differentiable route from the loss back to every
point, chained through the recorded leak_map links.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .net import forward, loss_and_grad, predict
from .pipeline import Pipeline
from .project import GradPath, MappedImage, cloud_key, encode_slope


class _BlockedMarker:
    """Singleton returned where a gradient would be if one existed."""

    def __repr__(self):
        return "BLOCKED_GRADIENT"

    def __bool__(self):
        return False


BLOCKED_GRADIENT = _BlockedMarker()


def input_point_gradient(pipeline: Pipeline, cloud: PointCloud, label: int,
                         image: MappedImage | None = None):
    """Gradient of the classification loss wrt every point coordinate,
    or BLOCKED_GRADIENT when the mapper quantizes coordinates away.

    Pixel and cell assignments are held fixed: only the intensity values
    are differentiated. Each link contributes the encode's slope times the
    gradient of the net-input cell its pixel is sum-pooled into."""
    if image is None:
        image = pipeline.map_image(cloud)
    if image.grad_path is GradPath.BLOCKED:
        return BLOCKED_GRADIENT
    if image.source_key != cloud_key(cloud):
        raise ValueError("stale leak_map: cloud changed since it was mapped")
    x = pipeline.net_input_from_image(image)
    _, _, d_input = loss_and_grad(pipeline.net, x, label)
    f = image.height // d_input.shape[0]
    rows, cols, pts, chans = image.leak_map.T
    grad = np.zeros_like(cloud.points)
    np.add.at(grad, (pts, chans), encode_slope(cloud.points[pts, chans])
              * d_input[rows // f, cols // f, chans])
    return grad


@dataclass
class FGSMResult:
    cloud: PointCloud
    blocked: bool
    grad_norm: float  # L2 of the final point gradient, 0 when blocked


def fgsm(pipeline: Pipeline, cloud: PointCloud, label: int,
         epsilon: float = 0.1, image: MappedImage | None = None) -> FGSMResult:
    """x' = x + epsilon * sign(grad), one step. A blocked pipeline returns
    the input unchanged with the blocked flag set. image, if given, is the
    pipeline's map of cloud and saves mapping it again."""
    grad = input_point_gradient(pipeline, cloud, label, image=image)
    if grad is BLOCKED_GRADIENT:
        return FGSMResult(cloud, True, 0.0)
    if epsilon != 0.0:
        cloud = cloud.with_points(cloud.points + epsilon * np.sign(grad))
    return FGSMResult(cloud, False, float(np.linalg.norm(grad)))


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
    """Clean and attacked accuracy over the same samples. Each clean cloud
    is mapped once, and that image serves both the clean prediction and
    the attack gradient. The attacked cloud goes through the full mapping
    again (same mapper seed), so a blocked pipeline reproduces its clean
    predictions bit for bit."""
    if not testset:
        raise ValueError("empty testset")
    outcomes = []
    clean_hits = 0
    attacked_hits = 0
    l2s = []
    for i, cloud in enumerate(testset):
        if cloud.label is None:
            raise ValueError(f"testset cloud {i} missing label")
        image = pipeline.map_image(cloud)
        clean_logits = forward(pipeline.net, pipeline.net_input_from_image(image))
        clean_pred = int(np.argmax(clean_logits))
        result = fgsm(pipeline, cloud, cloud.label, epsilon=epsilon, image=image)
        attacked_pred = predict(pipeline.net, pipeline, result.cloud)
        l2 = float(np.linalg.norm(result.cloud.points - cloud.points))
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
