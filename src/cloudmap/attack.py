"""FGSM attack harness. The interesting part is not the sign step but the
gradient topology: quantized mappers have no input gradient (None) and
the attack degenerates to a no-op, while mappers that write coordinates
into intensities expose a differentiable route from the loss back to every
point, which Pipeline.point_gradient chains through each image's record.
"""

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, check_real
from .net import _loss_and_grads, check_labeled, predict
from .pipeline import Pipeline
from .project import GradPath, MappedImage


BLOCKED_GRADIENT = None  # a blocked image's gradient: there is no link to follow


def check_epsilon(epsilon) -> None:
    if check_real("epsilon", epsilon) < 0.0:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")


def _sign_step(cloud: PointCloud, grad: np.ndarray, epsilon: float) -> PointCloud:
    """x + epsilon * sign(grad); epsilon 0 returns cloud itself."""
    if epsilon == 0.0:
        return cloud
    return cloud.with_points(cloud.points + epsilon * np.sign(grad))


def _leak_gradient(pipeline: Pipeline, cloud: PointCloud, label: int,
                   image: MappedImage):
    """(logits, point gradient) of cloud's leak image: one forward and
    backward pass of its net input, the input gradient chained to every
    point through the image's scatter record."""
    _, _, d_input, logits = _loss_and_grads(
        pipeline.net, pipeline.net_input_from_image(image), label, True)
    return logits, pipeline.point_gradient(cloud, image, d_input)


def _same_map(image: MappedImage, own: MappedImage) -> bool:
    """True when image holds own's map: the same shape and four
    scatter-record arrays, or the same data where own has no record."""
    if own.scatter is None:
        return image.shape == own.shape and np.array_equal(image.data, own.data)
    return (image.shape == own.shape and image.scatter is not None
            and all(map(np.array_equal, image.scatter, own.scatter)))


def input_point_gradient(pipeline: Pipeline, cloud: PointCloud, label: int,
                         image: MappedImage | None = None):
    """Gradient of the classification loss wrt every point coordinate,
    or None (BLOCKED_GRADIENT) when the mapper quantizes coordinates away.

    The pipeline maps cloud itself, and the gradient goes through that
    map. Pixel and cell assignments are held fixed: only the intensity
    values are differentiated, through the map's scatter record. A given
    image must equal that map; otherwise ValueError."""
    own = pipeline.map_image(cloud)
    if image is not None and not _same_map(image, own):
        raise ValueError(f"image is not a {pipeline.name} map: expected this cloud's "
                         "{}x{}x{} map at map_seed {}".format(*own.shape, pipeline.map_seed))
    if own.grad_path is GradPath.BLOCKED:
        return None
    return _leak_gradient(pipeline, cloud, label, own)[1]


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


def attack_suite(pipeline: Pipeline, testset: list,
                 epsilon: float = 0.1) -> AttackReport:
    """Clean and attacked accuracy over the same samples; epsilon must be
    finite and >= 0, and labels are checked before any map. A cloud the
    step would leave unchanged (a blocked pipeline, or epsilon 0) is
    classified once by predict, and no backward pass runs. Otherwise the
    clean cloud is mapped once, and one forward and backward pass gives
    its clean prediction and the input gradient of the fgsm step; predict
    then classifies the moved cloud (same mapper seed). Each outcome
    equals that of predict, fgsm and predict in turn."""
    check_epsilon(epsilon)
    net = pipeline.net
    check_labeled(testset, net.num_classes)
    outcomes = []
    for i, cloud in enumerate(testset):
        if pipeline.grad_path is GradPath.BLOCKED or epsilon == 0.0:
            clean_pred = attacked_pred = predict(net, pipeline, cloud)
            attacked_cloud = cloud
        else:
            logits, grad = _leak_gradient(pipeline, cloud, cloud.label,
                                          pipeline.map_image(cloud))
            clean_pred = int(np.argmax(logits))
            attacked_cloud = _sign_step(cloud, grad, epsilon)
            attacked_pred = predict(net, pipeline, attacked_cloud)
        outcomes.append({"sample": i, "label": cloud.label,
                         "clean_pred": clean_pred, "attacked_pred": attacked_pred,
                         "perturbation_l2": float(np.linalg.norm(
                             attacked_cloud.points - cloud.points))})
    clean, attacked = (100.0 * sum(o[key] == o["label"] for o in outcomes) / len(outcomes)
                       for key in ("clean_pred", "attacked_pred"))
    return AttackReport(clean, attacked, asr(clean, attacked),
                        float(np.mean([o["perturbation_l2"] for o in outcomes])), outcomes)
