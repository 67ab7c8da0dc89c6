"""Certification-guided robust training at desk scale.

The training loss is built from the sound certifier's per-rival margins, so
minimizing it pushes certified margins up. Gradients come from central finite
differences over every parameter: exact enough at toy scale and free of any
autodiff dependency, but the model must stay small (a few thousand parameters
at most). Plain gradient descent, no momentum.

Unlabeled nodes (label -1) can join training with the model's own predicted
label as the target; they always use the hinge loss at the unlabeled
threshold, while labeled nodes use the configured loss kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certify import certify_sound
from .errors import DataError
from .graph import GcnLayer, GcnModel, Graph, predict
from .perturbation import PerturbationBudget

DEFAULT_LABELED_MARGIN = math.log(90 / 10)
DEFAULT_UNLABELED_MARGIN = math.log(60 / 40)


@dataclass(frozen=True)
class RobustLossConfig:
    kind: str = "hinge"  # "hinge" or "bce"
    hinge_threshold_labeled: float = DEFAULT_LABELED_MARGIN
    hinge_threshold_unlabeled: float = DEFAULT_UNLABELED_MARGIN
    use_predicted_labels_for_unlabeled: bool = True

    def __post_init__(self):
        if self.kind not in ("hinge", "bce"):
            raise DataError(f"unknown robust loss kind {self.kind!r}")
        if not (math.isfinite(self.hinge_threshold_labeled) and math.isfinite(self.hinge_threshold_unlabeled)):
            raise DataError("hinge thresholds must be finite")


def bce_loss(delta_margins: np.ndarray) -> float:
    """Sum of -log sigmoid(margin): zero when all margins are large, grows as they drop."""
    margins = np.asarray(delta_margins, dtype=np.float64)
    return float(np.logaddexp(0.0, -margins).sum())


def hinge_loss(delta_margins: np.ndarray, threshold: float) -> float:
    """Sum of max(threshold - margin, 0); zero iff every margin reaches the threshold."""
    margins = np.asarray(delta_margins, dtype=np.float64)
    return float(np.maximum(threshold - margins, 0.0).sum())


def parameter_count(model: GcnModel) -> int:
    return sum(layer.weight.size + layer.bias.size for layer in model.layers)


def _pack(model: GcnModel) -> np.ndarray:
    parts = []
    for layer in model.layers:
        parts.append(layer.weight.ravel())
        parts.append(layer.bias)
    return np.concatenate(parts)


def _unpack(template: GcnModel, params: np.ndarray) -> GcnModel:
    layers = []
    offset = 0
    for layer in template.layers:
        w_size = layer.weight.size
        weight = params[offset : offset + w_size].reshape(layer.weight.shape)
        offset += w_size
        b_size = layer.bias.size
        bias = params[offset : offset + b_size]
        offset += b_size
        layers.append(GcnLayer(weight, bias))
    return GcnModel(tuple(layers))


def train_robust(
    model: GcnModel,
    graph: Graph,
    labels: np.ndarray,
    budget: PerturbationBudget,
    config: RobustLossConfig,
    steps: int,
    learning_rate: float,
    seed: int,
    *,
    variant: str = "max",
    mode: str = "both",
    batch_size: int | None = None,
    fd_step: float = 1e-4,
    max_parameters: int = 2000,
    progress: Callable[[int, float], None] | None = None,
) -> GcnModel:
    """Gradient-descend the robust loss for ``steps`` steps and return the new model.

    ``labels`` holds one integer per node, -1 marking unlabeled nodes. Each
    step draws a batch (all trainable nodes when ``batch_size`` is None),
    fixes the per-node target labels from the current model, and averages the
    per-node robust losses over the batch. The interval variant defaults to
    ``max`` because the numeric bounds are recomputed at every evaluation.
    """
    count = parameter_count(model)
    if count > max_parameters:
        raise DataError(
            f"model has {count} parameters, finite-difference training caps at "
            f"{max_parameters}; shrink the model (fewer or narrower layers)"
        )
    if batch_size is not None and batch_size < 1:
        raise DataError("batch_size must be at least 1")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.num_nodes,):
        raise DataError("labels must hold one entry per node")
    if (labels >= model.num_labels).any():
        raise DataError("label index exceeds the model's output width")

    rng = np.random.default_rng(seed)
    params = _pack(model)

    labeled_nodes = np.nonzero(labels >= 0)[0]
    unlabeled_nodes = np.nonzero(labels < 0)[0]
    trainable = (
        np.concatenate([labeled_nodes, unlabeled_nodes])
        if config.use_predicted_labels_for_unlabeled
        else labeled_nodes
    )
    trainable = np.sort(trainable)
    if len(trainable) == 0:
        raise DataError("no trainable nodes: every node is unlabeled and predictions are off")

    def batch_loss(vec: np.ndarray, batch: np.ndarray, targets: np.ndarray) -> float:
        candidate = _unpack(model, vec)
        judgments = certify_sound(
            candidate, graph, budget, variant,
            labels=targets, nodes=batch.tolist(), mode=mode,
        )
        total = 0.0
        for node, judgment in zip(batch, judgments):
            margins = np.array(list(judgment.rival_margins.values()))
            if labels[node] >= 0 and config.kind == "bce":
                total += bce_loss(margins)
            else:
                threshold = (
                    config.hinge_threshold_labeled
                    if labels[node] >= 0
                    else config.hinge_threshold_unlabeled
                )
                total += hinge_loss(margins, threshold)
        return total / len(batch)

    for step in range(steps):
        if batch_size is None or batch_size >= len(trainable):
            batch = trainable
        else:
            batch = np.sort(rng.permutation(trainable)[:batch_size])
        # target labels fixed per step: ground truth where available, else the
        # current model's prediction (held constant across the FD evaluations)
        targets = labels.copy()
        if len(unlabeled_nodes) and config.use_predicted_labels_for_unlabeled:
            predicted = predict(_unpack(model, params), graph).labels
            targets[unlabeled_nodes] = predicted[unlabeled_nodes]

        grad = np.zeros_like(params)
        for p in range(len(params)):
            shifted = params.copy()
            shifted[p] = params[p] + fd_step
            up = batch_loss(shifted, batch, targets)
            shifted[p] = params[p] - fd_step
            down = batch_loss(shifted, batch, targets)
            grad[p] = (up - down) / (2.0 * fd_step)
        params = params - learning_rate * grad
        if progress is not None:
            progress(step, batch_loss(params, batch, targets))

    return _unpack(model, params)
