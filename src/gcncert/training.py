"""Certification-guided robust training at desk scale.

The training loss is built from the sound certifier's per-rival margins, so
minimizing it pushes certified margins up. Gradients come from central finite
differences over every parameter: exact enough at toy scale and free of any
autodiff dependency, but the model must stay small (a few thousand parameters
at most). Plain gradient descent, no momentum.

Every node trains. A labeled node's target is its label; an unlabeled node's
(label -1) is the model's own predicted label. The hinge loss pushes each
margin to a fixed threshold: ``DEFAULT_LABELED_MARGIN`` = log(90/10) for
labeled nodes, ``DEFAULT_UNLABELED_MARGIN`` = log(60/40) for unlabeled ones.
The BCE loss, when chosen, applies only to labeled nodes; unlabeled nodes
always use the hinge loss.
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
FD_STEP = 1e-4  # central-difference step on every parameter
MAX_PARAMETERS = 2000  # 2 certifier calls per parameter per step


@dataclass(frozen=True)
class RobustLossConfig:
    kind: str = "hinge"  # "hinge" or "bce" (labeled nodes only)

    def __post_init__(self):
        if self.kind not in ("hinge", "bce"):
            raise DataError(f"unknown robust loss kind {self.kind!r}")


def bce_loss(delta_margins: np.ndarray) -> np.ndarray:
    """Sum over the last axis of -log sigmoid(margin): near zero when all margins are large."""
    margins = np.asarray(delta_margins, dtype=np.float64)
    return np.logaddexp(0.0, -margins).sum(axis=-1)


def hinge_loss(delta_margins: np.ndarray, threshold: float | np.ndarray) -> np.ndarray:
    """Sum over the last axis of max(threshold - margin, 0); zero iff every margin reaches it.

    ``threshold`` is a scalar or, for a (nodes x rivals) matrix, a column of
    one threshold per node.
    """
    margins = np.asarray(delta_margins, dtype=np.float64)
    return np.maximum(threshold - margins, 0.0).sum(axis=-1)


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
    progress: Callable[[int, float], None] | None = None,
) -> GcnModel:
    """Gradient-descend the robust loss for ``steps`` steps and return the new model.

    ``labels`` holds one integer per node, -1 marking unlabeled nodes. Every
    node trains: each step draws a batch (all nodes when ``batch_size`` is
    None), fixes the targets (the label, or for an unlabeled node the current
    model's prediction), and averages the per-node losses over the batch.
    Labeled nodes use ``config.kind`` with the hinge threshold
    ``DEFAULT_LABELED_MARGIN``; unlabeled nodes use the hinge loss at
    ``DEFAULT_UNLABELED_MARGIN``. The interval variant defaults to ``max``
    because the numeric bounds are recomputed at every evaluation.
    """
    count = parameter_count(model)
    if count > MAX_PARAMETERS:
        raise DataError(
            f"model has {count} parameters, finite-difference training caps at "
            f"{MAX_PARAMETERS}; shrink the model (fewer or narrower layers)"
        )
    if batch_size is not None and batch_size < 1:
        raise DataError("batch_size must be at least 1")
    labels = np.asarray(labels, dtype=np.int64)
    n = graph.num_nodes
    if labels.shape != (n,):
        raise DataError("labels must hold one entry per node")
    if (labels >= model.num_labels).any():
        raise DataError("label index exceeds the model's output width")
    if (labels < -1).any():
        raise DataError("labels must be -1 (unlabeled) or a label index")

    rng = np.random.default_rng(seed)
    params = _pack(model)
    labeled = labels >= 0
    thresholds = np.where(labeled, DEFAULT_LABELED_MARGIN, DEFAULT_UNLABELED_MARGIN)
    use_bce = labeled & (config.kind == "bce")

    def batch_loss(vec: np.ndarray, batch: np.ndarray, targets: np.ndarray) -> float:
        judgments = certify_sound(
            _unpack(model, vec), graph, budget, variant,
            labels=targets, nodes=batch.tolist(), mode=mode,
        )
        # (batch x rivals); a single-label model has zero rival columns
        margins = np.array([list(j.rival_margins.values()) for j in judgments], dtype=np.float64)
        per_node = np.where(
            use_bce[batch], bce_loss(margins), hinge_loss(margins, thresholds[batch, None])
        )
        # Python's sum adds in batch order; np.sum would pair terms differently
        return sum(per_node.tolist()) / len(batch)

    for step in range(steps):
        if batch_size is None or batch_size >= n:
            batch = np.arange(n)
        else:
            batch = np.sort(rng.permutation(n)[:batch_size])
        # targets fixed per step: the label where there is one, else the
        # current model's prediction (held constant across the FD evaluations)
        targets = labels
        if not labeled.all():
            predicted = predict(_unpack(model, params), graph).labels
            targets = np.where(labeled, labels, predicted)

        grad = np.zeros_like(params)
        for p in range(len(params)):
            shifted = params.copy()
            shifted[p] = params[p] + FD_STEP
            up = batch_loss(shifted, batch, targets)
            shifted[p] = params[p] - FD_STEP
            down = batch_loss(shifted, batch, targets)
            grad[p] = (up - down) / (2.0 * FD_STEP)
        params = params - learning_rate * grad
        if progress is not None:
            progress(step, batch_loss(params, batch, targets))

    return _unpack(model, params)
