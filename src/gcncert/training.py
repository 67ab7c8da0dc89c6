"""Certification-guided robust training.

The training loss is built from the sound certifier's per-rival margins, so
minimizing it pushes certified margins up. Each step is one certification
pass and one reverse-mode pass through it (``certify.rival_margins``): the
gradient is exact wherever the certifier's discrete choices (the minimizing
flips, the ReLU cases, the ``topk`` selection, the winner of the symbolic
minimum and the output box) stay put, and its cost does not grow with the
number of parameters. Plain gradient descent, no momentum.

Every node trains. A labeled node's target is its label; an unlabeled node's
(label -1) is the model's own predicted label. The hinge loss pushes each
margin to a fixed threshold: ``DEFAULT_LABELED_MARGIN`` = log(90/10) for
labeled nodes, ``DEFAULT_UNLABELED_MARGIN`` = log(60/40) for unlabeled ones.
``train_robust``'s ``loss`` picks the labeled nodes' loss, ``"hinge"`` or
``"bce"``; unlabeled nodes always use the hinge loss.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .certify import rival_margins
from .errors import DataError
from .graph import GcnLayer, GcnModel, Graph, predict
from .perturbation import PerturbationBudget, check_index

DEFAULT_LABELED_MARGIN = math.log(90 / 10)
DEFAULT_UNLABELED_MARGIN = math.log(60 / 40)


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


def _batch_loss(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str,
    mode: str,
    batch: np.ndarray,
    targets: np.ndarray,
    use_bce: np.ndarray,
    thresholds: np.ndarray,
) -> tuple[float, Callable[[], list[tuple[np.ndarray, np.ndarray]]]]:
    """The batch's mean robust loss and a function returning its (weight, bias) gradients.

    ``targets``, ``use_bce`` and ``thresholds`` hold one entry per graph node.
    """
    margins, pullback = rival_margins(model, graph, budget, variant, targets, batch, mode)
    bce = use_bce[batch, None]
    threshold = thresholds[batch, None]  # (batch x rivals); a single label has no rival
    per_node = np.where(bce[:, 0], bce_loss(margins), hinge_loss(margins, threshold))

    def gradient() -> list[tuple[np.ndarray, np.ndarray]]:
        # d/dm -log sigmoid(m) = sigmoid(m) - 1 = -1 / (1 + e^m); the hinge's slope is -1 below
        slope = np.where(bce, -np.exp(-np.logaddexp(0.0, margins)),
                         np.where(margins < threshold, -1.0, 0.0))
        return pullback(slope / len(batch))

    # Python's sum adds in batch order; np.sum would pair terms differently
    return sum(per_node.tolist()) / len(batch), gradient


def train_robust(
    model: GcnModel,
    graph: Graph,
    labels: np.ndarray,
    budget: PerturbationBudget,
    steps: int,
    learning_rate: float,
    seed: int,
    *,
    loss: str = "hinge",
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
    Labeled nodes use ``loss``: ``"hinge"`` at ``DEFAULT_LABELED_MARGIN``, or
    ``"bce"``; unlabeled nodes use the hinge loss at
    ``DEFAULT_UNLABELED_MARGIN``. A step certifies the batch once and takes
    the loss's exact gradient by one reverse-mode pass, so models of any
    width train. ``progress``, if given, gets each step's loss after the
    update, on that step's batch and targets. The interval variant defaults
    to ``max`` because the numeric bounds are recomputed at every step.
    ``steps`` must be an integer >= 0, ``batch_size`` one >= 1 and
    ``learning_rate`` a finite number >= 0.
    """
    if loss not in ("hinge", "bce"):
        raise DataError(f"unknown robust loss {loss!r}")
    if not (math.isfinite(learning_rate) and learning_rate >= 0):
        raise DataError(f"learning rate must be a finite number >= 0, got {learning_rate}")
    if check_index(steps, "steps") < 0:
        raise DataError("steps must be at least 0")
    if batch_size is not None and check_index(batch_size, "batch_size") < 1:
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
    labeled = labels >= 0
    thresholds = np.where(labeled, DEFAULT_LABELED_MARGIN, DEFAULT_UNLABELED_MARGIN)
    use_bce = labeled & (loss == "bce")
    setting = (graph, budget, variant, mode)

    for step in range(steps):
        if batch_size is None or batch_size >= n:
            batch = np.arange(n)
        else:
            batch = np.sort(rng.permutation(n)[:batch_size])
        # targets fixed per step: the label where there is one, else the
        # current model's prediction
        targets = labels
        if not labeled.all():
            targets = np.where(labeled, labels, predict(model, graph).labels)
        fixed = (batch, targets, use_bce, thresholds)
        _, gradient = _batch_loss(model, *setting, *fixed)
        model = GcnModel(tuple(
            GcnLayer(layer.weight - learning_rate * weight_grad,
                     layer.bias - learning_rate * bias_grad)
            for layer, (weight_grad, bias_grad) in zip(model.layers, gradient())
        ))
        if progress is not None:
            progress(step, _batch_loss(model, *setting, *fixed)[0])

    return model
