"""Certification-guided robust training.

The training loss is built from the sound certifier's per-rival margins, so
minimizing it pushes certified margins up. Each step is one certification
pass with the reverse-mode pass folded in (``certify.rival_margins`` given
the loss's slope): the loss sums over nodes, so each chunk of nodes is
differentiated as soon as it is certified and working memory stays that of
one chunk. The gradient is exact wherever the certifier's discrete choices
(the minimizing flips, the ReLU cases, the ``topk`` selection, the winner of
the symbolic minimum and the output box) stay put, and its cost does not
grow with the number of parameters. Plain gradient descent, no momentum.

Every node trains. A labeled node's target is its label; an unlabeled node's
(label -1) is the model's own predicted label. The hinge loss pushes each
margin to a fixed threshold: ``DEFAULT_LABELED_MARGIN`` = log(90/10) for
labeled nodes, ``DEFAULT_UNLABELED_MARGIN`` = log(60/40) for unlabeled ones.
``train_robust``'s ``loss`` picks the labeled nodes' loss, ``"hinge"`` or
``"bce"``; unlabeled nodes always use the hinge loss.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterator

import numpy as np

from .certify import rival_margins
from .errors import DataError, check_index
from .graph import GcnLayer, GcnModel, Graph, predict
from .perturbation import PerturbationBudget

DEFAULT_LABELED_MARGIN = math.log(90 / 10)
DEFAULT_UNLABELED_MARGIN = math.log(60 / 40)


def _permutations(seed: int, n: int) -> Iterator[list[int]]:
    """Seeded permutations of ``range(n)``, one per draw, the same in every Python version.

    A Fisher-Yates shuffle over ``random.Random(seed).random()``, whose
    sequence Python keeps across versions; ``shuffle`` and ``randrange`` go
    through ``_randbelow``, which it does not. The standard library's
    ``random`` comes with ``import numpy``, so training never imports
    ``numpy.random`` (about 6 MB of resident memory).
    """
    uniform = random.Random(seed).random
    while True:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(uniform() * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        yield perm


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
) -> float:
    """The batch's mean robust loss.

    ``targets``, ``use_bce`` and ``thresholds`` hold one entry per graph node.
    """
    margins, _ = rival_margins(model, graph, budget, variant, targets, batch, mode)
    threshold = thresholds[batch, None]  # (batch x rivals); a single label has no rival
    per_node = np.where(use_bce[batch], bce_loss(margins), hinge_loss(margins, threshold))
    # Python's sum adds in batch order; np.sum would pair terms differently
    return sum(per_node.tolist()) / len(batch)


def _batch_gradient(model: GcnModel, graph: Graph, budget: PerturbationBudget, variant: str,
                    mode: str, batch: np.ndarray, targets: np.ndarray, use_bce: np.ndarray,
                    thresholds: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (weight, bias) gradients of ``_batch_loss``, taken chunk by chunk as the kernel runs."""

    def slope(nodes: np.ndarray, margins: np.ndarray) -> np.ndarray:
        # d/dm -log sigmoid(m) = sigmoid(m) - 1 = -1 / (1 + e^m); the hinge's slope is -1 below
        bce, threshold = use_bce[nodes, None], thresholds[nodes, None]
        return np.where(bce, -np.exp(-np.logaddexp(0.0, margins)),
                        np.where(margins < threshold, -1.0, 0.0)) / len(batch)

    return rival_margins(model, graph, budget, variant, targets, batch, mode, slope)[1]


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
    Labels must lie in [-1, labels), ``steps`` and ``seed`` be integers >= 0,
    ``batch_size`` one >= 1 and ``learning_rate`` a finite number >= 0.
    """
    if loss not in ("hinge", "bce"):
        raise DataError(f"unknown robust loss {loss!r}")
    if not (math.isfinite(learning_rate) and learning_rate >= 0):
        raise DataError(f"learning rate must be a finite number >= 0, got {learning_rate}")
    steps, seed = check_index(steps, "steps"), check_index(seed, "seed")
    batch_size = batch_size if batch_size is None else check_index(batch_size, "batch_size", 1)
    labels = check_index(labels, "label", -1, model.num_labels, many=True)
    n = graph.num_nodes
    if np.shape(labels) != (n,):
        raise DataError("labels must hold one entry per node")

    draws = _permutations(seed, n)
    labeled = labels >= 0
    thresholds = np.where(labeled, DEFAULT_LABELED_MARGIN, DEFAULT_UNLABELED_MARGIN)
    use_bce = labeled & (loss == "bce")
    setting = (graph, budget, variant, mode)

    for step in range(steps):
        if batch_size is None or batch_size >= n:
            batch = np.arange(n)
        else:
            batch = np.sort(np.array(next(draws)[:batch_size], dtype=np.int64))
        # targets fixed per step: the label where there is one, else the
        # current model's prediction
        targets = labels
        if not labeled.all():
            targets = np.where(labeled, labels, predict(model, graph).labels)
        fixed = (batch, targets, use_bce, thresholds)
        grads = _batch_gradient(model, *setting, *fixed)
        model = GcnModel(tuple(
            GcnLayer(layer.weight - learning_rate * weight_grad,
                     layer.bias - learning_rate * bias_grad)
            for layer, (weight_grad, bias_grad) in zip(model.layers, grads)
        ))
        if progress is not None:
            progress(step, _batch_loss(model, *setting, *fixed))

    return model
