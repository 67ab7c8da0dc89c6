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
Batches are drawn by a port of NumPy's ``default_rng(seed).permutation``.

Every node trains. A labeled node's target is its label; an unlabeled node's
(label -1) is the model's own predicted label. The hinge loss pushes each
margin to a fixed threshold: ``DEFAULT_LABELED_MARGIN`` = log(90/10) for
labeled nodes, ``DEFAULT_UNLABELED_MARGIN`` = log(60/40) for unlabeled ones.
``train_robust``'s ``loss`` picks the labeled nodes' loss, ``"hinge"`` or
``"bce"``; unlabeled nodes always use the hinge loss.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .certify import rival_margins
from .errors import DataError, check_index
from .graph import GcnLayer, GcnModel, Graph, predict
from .perturbation import PerturbationBudget

DEFAULT_LABELED_MARGIN = math.log(90 / 10)
DEFAULT_UNLABELED_MARGIN = math.log(60 / 40)


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """NumPy's ``SeedSequence(seed).generate_state(4, np.uint64)``, as Python ints."""
    words, hash_a = [], 0x43B0D7E5  # seed's 32-bit words, least significant first
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    halves, hash_b = [], 0x8B51F9DD  # 32-bit halves, the low one first
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        halves.append(value ^ value >> 16)
    return [low | high << 32 for low, high in zip(halves[::2], halves[1::2])]


def _permutations(seed: int, n: int) -> Iterator[list[int]]:
    """The draws of ``np.random.default_rng(seed).permutation(n)``, again and again, bit for bit.

    A pure-Python port of NumPy's SeedSequence, PCG64 and Fisher-Yates
    shuffle by masked rejection, so training never imports ``numpy.random``
    (about 6 MB of resident memory) and every seed draws NumPy's batches.
    It takes NumPy's 32-bit path, which covers every ``n`` up to 2**32.
    """
    words = _seed_words(seed)
    start, inc = words[0] << 64 | words[1], (words[2] << 64 | words[3]) << 1 & _MASK128 | 1
    state, spare = ((inc + start) * _PCG_MULTIPLIER + inc) & _MASK128, None

    def next64() -> int:  # one PCG64 (XSL-RR) step
        nonlocal state
        state = (state * _PCG_MULTIPLIER + inc) & _MASK128
        value, turn = (state >> 64) ^ (state & _MASK64), state >> 122
        return (value >> turn | value << (64 - turn)) & _MASK64

    while True:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:  # a 32-bit draw uses half of a 64-bit one and keeps the other half
                if spare is not None:
                    j, spare = spare & mask, None
                else:
                    word = next64()
                    j, spare = word & _MASK32 & mask, word >> 32
                if j <= i:
                    break
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
