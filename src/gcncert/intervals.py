"""Interval bound propagation for GCNs under feature-flip budgets.

The input abstraction bounds the pre-activation values after the first layer
directly from the perturbation budget (the raw 0/1 input box would be useless:
every cell could flip). Two variants exist: ``topk`` ranks flip candidates per
node and globally and is exact for the first layer; ``max`` scales the single
best candidate by the total budget, cheaper but looser. Both look only at each
node's neighbours (``Graph.neighbors``): a flip elsewhere cannot move the
node's first layer, so the candidate tensors grow with n times the widest
neighbourhood, not with n². Later layers use plain interval arithmetic. These
bounds drive the interval certifier baseline and supply the numeric ReLU
cases for the polyhedra domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError
from .graph import GcnModel, Graph, predict
from .perturbation import PerturbationBudget, sign_matrix

VARIANTS = ("topk", "max")


@dataclass(frozen=True)
class IntervalElement:
    """Entrywise lower/upper bounds on a latent feature matrix."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.lower.shape != self.upper.shape:
            raise DimensionError("interval bound matrices must have equal shape")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise DataError(f"unknown interval variant {variant!r}, expected one of {VARIANTS}")


def interval_input_abstraction(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str = "topk",
) -> IntervalElement:
    """Bounds on the first layer's pre-activation over every admissible flip set.

    A flip of cell (k, f) moves output (i, j) by Ã[i,k] * sign[k,f] * W[f,j].
    ``topk``: per source node keep the ``per_node`` best candidates (clamped
    toward zero), scale them by Ã[i,k] for each neighbour k of node i, then
    keep the ``total`` best overall; this realizes the entrywise extremum
    exactly. ``max``: bound the deviation by ``total`` times the single best
    scaled candidate.
    """
    _check_variant(variant)
    layer0 = model.layers[0]
    x = graph.features.astype(np.float64)
    if x.shape[1] != model.input_width:
        raise DimensionError(
            f"model expects {model.input_width} input features, got {x.shape[1]}"
        )
    base = (graph.norm_adj @ x) @ layer0.weight + layer0.bias
    if budget.per_node == 0 or budget.total == 0:
        return IntervalElement(base.copy(), base.copy())

    n, m0 = x.shape
    m1 = layer0.weight.shape[1]
    # flip deltas per (source node, feature, output): sign[k,f] * W[f,j]
    cand = sign_matrix(graph.features)[:, :, None] * layer0.weight[None, :, :]
    # only Ã's nonzero entries can move a row; padding weighs 0 like a non-neighbour
    cols, weights = graph.neighbors

    if variant == "topk":
        k_local = min(budget.per_node, m0)
        ordered = np.sort(cand, axis=1)
        neg = np.minimum(ordered[:, :k_local, :], 0.0)
        pos = np.maximum(ordered[:, -k_local:, :], 0.0)
        scaled_neg = (weights[:, :, None, None] * neg[cols]).reshape(n, -1, m1)
        scaled_pos = (weights[:, :, None, None] * pos[cols]).reshape(n, -1, m1)
        k_global = min(budget.total, scaled_neg.shape[1])
        dev_min = np.sort(scaled_neg, axis=1)[:, :k_global, :].sum(axis=1)
        dev_max = np.sort(scaled_pos, axis=1)[:, -k_global:, :].sum(axis=1)
    else:
        best_neg = np.minimum(cand.min(axis=1), 0.0)
        best_pos = np.maximum(cand.max(axis=1), 0.0)
        dev_min = budget.total * (weights[:, :, None] * best_neg[cols]).min(axis=1)
        dev_max = budget.total * (weights[:, :, None] * best_pos[cols]).max(axis=1)

    return IntervalElement(base + dev_min, base + dev_max)


def linear_interval(elem: IntervalElement, weight: np.ndarray, bias: np.ndarray) -> IntervalElement:
    """Interval arithmetic through H·W + b: positive weights carry the like bound."""
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if elem.lower.shape[1] != weight.shape[0]:
        raise DimensionError(
            f"interval width {elem.lower.shape[1]} does not match weight rows {weight.shape[0]}"
        )
    w_pos = np.maximum(weight, 0.0)
    w_neg = np.minimum(weight, 0.0)
    lower = elem.lower @ w_pos + elem.upper @ w_neg + bias
    upper = elem.upper @ w_pos + elem.lower @ w_neg + bias
    return IntervalElement(lower, upper)


def gc_interval(elem: IntervalElement, norm_adj: np.ndarray) -> IntervalElement:
    """Graph convolution on both bounds; sound only because Ã is entrywise >= 0."""
    norm_adj = np.asarray(norm_adj, dtype=np.float64)
    if (norm_adj < 0).any():
        raise DataError("graph convolution bounds require a non-negative adjacency")
    if norm_adj.shape[1] != elem.lower.shape[0]:
        raise DimensionError("adjacency size does not match interval rows")
    return IntervalElement(norm_adj @ elem.lower, norm_adj @ elem.upper)


def relu_interval(elem: IntervalElement) -> IntervalElement:
    return IntervalElement(np.maximum(elem.lower, 0.0), np.maximum(elem.upper, 0.0))


def interval_layer_bounds(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str = "topk",
) -> list[IntervalElement]:
    """Pre-activation interval bounds for every layer, output layer last."""
    bounds = [interval_input_abstraction(model, graph, budget, variant)]
    for layer in model.layers[1:]:
        elem = relu_interval(bounds[-1])
        elem = gc_interval(elem, graph.norm_adj)
        bounds.append(linear_interval(elem, layer.weight, layer.bias))
    return bounds


def interval_certify(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str = "topk",
) -> np.ndarray:
    """Per-node judgment r_i = min over rivals of L[i, c] - U[i, c'].

    r_i > 0 certifies node i (sound). This baseline never produces
    counterexamples: the box at the output has lost which inputs realize it.
    """
    out = interval_layer_bounds(model, graph, budget, variant)[-1]
    labels = predict(model, graph).labels
    nodes = np.arange(len(labels))
    rival_upper = out.upper.copy()
    rival_upper[nodes, labels] = -np.inf  # a model with one label has no rival: margin inf
    return out.lower[nodes, labels] - rival_upper.max(axis=1)
