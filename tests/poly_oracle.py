"""Reference implementations the certifier is tested against.

Forward polyhedra propagation builds every node's symbolic element layer by
layer, input to output, one node at a time. It shares no code with the batched
back-substitution kernel in ``gcncert.polyhedra`` beyond ``linear_poly`` and
the ReLU case split. ``per_node_judgments`` rebuilds ``certify_sound``'s
judgments from it with a plain per-row greedy minimizer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from gcncert.certify import NodeJudgment, label_difference_transform
from gcncert.errors import DataError, DimensionError
from gcncert.graph import GcnModel, Graph, predict
from gcncert.intervals import IntervalElement, interval_layer_bounds
from gcncert.perturbation import EMPTY_FLIPSET, FlipSet, PerturbationBudget, sign_matrix
from gcncert.polyhedra import PolyNodeElement, _relu_cases, linear_poly

PolyElement = list[PolyNodeElement]


def poly_input_abstraction(graph: Graph) -> PolyElement:
    """Each input feature bounds itself: identity coefficients, zero constants."""
    m0 = graph.num_features
    eye = np.eye(m0)
    zero = np.zeros(m0)
    return [
        PolyNodeElement(
            var_nodes=np.array([i]),
            num_features=m0,
            lower_coef=eye.copy(),
            lower_const=zero.copy(),
            upper_coef=eye.copy(),
            upper_const=zero.copy(),
        )
        for i in range(graph.num_nodes)
    ]


def gc_poly(
    elems: Sequence[PolyNodeElement], norm_adj_row: np.ndarray, node: int
) -> PolyNodeElement:
    """Combine neighbor elements weighted by the adjacency row.

    Variable sets are unioned; where two neighbors share a variable the
    coefficient columns are summed. Requires a non-negative row, otherwise
    scaling would swap bound sides.
    """
    norm_adj_row = np.asarray(norm_adj_row, dtype=np.float64)
    if (norm_adj_row < 0).any():
        raise DataError("graph convolution requires non-negative adjacency weights")
    neighbors = np.nonzero(norm_adj_row > 0)[0]
    if len(neighbors) == 0:
        raise DataError(f"node {node} has an all-zero adjacency row")
    m0 = elems[neighbors[0]].num_features
    rows = elems[neighbors[0]].rows
    union = np.unique(np.concatenate([elems[k].var_nodes for k in neighbors]))
    shape = (rows, len(union) * m0)
    lower_coef = np.zeros(shape)
    upper_coef = np.zeros(shape)
    lower_const = np.zeros(rows)
    upper_const = np.zeros(rows)
    offsets = np.arange(m0)
    for k in neighbors:
        e = elems[k]
        w = norm_adj_row[k]
        pos = np.searchsorted(union, e.var_nodes)
        cols = (pos[:, None] * m0 + offsets).ravel()
        lower_coef[:, cols] += w * e.lower_coef
        upper_coef[:, cols] += w * e.upper_coef
        lower_const += w * e.lower_const
        upper_const += w * e.upper_const
    return PolyNodeElement(union, m0, lower_coef, lower_const, upper_coef, upper_const)


def relu_poly(
    elem: PolyNodeElement,
    interval_lower: np.ndarray,
    interval_upper: np.ndarray,
) -> PolyNodeElement:
    """ReLU relaxation per latent feature, driven by numeric interval bounds."""
    if np.shape(interval_lower) != (elem.rows,) or np.shape(interval_upper) != (elem.rows,):
        raise DimensionError("interval bounds must have one entry per element row")
    lo_slope, up_slope, up_shift = _relu_cases(interval_lower, interval_upper)
    return PolyNodeElement(
        var_nodes=elem.var_nodes,
        num_features=elem.num_features,
        lower_coef=elem.lower_coef * lo_slope[:, None],
        lower_const=elem.lower_const * lo_slope,
        upper_coef=elem.upper_coef * up_slope[:, None],
        upper_const=elem.upper_const * up_slope + up_shift,
    )


def forward_poly_propagation(
    model: GcnModel,
    graph: Graph,
    norm_adj: np.ndarray,
    layer_bounds: Sequence[IntervalElement],
) -> PolyElement:
    """Push input abstractions through all layers; output-layer elements per node."""
    elems = poly_input_abstraction(graph)
    for l, layer in enumerate(model.layers):
        elems = [gc_poly(elems, norm_adj[i], i) for i in range(graph.num_nodes)]
        elems = [linear_poly(e, layer.weight, layer.bias) for e in elems]
        if l < model.num_layers - 1:
            pre = layer_bounds[l]
            elems = [relu_poly(e, pre.lower[i], pre.upper[i]) for i, e in enumerate(elems)]
    return elems


def greedy_minimum(
    row: PolyNodeElement, features: np.ndarray, budget: PerturbationBudget, mode: str
) -> tuple[float, FlipSet]:
    """Minimum of a single-row lower form over the flip budget, one candidate at a time.

    Each field node offers its ``per_node`` most negative changes (ties toward
    the lower feature); the ``total`` most negative of those, ties toward the
    lower (node, feature), are summed in (node, feature) order.
    """
    m0 = row.num_features
    x = np.asarray(features)[row.var_nodes]
    coef = row.lower_coef[0].reshape(len(row.var_nodes), m0)
    base = float(coef.ravel() @ x.ravel().astype(np.float64) + row.lower_const[0])
    theta = coef * sign_matrix(x)
    if mode == "add-only":
        theta = np.where(x == 0, theta, 0.0)
    elif mode == "delete-only":
        theta = np.where(x == 1, theta, 0.0)
    if budget.per_node == 0 or budget.total == 0:
        return base, EMPTY_FLIPSET
    pool = []
    for k, node in enumerate(row.var_nodes):
        ranked = sorted((float(theta[k, j]), j) for j in range(m0))[: budget.per_node]
        pool.extend((value, int(node), j) for value, j in ranked if value < 0)
    chosen = sorted(sorted(pool)[: budget.total], key=lambda c: (c[1], c[2]))
    return base + sum(v for v, _, _ in chosen), FlipSet(tuple((k, j) for _, k, j in chosen))


def per_node_judgments(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str = "topk",
    mode: str = "both",
) -> list[NodeJudgment]:
    """``certify_sound`` over every node, rebuilt from forward propagation."""
    bounds = interval_layer_bounds(model, graph, budget, variant)
    out = bounds[-1]
    labels = predict(model, graph).labels
    elems = forward_poly_propagation(model, graph, graph.norm_adj, bounds)
    judgments = []
    for node, elem in enumerate(elems):
        label = int(labels[node])
        margins, flips = {}, {}
        for rival in range(model.num_labels):
            if rival == label:
                continue
            row = label_difference_transform(elem, label, rival)
            poly_min, flips[rival] = greedy_minimum(row, graph.features, budget, mode)
            margins[rival] = max(poly_min, float(out.lower[node, label] - out.upper[node, rival]))
        margin = min(margins.values(), default=float("inf"))
        judgments.append(NodeJudgment(node, label, margin, margin > 0.0, margins, flips))
    return judgments
