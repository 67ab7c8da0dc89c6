"""Reference implementations the certifier is tested against.

Forward polyhedra propagation builds every node's symbolic element layer by
layer, input to output, one node at a time. It shares no code with the batched
back-substitution kernel in ``gcncert.polyhedra`` beyond the element type and
the ReLU case split. ``per_node_judgments`` rebuilds ``certify_sound``'s
certificate from it: each label difference is one more affine step, through a
+1/-1 weight column, and a plain per-row greedy minimizer takes its minimum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from helpers import dense_norm_adj

from gcncert.certify import Certificate
from gcncert.errors import DataError, DimensionError
from gcncert.graph import GcnModel, Graph, predict
from gcncert.intervals import IntervalElement, interval_layer_bounds
from gcncert.perturbation import EMPTY_FLIPSET, FlipSet, PerturbationBudget, sign_matrix
from gcncert.polyhedra import PolyNodeElement, _relu_cases

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


def linear_poly(elem: PolyNodeElement, weight: np.ndarray, bias: np.ndarray) -> PolyNodeElement:
    """Affine layer on symbolic bounds: positive weights carry the like bound side."""
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if weight.shape[0] != elem.rows:
        raise DimensionError(
            f"weight rows {weight.shape[0]} do not match element rows {elem.rows}"
        )
    wt_pos = np.maximum(weight.T, 0.0)
    wt_neg = np.minimum(weight.T, 0.0)
    return PolyNodeElement(
        var_nodes=elem.var_nodes,
        num_features=elem.num_features,
        lower_coef=wt_pos @ elem.lower_coef + wt_neg @ elem.upper_coef,
        lower_const=wt_pos @ elem.lower_const + wt_neg @ elem.upper_const + bias,
        upper_coef=wt_pos @ elem.upper_coef + wt_neg @ elem.lower_coef,
        upper_const=wt_pos @ elem.upper_const + wt_neg @ elem.lower_const + bias,
    )


def evaluate_bounds(elem: PolyNodeElement, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concrete bound values of an element at a feature matrix."""
    x = np.asarray(features, dtype=np.float64)[elem.var_nodes].ravel()
    lower = elem.lower_coef @ x + elem.lower_const
    upper = elem.upper_coef @ x + elem.upper_const
    return lower, upper


def label_difference(elem: PolyNodeElement, label: int, rival: int) -> PolyNodeElement:
    """Single-row element bounding score[label] - score[rival]: an affine step by a +1/-1 column."""
    delta = np.zeros((elem.rows, 1))
    delta[label, 0] = 1.0
    delta[rival, 0] = -1.0
    return linear_poly(elem, delta, np.zeros(1))


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
) -> Certificate:
    """``certify_sound`` over every node, rebuilt from forward propagation."""
    bounds = interval_layer_bounds(model, graph, budget, variant, mode=mode)
    out = bounds[-1]
    labels = predict(model, graph).labels
    elems = forward_poly_propagation(model, graph, dense_norm_adj(graph), bounds)
    rivals, margins, picks = [], [], []
    for node, elem in enumerate(elems):
        label = int(labels[node])
        rivals.append([rival for rival in range(model.num_labels) if rival != label])
        margins.append([])
        for col, rival in enumerate(rivals[-1]):
            row = label_difference(elem, label, rival)
            poly_min, flips = greedy_minimum(row, graph.features, budget, mode)
            margins[-1].append(max(poly_min, out.lower[node, label] - out.upper[node, rival]))
            picks.extend((node, col, i, j) for i, j in flips)
    shape = (graph.num_nodes, model.num_labels - 1)
    picks = np.array(picks, dtype=np.int64).reshape(-1, 4)
    return Certificate(np.arange(graph.num_nodes), labels,
                       np.array(rivals, dtype=np.int64).reshape(shape),
                       np.array(margins, dtype=np.float64).reshape(shape), *picks.T)
