"""Reference implementations the certifier is tested against.

Forward polyhedra propagation builds every node's symbolic element layer by
layer, input to output, one node at a time, keeping each neuron's lower and
upper form apart: the paper's domain. ``netted_back_substitution`` derives one
node's lower forms backwards, output to input, over the whole graph as dense
arrays, with one coefficient per neuron, as ``certify_sound`` does. Neither
shares code with the batched kernel in ``gcncert.polyhedra`` beyond the
element type and the ReLU case split. ``netted_judgments`` rebuilds
``certify_sound``'s certificate from the netted forms, and
``per_node_judgments`` the forward domain's, whose margins the certificate's
never fall below: each label difference is one more affine step, through a
+1/-1 weight column, and a plain per-row greedy minimizer takes its minimum.
"""

from __future__ import annotations

from typing import Callable, Sequence

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


def netted_back_substitution(
    model: GcnModel,
    graph: Graph,
    norm_adj: np.ndarray,
    layer_bounds: Sequence[IntervalElement],
    node: int,
    spec: np.ndarray,
) -> PolyNodeElement:
    """Bounds on ``spec`` (rows, labels) times the node's scores, one coefficient per neuron.

    Each row's lower form is derived backwards over every node of the graph,
    as dense (rows, nodes, width) coefficients: at a ReLU a coefficient < 0
    takes the chord and its intercept, the ReLU's upper bound, and any other
    coefficient the lower slope; then the bias goes into the constant and the
    coefficients pass back through the weights and Ã. The upper forms are
    minus the lower forms of ``-spec``. The element's variables are the
    node's receptive field, the nodes at most one hop per layer away.
    """
    field = np.arange(graph.num_nodes) == node
    for _ in model.layers:
        field = (norm_adj[field] != 0).any(axis=0)

    def lower(weights):
        coef = np.zeros((len(weights), graph.num_nodes, model.num_labels))
        coef[:, node] = weights
        const = np.zeros(len(weights))
        for l in reversed(range(model.num_layers)):
            layer = model.layers[l]
            if l < model.num_layers - 1:
                lo_slope, up_slope, up_shift = _relu_cases(layer_bounds[l].lower,
                                                           layer_bounds[l].upper)
                const = const + np.where(coef < 0, coef * up_shift, 0.0).sum(axis=(1, 2))
                coef = np.where(coef < 0, coef * up_slope, coef * lo_slope)
            const = const + np.einsum("qkj,j->q", coef, layer.bias)
            coef = np.einsum("ik,qij->qkj", norm_adj, coef @ layer.weight.T)
        return coef[:, field].reshape(len(weights), field.sum() * graph.num_features), const

    spec = np.asarray(spec, dtype=np.float64)
    (lower_coef, lower_const), (upper_coef, upper_const) = lower(spec), lower(-spec)
    return PolyNodeElement(np.flatnonzero(field), graph.num_features,
                           lower_coef, lower_const, -upper_coef, -upper_const)


def greedy_minimum(
    elem: PolyNodeElement, row: int, features: np.ndarray, budget: PerturbationBudget, mode: str
) -> tuple[float, FlipSet]:
    """Minimum of the element's lower form ``row`` over the flip budget, one candidate at a time.

    Each field node offers its ``per_node`` most negative changes (ties toward
    the lower feature); the ``total`` most negative of those, ties toward the
    lower (node, feature), are summed in (node, feature) order.
    """
    m0 = elem.num_features
    x = np.asarray(features)[elem.var_nodes]
    coef = elem.lower_coef[row].reshape(len(elem.var_nodes), m0)
    base = float(coef.ravel() @ x.ravel().astype(np.float64) + elem.lower_const[row])
    theta = coef * sign_matrix(x)
    if mode == "add-only":
        theta = np.where(x == 0, theta, 0.0)
    elif mode == "delete-only":
        theta = np.where(x == 1, theta, 0.0)
    if budget.per_node == 0 or budget.total == 0:
        return base, EMPTY_FLIPSET
    pool = []
    for k, node in enumerate(elem.var_nodes):
        ranked = sorted((float(theta[k, j]), j) for j in range(m0))[: budget.per_node]
        pool.extend((value, int(node), j) for value, j in ranked if value < 0)
    chosen = sorted(sorted(pool)[: budget.total], key=lambda c: (c[1], c[2]))
    return base + sum(v for v, _, _ in chosen), FlipSet(tuple((k, j) for _, k, j in chosen))


def _judgments(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    bounds: Sequence[IntervalElement],
    mode: str,
    rival_rows: Callable[[int, int, list[int]], PolyNodeElement],
) -> Certificate:
    """``certify_sound`` over every node, one node and rival at a time.

    ``rival_rows(node, label, rivals)`` gives an element whose row r bounds
    score[label] - score[rivals[r]].
    """
    out = bounds[-1]
    labels = predict(model, graph).labels
    rivals, margins, picks = [], [], []
    for node in range(graph.num_nodes):
        label = int(labels[node])
        rivals.append([rival for rival in range(model.num_labels) if rival != label])
        margins.append([])
        elem = rival_rows(node, label, rivals[-1])
        for col, rival in enumerate(rivals[-1]):
            poly_min, flips = greedy_minimum(elem, col, graph.features, budget, mode)
            margins[-1].append(max(poly_min, out.lower[node, label] - out.upper[node, rival]))
            picks.extend((node, col, i, j) for i, j in flips)
    shape = (graph.num_nodes, model.num_labels - 1)
    picks = np.array(picks, dtype=np.int64).reshape(-1, 4)
    return Certificate(np.arange(graph.num_nodes), labels,
                       np.array(rivals, dtype=np.int64).reshape(shape),
                       np.array(margins, dtype=np.float64).reshape(shape), *picks.T)


def netted_judgments(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str = "topk",
    mode: str = "both",
) -> Certificate:
    """``certify_sound`` over every node, rebuilt from ``netted_back_substitution``."""
    bounds = interval_layer_bounds(model, graph, budget, variant, mode=mode)
    norm, eye = dense_norm_adj(graph), np.eye(model.num_labels)

    def rival_rows(node, label, rivals):
        spec = eye[[label] * len(rivals)] - eye[rivals]
        return netted_back_substitution(model, graph, norm, bounds, node, spec)

    return _judgments(model, graph, budget, bounds, mode, rival_rows)


def per_node_judgments(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str = "topk",
    mode: str = "both",
) -> Certificate:
    """The certificate of the forward domain, which keeps each neuron's two forms apart.

    Its rival margins are lower bounds that ``certify_sound``'s dominate.
    """
    bounds = interval_layer_bounds(model, graph, budget, variant, mode=mode)
    elems = forward_poly_propagation(model, graph, dense_norm_adj(graph), bounds)
    eye = np.eye(model.num_labels)

    def rival_rows(node, label, rivals):  # label_difference's affine step, a column per rival
        delta = eye[[label] * len(rivals)] - eye[rivals]
        return linear_poly(elems[node], delta.T, np.zeros(len(rivals)))

    return _judgments(model, graph, budget, bounds, mode, rival_rows)
