"""Per-node symbolic linear bounds over input-feature variables.

Each node's latent features are sandwiched between two affine forms of the
binary input features of its neighborhood: Q_lo·x + d_lo <= h <= Q_up·x + d_up.
Graph convolution and affine layers transform these forms exactly; ReLU is
relaxed to one linear bound per side, choosing the slope that minimizes the
bounding area given numeric pre-activation intervals.

Two equivalent execution paths exist. ``forward_poly_propagation`` pushes full
elements through the layers for every node at once. ``back_substitute`` starts
from one node's output scores and rewrites them backwards through the layers,
touching only the node's own receptive field; it is the reference path and the
forward pass doubles as its test oracle. ``back_substitute`` reads Ã from the
graph and takes its interval pre-activation bounds from the caller, which
computes them once per budget and shares them across all of its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, DimensionError
from .graph import GcnModel, Graph
from .intervals import IntervalElement


@dataclass(frozen=True)
class PolyNodeElement:
    """Symbolic bounds for one node's latent features.

    Variables are the input features of the nodes in ``var_nodes``; each such
    node contributes a block of ``num_features`` consecutive coefficient
    columns, blocks ordered by node index.
    """

    var_nodes: np.ndarray  # sorted unique node indices
    num_features: int
    lower_coef: np.ndarray  # (rows, len(var_nodes) * num_features)
    lower_const: np.ndarray  # (rows,)
    upper_coef: np.ndarray
    upper_const: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.var_nodes, dtype=np.int64)
        if nodes.ndim != 1 or (np.diff(nodes) <= 0).any():
            raise DataError("var_nodes must be strictly increasing")
        object.__setattr__(self, "var_nodes", nodes)
        cols = len(nodes) * self.num_features
        for name in ("lower_coef", "upper_coef"):
            coef = getattr(self, name)
            if coef.ndim != 2 or coef.shape[1] != cols:
                raise DimensionError(
                    f"{name} must have shape (rows, {cols}), got {coef.shape}"
                )
        if self.lower_coef.shape != self.upper_coef.shape:
            raise DimensionError("lower and upper coefficient shapes differ")

    @property
    def rows(self) -> int:
        return self.lower_coef.shape[0]

    @property
    def vars(self) -> list[tuple[int, int]]:
        """Variable identities as (node, feature) pairs, column order."""
        return [(int(k), j) for k in self.var_nodes for j in range(self.num_features)]


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


def _relu_cases(
    lower: np.ndarray, upper: np.ndarray, unstable_lower_slope: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-entry ReLU relaxation: lower slope, upper slope, upper intercept.

    Stable entries pass through (lower >= 0) or vanish (upper <= 0). Mixed
    entries get the chord s·x + t as upper bound; the lower slope is 1 when
    the positive side dominates (|up| >= |lo|) and ``unstable_lower_slope``
    (default 0) otherwise, the two area-minimal choices.
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    mixed = (lower < 0) & (upper > 0)
    denom = np.where(mixed, upper - lower, 1.0)
    chord_slope = np.where(mixed, upper / denom, 0.0)
    chord_shift = np.where(mixed, -upper * lower / denom, 0.0)
    lower_slope = np.where(
        lower >= 0,
        1.0,
        np.where(
            upper <= 0,
            0.0,
            np.where(np.abs(upper) >= np.abs(lower), 1.0, unstable_lower_slope),
        ),
    )
    upper_slope = np.where(lower >= 0, 1.0, chord_slope)
    upper_shift = np.where(lower >= 0, 0.0, chord_shift)
    return lower_slope, upper_slope, upper_shift


def relu_poly(
    elem: PolyNodeElement,
    interval_lower: np.ndarray,
    interval_upper: np.ndarray,
    unstable_lower_slope: float = 0.0,
) -> PolyNodeElement:
    """ReLU relaxation per latent feature, driven by numeric interval bounds."""
    if np.shape(interval_lower) != (elem.rows,) or np.shape(interval_upper) != (elem.rows,):
        raise DimensionError("interval bounds must have one entry per element row")
    lo_slope, up_slope, up_shift = _relu_cases(
        interval_lower, interval_upper, unstable_lower_slope
    )
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
    unstable_lower_slope: float = 0.0,
) -> PolyElement:
    """Push input abstractions through all layers; output-layer elements per node."""
    elems = poly_input_abstraction(graph)
    for l, layer in enumerate(model.layers):
        elems = [gc_poly(elems, norm_adj[i], i) for i in range(graph.num_nodes)]
        elems = [linear_poly(e, layer.weight, layer.bias) for e in elems]
        if l < model.num_layers - 1:
            pre = layer_bounds[l]
            elems = [
                relu_poly(e, pre.lower[i], pre.upper[i], unstable_lower_slope)
                for i, e in enumerate(elems)
            ]
    return elems


def back_substitute(
    model: GcnModel,
    graph: Graph,
    node: int,
    layer_bounds: Sequence[IntervalElement],
    *,
    unstable_lower_slope: float = 0.0,
) -> PolyNodeElement:
    """Output-layer element of one node, derived backwards through the layers.

    Rewrites the node's output rows layer by layer as combinations of the
    current layer's element rows, keeping, per bound side, separate weights on
    the referenced lower rows and upper rows (the affine and ReLU crossings
    below mirror the forward operations' sign splits term for term). The
    result therefore equals forward propagation coefficient for coefficient,
    but never materializes elements outside the node's receptive field: the
    node front only widens by one hop per layer.

    ``layer_bounds`` holds the interval pre-activation bounds of every layer
    (``interval_layer_bounds``) under the budget being certified.
    """
    if not 0 <= node < graph.num_nodes:
        raise DataError(f"node {node} out of range")
    rows = model.num_labels
    front = np.array([node])
    # per bound side: weights on the current element's lower rows (on_lo) and
    # upper rows (on_up), each shaped (rows, |front|, layer width)
    ident = np.eye(rows)[:, None, :]
    lo_on_lo, lo_on_up = ident.copy(), np.zeros_like(ident)
    up_on_up, up_on_lo = ident.copy(), np.zeros_like(ident)
    lo_const = np.zeros(rows)
    up_const = np.zeros(rows)
    for l in range(model.num_layers - 1, -1, -1):
        if l < model.num_layers - 1:
            # cross the ReLU that follows layer l: lower rows scale by the
            # lower slope, upper rows by the chord slope plus its intercept
            pre = layer_bounds[l]
            lo_slope, up_slope, up_shift = _relu_cases(
                pre.lower[front], pre.upper[front], unstable_lower_slope
            )
            lo_const = lo_const + (lo_on_up * up_shift[None]).sum(axis=(1, 2))
            up_const = up_const + (up_on_up * up_shift[None]).sum(axis=(1, 2))
            lo_on_lo = lo_on_lo * lo_slope[None]
            lo_on_up = lo_on_up * up_slope[None]
            up_on_up = up_on_up * up_slope[None]
            up_on_lo = up_on_lo * lo_slope[None]
        layer = model.layers[l]
        # cross the affine map: positive weights keep the referenced side,
        # negative weights swap it, exactly as in linear_poly
        w_pos = np.maximum(layer.weight, 0.0).T
        w_neg = np.minimum(layer.weight, 0.0).T
        lo_const = lo_const + (lo_on_lo + lo_on_up).sum(axis=1) @ layer.bias
        up_const = up_const + (up_on_up + up_on_lo).sum(axis=1) @ layer.bias
        lo_on_lo, lo_on_up = (
            lo_on_lo @ w_pos + lo_on_up @ w_neg,
            lo_on_lo @ w_neg + lo_on_up @ w_pos,
        )
        up_on_up, up_on_lo = (
            up_on_up @ w_pos + up_on_lo @ w_neg,
            up_on_up @ w_neg + up_on_lo @ w_pos,
        )
        # cross graph convolution: g = Ã h, widening the front by one hop
        new_front = np.unique(np.nonzero(graph.norm_adj[front] > 0)[1])
        adj_sub = graph.norm_adj[np.ix_(front, new_front)]
        lo_on_lo = np.einsum("rkj,kK->rKj", lo_on_lo, adj_sub)
        lo_on_up = np.einsum("rkj,kK->rKj", lo_on_up, adj_sub)
        up_on_up = np.einsum("rkj,kK->rKj", up_on_up, adj_sub)
        up_on_lo = np.einsum("rkj,kK->rKj", up_on_lo, adj_sub)
        front = new_front
    # input elements are exact (lower row = upper row = the feature itself)
    return PolyNodeElement(
        var_nodes=front,
        num_features=graph.num_features,
        lower_coef=(lo_on_lo + lo_on_up).reshape(rows, -1),
        lower_const=lo_const,
        upper_coef=(up_on_up + up_on_lo).reshape(rows, -1),
        upper_const=up_const,
    )


def evaluate_bounds(elem: PolyNodeElement, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concrete bound values of an element at a feature matrix."""
    x = np.asarray(features, dtype=np.float64)[elem.var_nodes].ravel()
    lower = elem.lower_coef @ x + elem.lower_const
    upper = elem.upper_coef @ x + elem.upper_const
    return lower, upper
