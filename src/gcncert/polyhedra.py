"""Per-node symbolic linear bounds over input-feature variables.

Each node's latent features are sandwiched between two affine forms of the
binary input features of its neighborhood: Q_lo·x + d_lo <= h <= Q_up·x + d_up.
Graph convolution and affine layers transform these forms exactly; ReLU is
relaxed to one linear bound per side, choosing the slope that minimizes the
bounding area given numeric pre-activation intervals.

The forms are derived backwards: ``back_substitute_batch`` starts from the
output scores of a chunk of target nodes and rewrites them layer by layer,
each target over its own receptive field, so a target's variables widen by
one hop per layer and never cover nodes it cannot see. ``back_substitute`` is
its one-target view. Ã comes from the graph; the interval pre-activation
bounds come from the caller, which computes them once per budget and shares
them across all of its nodes.
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


def _relu_cases(
    lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-entry ReLU relaxation: lower slope, upper slope, upper intercept.

    Stable entries pass through (lower >= 0) or vanish (upper <= 0). Mixed
    entries get the chord s·x + t as upper bound; the lower slope is 1 when
    the positive side dominates (|up| >= |lo|) and 0 otherwise, whichever
    bounds the smaller area (DeepPoly's rule).
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
            np.where(np.abs(upper) >= np.abs(lower), 1.0, 0.0),
        ),
    )
    upper_slope = np.where(lower >= 0, 1.0, chord_slope)
    upper_shift = np.where(lower >= 0, 0.0, chord_shift)
    return lower_slope, upper_slope, upper_shift


@dataclass(frozen=True)
class PolyBatch:
    """Output-layer symbolic bounds of a chunk of target nodes.

    Target t's variables are the input features of ``fronts[t]``, its
    receptive field in ascending node order. Fields are padded at the end to
    the chunk's widest with node 0 under all-zero coefficients. Coefficients
    are shaped (targets, labels, field, features), constants (targets, labels).
    """

    fronts: np.ndarray
    lower_coef: np.ndarray
    lower_const: np.ndarray
    upper_coef: np.ndarray
    upper_const: np.ndarray


def back_substitute_batch(
    model: GcnModel,
    graph: Graph,
    nodes: Sequence[int],
    layer_bounds: Sequence[IntervalElement],
) -> PolyBatch:
    """Output-layer bounds of every target in ``nodes``, derived backwards in one pass.

    Rewrites the targets' output rows layer by layer as combinations of the
    current layer's element rows, keeping, per bound side, separate weights on
    the referenced lower rows and upper rows (the affine and ReLU crossings
    below mirror the forward operations' sign splits term for term). The
    result therefore equals forward propagation coefficient for coefficient,
    but never materializes elements outside a target's receptive field: each
    target's front only widens by one hop per layer.

    ``layer_bounds`` holds the interval pre-activation bounds of every layer
    (``interval_layer_bounds``) under the budget being certified.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if ((nodes < 0) | (nodes >= graph.num_nodes)).any():
        raise DataError(f"node index out of range [0, {graph.num_nodes})")
    targets, rows = len(nodes), model.num_labels
    front = nodes[:, None]
    live = np.ones(front.shape, dtype=bool)  # False marks padding
    # coef[t, k, ref, side, r, j]: weight that bound side (0 lower, 1 upper)
    # of target t's output row r puts on the referenced (0 lower, 1 upper) row
    # of feature j of front node k in the current layer's element
    coef = np.zeros((targets, 1, 2, 2, rows, rows))
    coef[:, 0, 0, 0] = coef[:, 0, 1, 1] = np.eye(rows)
    const = np.zeros((targets, 2, rows))
    for l in range(model.num_layers - 1, -1, -1):
        if l < model.num_layers - 1:
            # cross the ReLU that follows layer l: lower rows scale by the
            # lower slope, upper rows by the chord slope plus its intercept
            pre = layer_bounds[l]
            lo_slope, up_slope, up_shift = _relu_cases(pre.lower[front], pre.upper[front])
            const = const + (coef[:, :, 1] * up_shift[:, :, None, None]).sum(axis=(1, 4))
            coef = coef * np.stack([lo_slope, up_slope], axis=2)[:, :, :, None, None]
        layer = model.layers[l]
        # cross the affine map: positive weights keep the referenced side,
        # negative weights swap it, exactly as in linear_poly
        const = const + (coef[:, :, 0] + coef[:, :, 1]).sum(axis=1) @ layer.bias
        flat = coef.reshape(-1, coef.shape[-1])
        pos, neg = (
            (flat @ w.T).reshape(coef.shape[:-1] + (w.shape[0],))
            for w in (np.maximum(layer.weight, 0.0), np.minimum(layer.weight, 0.0))
        )
        coef = np.stack([pos[:, :, 0] + neg[:, :, 1], neg[:, :, 0] + pos[:, :, 1]], axis=2)
        # cross graph convolution: g = Ã h, widening each front by one hop
        reach = ((graph.norm_adj[front] > 0) & live[:, :, None]).any(axis=1)
        counts = reach.sum(axis=1)
        width = counts.max()
        new_live = np.arange(width) < counts[:, None]
        new_front = np.argsort(~reach, axis=1, kind="stable")[:, :width]
        new_front = np.where(new_live, new_front, 0)
        # padded columns get no weight; padded rows already carry none
        adj_sub = graph.norm_adj[front[:, :, None], new_front[:, None, :]] * new_live[:, None, :]
        coef = adj_sub.transpose(0, 2, 1) @ coef.reshape(targets, front.shape[1], -1)
        coef = coef.reshape((targets, width, 2, 2, rows, -1))
        front, live = new_front, new_live
    # input elements are exact (lower row = upper row = the feature itself)
    return PolyBatch(
        fronts=front,
        lower_coef=(coef[:, :, 0, 0] + coef[:, :, 1, 0]).transpose(0, 2, 1, 3),
        lower_const=const[:, 0],
        upper_coef=(coef[:, :, 1, 1] + coef[:, :, 0, 1]).transpose(0, 2, 1, 3),
        upper_const=const[:, 1],
    )


def back_substitute(
    model: GcnModel,
    graph: Graph,
    node: int,
    layer_bounds: Sequence[IntervalElement],
) -> PolyNodeElement:
    """Output-layer element of one node: ``back_substitute_batch`` of that node alone."""
    batch = back_substitute_batch(model, graph, [node], layer_bounds)
    rows = model.num_labels
    return PolyNodeElement(
        var_nodes=batch.fronts[0],
        num_features=graph.num_features,
        lower_coef=batch.lower_coef[0].reshape(rows, -1),
        lower_const=batch.lower_const[0],
        upper_coef=batch.upper_coef[0].reshape(rows, -1),
        upper_const=batch.upper_const[0],
    )


def evaluate_bounds(elem: PolyNodeElement, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concrete bound values of an element at a feature matrix."""
    x = np.asarray(features, dtype=np.float64)[elem.var_nodes].ravel()
    lower = elem.lower_coef @ x + elem.lower_const
    upper = elem.upper_coef @ x + elem.upper_const
    return lower, upper
