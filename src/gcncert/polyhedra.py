"""Per-node symbolic linear bounds over input-feature variables.

Each node's latent features are sandwiched between two affine forms of the
binary input features of its neighborhood: Q_lo·x + d_lo <= h <= Q_up·x + d_up.
Graph convolution and affine layers transform these forms exactly; ReLU is
relaxed to one linear bound per side, choosing the slope that minimizes the
bounding area given numeric pre-activation intervals.

The forms are derived backwards: ``back_substitute_batch`` starts from the
output scores of a chunk of target nodes and rewrites them layer by layer,
each target over its own receptive field, so a target's variables widen by
one hop per layer and never cover nodes it cannot see. The hops come from
``receptive_fields``, and Ã is read only between one hop and the next; the
interval pre-activation bounds come from the caller, which computes them once
per budget and shares them across all of its nodes.

``back_substitute`` is the kernel's one-target view, returning a
``PolyNodeElement``; no production path calls it. The forward propagation the
kernel is tested against (input abstraction, graph convolution, affine and
ReLU steps on ``PolyNodeElement``s, and their evaluation at a feature matrix)
lives with the tests, in ``tests/poly_oracle.py``.

``back_substitute_backward`` is the reverse-mode pass of the batch kernel: it
carries gradients with respect to the output forms back through the same
crossings, in the opposite order, to the layer weights and biases and to the
interval bounds that set the ReLU slopes. It reads the arrays the forward
pass kept in ``PolyBatch.tape``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, DimensionError
from .graph import GcnModel, Graph, receptive_fields
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
    ``tape`` holds, per layer in the order the forward pass crossed them, what
    ``back_substitute_backward`` reads: the front, its padding mask, the
    coefficients entering the ReLU (None at the output layer) and the affine
    crossing, and the graph-convolution block.
    """

    fronts: np.ndarray
    lower_coef: np.ndarray
    lower_const: np.ndarray
    upper_coef: np.ndarray
    upper_const: np.ndarray
    tape: tuple


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
    target's front only widens by one hop per layer, to the next hop of
    ``receptive_fields``.

    ``layer_bounds`` holds the interval pre-activation bounds of every layer
    (``interval_layer_bounds``) under the budget; ``receptive_fields`` checks ``nodes``.
    """
    hops = receptive_fields(graph, nodes, model.num_layers)  # live is False on padding
    targets, rows = len(hops[0][0]), model.num_labels
    # coef[t, k, ref, side, r, j]: weight that bound side (0 lower, 1 upper)
    # of target t's output row r puts on the referenced (0 lower, 1 upper) row
    # of feature j of front node k in the current layer's element
    coef = np.zeros((targets, 1, 2, 2, rows, rows))
    coef[:, 0, 0, 0] = coef[:, 0, 1, 1] = np.eye(rows)
    const = np.zeros((targets, 2, rows))
    tape = []
    for l in range(model.num_layers - 1, -1, -1):
        (front, live), (new_front, new_live) = hops[-2 - l], hops[-1 - l]
        relu_in = None
        if l < model.num_layers - 1:
            # cross the ReLU that follows layer l: lower rows scale by the
            # lower slope, upper rows by the chord slope plus its intercept
            pre = layer_bounds[l]
            lo_slope, up_slope, up_shift = _relu_cases(pre.lower[front], pre.upper[front])
            relu_in = coef
            const = const + (coef[:, :, 1] * up_shift[:, :, None, None]).sum(axis=(1, 4))
            coef = coef * np.stack([lo_slope, up_slope], axis=2)[:, :, :, None, None]
        layer = model.layers[l]
        affine_in = coef
        # cross the affine map: positive weights keep the referenced side,
        # negative weights swap it
        const = const + (coef[:, :, 0] + coef[:, :, 1]).sum(axis=1) @ layer.bias
        flat = coef.reshape(-1, coef.shape[-1])
        pos, neg = (
            (flat @ w.T).reshape(coef.shape[:-1] + (w.shape[0],))
            for w in (np.maximum(layer.weight, 0.0), np.minimum(layer.weight, 0.0))
        )
        coef = np.stack([pos[:, :, 0] + neg[:, :, 1], neg[:, :, 0] + pos[:, :, 1]], axis=2)
        # cross graph convolution: g = Ã h, widening each front by one hop;
        # padded columns get no weight, padded rows already carry none
        adj_sub = graph.norm_adj[front[:, :, None], new_front[:, None, :]] * new_live[:, None, :]
        tape.append((front, live, relu_in, affine_in, adj_sub))
        coef = adj_sub.transpose(0, 2, 1) @ coef.reshape(targets, front.shape[1], -1)
        coef = coef.reshape((targets, new_front.shape[1], 2, 2, rows, -1))
    # input elements are exact (lower row = upper row = the feature itself)
    return PolyBatch(
        fronts=hops[-1][0],
        lower_coef=(coef[:, :, 0, 0] + coef[:, :, 1, 0]).transpose(0, 2, 1, 3),
        lower_const=const[:, 0],
        upper_coef=(coef[:, :, 1, 1] + coef[:, :, 0, 1]).transpose(0, 2, 1, 3),
        upper_const=const[:, 1],
        tape=tuple(tape),
    )


def back_substitute_backward(
    model: GcnModel,
    batch: PolyBatch,
    layer_bounds: Sequence[IntervalElement],
    form_grads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    param_grads: Sequence[tuple[np.ndarray, np.ndarray]],
    bound_grads: Sequence[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Reverse-mode pass of ``back_substitute_batch``; adds into the two gradient lists.

    ``form_grads`` holds the gradients with respect to the batch's lower
    coefficients, lower constants, upper coefficients and upper constants,
    shaped like them. Per layer, ``param_grads`` gets the (weight, bias)
    gradients and ``bound_grads`` the (lower, upper) gradients of
    ``layer_bounds``, which reach the forms only through the chord of each
    unstable ReLU: slope u/(u-l) and intercept -ul/(u-l). The area-rule
    lower slope is piecewise constant and passes no gradient to the bounds.
    """
    low_coef, low_const, up_coef, up_const = form_grads
    targets, rows = low_const.shape
    # both referenced sides feed a bound side, so both get its gradient
    grad = np.stack([low_coef, up_coef], axis=1).transpose(0, 3, 1, 2, 4)[:, :, None]
    grad = np.repeat(grad, 2, axis=2)
    const = np.stack([low_const, up_const], axis=1)  # every crossing adds into it
    for l, (front, live, relu_in, affine_in, adj_sub) in enumerate(reversed(batch.tape)):
        # graph convolution: coef = adj_sub^T coef_in, so grad_in = adj_sub grad
        grad = adj_sub @ grad.reshape(targets, adj_sub.shape[2], -1)
        grad = grad.reshape(affine_in.shape[:-1] + (-1,)) * live[:, :, None, None, None, None]
        # affine: positive weights keep the referenced side, negative ones swap it
        layer = model.layers[l]
        weight_grad, bias_grad = param_grads[l]
        flat_in = affine_in.reshape(-1, layer.weight.shape[1])
        same = grad.reshape(-1, layer.weight.shape[0])
        swapped = grad[:, :, ::-1].reshape(same.shape)
        weight_grad += np.where(layer.weight >= 0, same.T @ flat_in, swapped.T @ flat_in)
        # the bias entered as (sum over front and referenced side) @ bias
        referenced = (affine_in[:, :, 0] + affine_in[:, :, 1]).sum(axis=1)
        bias_grad += const.reshape(-1) @ referenced.reshape(-1, layer.bias.size)
        grad = same @ np.maximum(layer.weight, 0.0) + swapped @ np.minimum(layer.weight, 0.0)
        grad = grad.reshape(affine_in.shape) + const[:, None, None, :, :, None] * layer.bias
        if relu_in is None:
            continue
        # ReLU: coef = relu_in * slope and const += upper rows * intercept
        pre = layer_bounds[l]
        lower, upper = pre.lower[front], pre.upper[front]
        lo_slope, up_slope, up_shift = _relu_cases(lower, upper)
        slope_grad = (grad[:, :, 1] * relu_in[:, :, 1]).sum(axis=(2, 3))
        shift_grad = np.einsum("tsr,tksrj->tkj", const, relu_in[:, :, 1])
        grad = grad * np.stack([lo_slope, up_slope], axis=2)[:, :, :, None, None]
        grad[:, :, 1] += const[:, None, :, :, None] * up_shift[:, :, None, None]
        mixed = (lower < 0) & (upper > 0)
        width2 = np.where(mixed, (upper - lower) ** 2, 1.0)
        lower_grad, upper_grad = bound_grads[l]
        np.add.at(lower_grad, front, np.where(
            mixed, (slope_grad * upper - shift_grad * upper**2) / width2, 0.0))
        np.add.at(upper_grad, front, np.where(
            mixed, (shift_grad * lower**2 - slope_grad * lower) / width2, 0.0))


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
