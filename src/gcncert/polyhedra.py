"""Per-node symbolic linear bounds over input-feature variables.

Each node's latent features are sandwiched between two affine forms of the
binary input features of its neighborhood: Q_lo·x + d_lo <= h <= Q_up·x + d_up.
Graph convolution and affine layers transform these forms exactly; ReLU is
relaxed to one linear bound per side, choosing the slope that minimizes the
bounding area given numeric pre-activation intervals.

The forms are derived backwards: ``back_substitute_batch`` starts from
specification rows over the output scores of a chunk of target nodes and
rewrites them layer by layer, each target over its own receptive field, so a
target's variables widen by one hop per layer and never cover nodes it cannot
see. Each row weighs the output layer's lower and upper rows, and the kernel
is linear in those weights: a certificate passes score[label] - score[rival]
as one row per rival, +1 on the label's lower row and -1 on the rival's upper
row, and gets each row's lower form (CROWN's back-substitution of the
specification rows alone; Zhang et al., NeurIPS 2018). Coefficients come back
as (targets, rows, field, features). Layer 0's output is exact in the input
features, so there the two referenced sides merge into one form. The hops
come from the caller, padded as ``receptive_fields`` gives them, and Ã is
read only between one hop and the next, as the dense blocks
``NeighborTable.between`` builds from Ã's rows: the kernel's arithmetic is a
dense Ã's, and no n×n array is built. The interval pre-activation bounds come
from the caller, which computes them once per budget and shares them across
all of its nodes.

``back_substitute`` is the kernel's one-target view, returning a
``PolyNodeElement`` from two kernel passes, the identity on the lower rows
and on the upper rows; no production path calls it. The forward propagation
the kernel is tested against (input abstraction, graph convolution, affine
and ReLU steps on ``PolyNodeElement``s, and their evaluation at a feature
matrix) lives with the tests, in ``tests/poly_oracle.py``.

``back_substitute_backward`` is the reverse-mode pass of the batch kernel: it
carries gradients with respect to the output forms back through the same
crossings, in the opposite order, to the layer weights and biases and to the
interval bounds that set the ReLU slopes. It reads only the arrays the
forward pass kept in ``PolyBatch.tape``, so the coefficients can be consumed
before it runs.
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
    active, mixed = lower >= 0, (lower < 0) & (upper > 0)
    width = np.where(mixed, upper - lower, 1.0)
    lower_slope = np.where(active | mixed & (upper >= -lower), 1.0, 0.0)
    upper_slope = np.where(mixed, upper / width, np.where(active, 1.0, 0.0))
    upper_shift = np.where(mixed, -upper * lower / width, 0.0)
    return lower_slope, upper_slope, upper_shift


@dataclass(frozen=True)
class PolyBatch:
    """Output-layer symbolic bounds of a chunk of target nodes, one form per spec row.

    Target t's variables are the input features of ``fronts[t]``, its
    receptive field in ascending node order. Fields are padded at the end to
    the chunk's widest with node 0 under all-zero coefficients. Row q of
    target t is the form of the kernel's ``spec[t, :, q]``; coefficients are
    shaped (targets, rows, field, features), constants (targets, rows).
    ``tape`` holds, per layer in the order the forward pass crossed them, what
    ``back_substitute_backward`` reads: the front, the coefficients entering
    the ReLU (None at the output layer) and the affine crossing (at layer 0
    with both sides merged, as (targets, rows, front, width)), and the
    graph-convolution block, whose padded rows and columns are 0.
    """

    fronts: np.ndarray
    coef: np.ndarray
    const: np.ndarray
    tape: tuple


def back_substitute_batch(
    model: GcnModel,
    graph: Graph,
    hops: Sequence[tuple[np.ndarray, np.ndarray]],
    layer_bounds: Sequence[IntervalElement],
    spec: np.ndarray,
) -> PolyBatch:
    """One output form per (target, spec row), derived backwards in one pass.

    ``hops`` are the targets' ``receptive_fields``, and ``spec`` (targets, 2,
    rows, labels) weighs each row on the output layer's lower (0) and upper
    (1) rows. Rewrites each row layer by layer as a combination of the current
    layer's element rows, keeping separate weights on the referenced lower
    rows and upper rows (the affine and ReLU crossings below mirror the
    forward operations' sign splits term for term). The result therefore
    equals ``spec``'s combination of the forward propagation's forms up to
    rounding, but never materializes elements outside a target's receptive
    field: each target's front only widens by one hop per layer, to the next
    hop. Layer 0's output is exact in x, so there the two sides merge.

    ``layer_bounds`` holds the interval pre-activation bounds of every layer
    (``interval_layer_bounds``) under the budget.
    """
    targets, _, rows, _ = spec.shape
    # coef[t, k, ref, q, j]: weight that row q of target t puts on the
    # referenced (0 lower, 1 upper) row of feature j of front node k in the
    # current layer's element
    coef = spec[:, None]
    const = np.zeros((targets, rows))
    tape = []
    for l in range(model.num_layers - 1, -1, -1):
        front = hops[-2 - l][0]
        relu_in = None
        if l < model.num_layers - 1:
            # cross the ReLU that follows layer l: lower rows scale by the
            # lower slope, upper rows by the chord slope plus its intercept
            pre = layer_bounds[l]
            lo_slope, up_slope, up_shift = _relu_cases(pre.lower[front], pre.upper[front])
            relu_in = coef
            const = const + (coef[:, :, 1] * up_shift[:, :, None]).sum(axis=(1, 3))
            coef = coef * np.stack([lo_slope, up_slope], axis=2)[:, :, :, None]
        layer = model.layers[l]
        both = coef[:, :, 0] + coef[:, :, 1]  # the bias enters both referenced sides
        const = const + both.sum(axis=1) @ layer.bias
        # the graph convolution g = Ã h widens each front by one hop; the
        # block's padded rows and columns are 0
        adj_sub = graph.norm_adj.between(hops[-2 - l], hops[-1 - l])
        if l == 0:  # one product with W0, one with Ã: (targets, rows, field, features)
            affine_in = both.transpose(0, 2, 1, 3)
            coef = adj_sub.transpose(0, 2, 1)[:, None] @ (affine_in @ layer.weight.T)
        else:
            # positive weights keep the referenced side, negative weights swap it
            affine_in, both = coef, None
            flat = coef.reshape(-1, coef.shape[-1])
            pos, neg = (
                (flat @ w.T).reshape(coef.shape[:-1] + (w.shape[0],))
                for w in (np.maximum(layer.weight, 0.0), np.minimum(layer.weight, 0.0))
            )
            coef = np.empty(pos.shape)  # both referenced sides, written in place
            np.add(pos[:, :, 0], neg[:, :, 1], out=coef[:, :, 0])
            np.add(neg[:, :, 0], pos[:, :, 1], out=coef[:, :, 1])
            del pos, neg  # before the graph convolution's product
            coef = adj_sub.transpose(0, 2, 1) @ coef.reshape(targets, front.shape[1], -1)
            coef = coef.reshape((targets, adj_sub.shape[2], 2, rows, layer.weight.shape[0]))
        tape.append((front, relu_in, affine_in, adj_sub))
    return PolyBatch(fronts=hops[-1][0], coef=coef, const=const, tape=tuple(tape))


def back_substitute_backward(
    model: GcnModel,
    tape: tuple,
    layer_bounds: Sequence[IntervalElement],
    form_grads: tuple[np.ndarray, np.ndarray],
    param_grads: Sequence[tuple[np.ndarray, np.ndarray]],
    bound_grads: Sequence[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Reverse-mode pass of ``back_substitute_batch``; adds into the two gradient lists.

    ``tape`` is the batch's ``PolyBatch.tape``, and ``form_grads`` holds the
    gradients with respect to its coefficients and constants, shaped like
    them. Per layer, ``param_grads`` gets the (weight, bias) gradients and
    ``bound_grads`` the (lower, upper) gradients of ``layer_bounds``, which
    reach the forms only through the chord of each unstable ReLU: slope
    u/(u-l) and intercept -ul/(u-l). The area-rule lower slope is piecewise
    constant and passes no gradient to the bounds.
    """
    grad, const = form_grads  # every crossing adds into const
    targets = len(const)
    for l, (front, relu_in, affine_in, adj_sub) in enumerate(reversed(tape)):
        layer = model.layers[l]
        weight_grad, bias_grad = param_grads[l]
        if l == 0:
            # coef = adj_sub^T (affine_in W0^T) per (target, row), both sides merged in affine_in
            grad = adj_sub[:, None] @ grad
            weight_grad += (grad.reshape(-1, layer.weight.shape[0]).T
                            @ affine_in.reshape(-1, layer.weight.shape[1]))
            grad = grad @ layer.weight + const[:, :, None, None] * layer.bias
            referenced = affine_in.sum(axis=2)
            # both referenced sides fed the merged form, so both get its gradient
            grad = np.repeat(grad.transpose(0, 2, 1, 3)[:, :, None], 2, axis=2)
        else:
            # graph convolution: coef = adj_sub^T coef_in, so grad_in = adj_sub grad
            grad = adj_sub @ grad.reshape(targets, adj_sub.shape[2], -1)
            grad = grad.reshape(affine_in.shape[:-1] + (layer.weight.shape[0],))
            # affine: positive weights keep the referenced side, negative ones swap it
            flat_in = affine_in.reshape(-1, layer.weight.shape[1])
            same = grad.reshape(-1, layer.weight.shape[0])
            swapped = grad[:, :, ::-1].reshape(same.shape)
            weight_grad += np.where(layer.weight >= 0, same.T @ flat_in, swapped.T @ flat_in)
            grad = same @ np.maximum(layer.weight, 0.0) + swapped @ np.minimum(layer.weight, 0.0)
            grad = grad.reshape(affine_in.shape) + const[:, None, None, :, None] * layer.bias
            referenced = (affine_in[:, :, 0] + affine_in[:, :, 1]).sum(axis=1)
        # the bias entered as (sum over front and referenced side) @ bias
        bias_grad += const.reshape(-1) @ referenced.reshape(-1, layer.bias.size)
        if relu_in is None:
            continue
        # ReLU: coef = relu_in * slope and const += upper rows * intercept
        pre = layer_bounds[l]
        lower, upper = pre.lower[front], pre.upper[front]
        lo_slope, up_slope, up_shift = _relu_cases(lower, upper)
        slope_grad = (grad[:, :, 1] * relu_in[:, :, 1]).sum(axis=2)
        shift_grad = np.einsum("tq,tkqj->tkj", const, relu_in[:, :, 1])
        grad = grad * np.stack([lo_slope, up_slope], axis=2)[:, :, :, None]
        grad[:, :, 1] += const[:, None, :, None] * up_shift[:, :, None]
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
    """Output-layer element of one node: ``back_substitute_batch`` with the identity on one side."""
    hops = receptive_fields(graph, [node], model.num_layers)
    rows = model.num_labels
    lower, upper = (  # spec[side][0, ref, q, j] = 1 where ref = side and q = j
        back_substitute_batch(model, graph, hops, layer_bounds, spec)
        for spec in np.eye(2)[:, None, :, None, None] * np.eye(rows)
    )
    return PolyNodeElement(
        var_nodes=lower.fronts[0],
        num_features=graph.num_features,
        lower_coef=lower.coef[0].reshape(rows, -1),
        lower_const=lower.const[0],
        upper_coef=upper.coef[0].reshape(rows, -1),
        upper_const=upper.const[0],
    )
