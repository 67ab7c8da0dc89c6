"""Per-node symbolic linear bounds over input-feature variables.

Each node's latent features are sandwiched between two affine forms of the
binary input features of its neighborhood: Q_lo·x + d_lo <= h <= Q_up·x + d_up.
Graph convolution and affine layers transform these forms exactly; ReLU is
relaxed to one linear bound per side, choosing the slope that minimizes the
bounding area given numeric pre-activation intervals.

The forms are derived backwards: ``back_substitute_batch`` starts from
specification rows, each a weighting of one target's output scores, and
rewrites each row's lower bound layer by layer, each target over its own
receptive field, so a target's variables widen by one hop per layer and never
cover nodes it cannot see. A row keeps one coefficient per neuron: crossing a
ReLU, a coefficient >= 0 takes the lower relaxation and one < 0 the upper
chord (CROWN's back-substitution, Zhang et al., NeurIPS 2018; DeepPoly's,
Singh et al., POPL 2019). A certificate passes score[label] - score[rival] as
one row per rival, +1 on the label and -1 on the rival, and gets each row's
lower form. Coefficients come back as (targets, rows, field, features). The
hops come from the caller, padded as ``receptive_fields`` gives them, and Ã
is read only between one hop and the next, as the dense blocks
``NeighborTable.between`` builds from Ã's rows: the kernel's arithmetic is a
dense Ã's, and no n×n array is built. The interval pre-activation bounds come
from the caller, which computes them once per budget and shares them across
all of its nodes.

``back_substitute`` is the kernel's one-target view, a ``PolyNodeElement``
whose lower forms are the kernel's on the identity and whose upper forms are
minus the kernel's on minus the identity; no production path calls it. The
paper's forward propagation, which keeps a neuron's lower and upper forms
apart, and a dense netted back-substitution live with the tests, in
``tests/poly_oracle.py``: netting is as sound and never looser, and on one or
two layers, where a hidden neuron reaches each output through one weight,
the two agree.

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
    """Output-layer lower forms of a chunk of target nodes, one per spec row.

    Target t's variables are the input features of ``fronts[t]``, its
    receptive field in ascending node order. Fields are padded at the end to
    the chunk's widest with node 0 under all-zero coefficients. Row q of
    target t is the lower form of ``spec[t, q] · score``; coefficients are
    shaped (targets, rows, field, features), constants (targets, rows).
    ``tape`` holds, per layer in the order the forward pass crossed them, what
    ``back_substitute_backward`` reads: the front, the coefficients on the
    layer's output as the pass reached it (before its ReLU), and the
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
    """The lower form of each (target, spec row)'s score combination, derived backwards in one pass.

    ``hops`` are the targets' ``receptive_fields``, and ``spec`` (targets,
    rows, labels) weighs each row on the target's output scores. Each layer
    rewrites a row as one coefficient per neuron of the layer below, and a
    target's front widens by one hop per layer, so no element outside its
    receptive field is built.

    ``layer_bounds`` holds the interval pre-activation bounds of every layer
    (``interval_layer_bounds``) under the budget.
    """
    targets, rows, _ = spec.shape
    # coef[t, q, k, j]: the weight row q of target t puts on feature j of front
    # node k in the current layer's output
    coef, const, tape = spec[:, :, None], np.zeros((targets, rows)), []
    for l in range(model.num_layers - 1, -1, -1):
        front, entering = hops[-2 - l][0], coef
        if l < model.num_layers - 1:
            # cross the ReLU that follows layer l: a coefficient < 0 takes the
            # chord and its intercept, one >= 0 the lower slope
            pre = layer_bounds[l]
            lo_slope, up_slope, up_shift = _relu_cases(pre.lower[front], pre.upper[front])
            const = const + np.einsum("tqkj,tkj->tq", np.minimum(coef, 0.0), up_shift)
            slope = np.where(coef < 0, up_slope[:, None], lo_slope[:, None])
            coef = np.multiply(slope, coef, out=slope)
        layer = model.layers[l]
        const = const + coef.sum(axis=2) @ layer.bias
        # the graph convolution g = Ã h widens each front by one hop; the
        # block's padded rows and columns are 0
        adj_sub = graph.norm_adj.between(hops[-2 - l], hops[-1 - l])
        coef = adj_sub.transpose(0, 2, 1)[:, None] @ (coef @ layer.weight.T)
        tape.append((front, entering, adj_sub))
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
    reach the forms only where a coefficient < 0 took the chord of an
    unstable ReLU: slope u/(u-l) and intercept -ul/(u-l). The area-rule lower
    slope is piecewise constant and passes no gradient to the bounds.
    """
    grad, const = form_grads  # every crossing adds into const
    for l, (front, entering, adj_sub) in enumerate(reversed(tape)):
        layer = model.layers[l]
        weight_grad, bias_grad = param_grads[l]
        coef, relu = entering, l < model.num_layers - 1
        if relu:  # each coefficient's slope, as the forward pass chose it
            pre = layer_bounds[l]
            lower, upper = pre.lower[front], pre.upper[front]
            lo_slope, up_slope, up_shift = _relu_cases(lower, upper)
            chord = entering < 0
            slope = np.where(chord, up_slope[:, None], lo_slope[:, None])
            coef = slope * entering
        # per (target, row), the coefficients leave as adj_sub^T (coef W^T), and
        # const gains coef summed over the front @ bias
        grad = adj_sub[:, None] @ grad
        weight_grad += (grad.reshape(-1, layer.weight.shape[0]).T
                        @ coef.reshape(-1, layer.weight.shape[1]))
        bias_grad += const.reshape(-1) @ coef.sum(axis=2).reshape(-1, layer.bias.size)
        grad = grad @ layer.weight + const[:, :, None, None] * layer.bias
        if not relu:
            continue
        # ReLU: coef = entering * slope, and const += entering * intercept where entering < 0
        neg = np.minimum(entering, 0.0)
        slope_grad = np.einsum("tqkj,tqkj->tkj", grad, neg)
        shift_grad = np.einsum("tq,tqkj->tkj", const, neg)
        grad = grad * slope + const[:, :, None, None] * np.where(chord, up_shift[:, None], 0.0)
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
    """Output-layer element of one node from two kernel passes, on the identity and its negative.

    Its lower forms are the kernel's on the identity spec, and its upper forms
    minus the kernel's on minus the identity.
    """
    hops = receptive_fields(graph, [node], model.num_layers)
    rows = model.num_labels
    lower, negated = (back_substitute_batch(model, graph, hops, layer_bounds, spec)
                      for spec in (np.eye(rows)[None], -np.eye(rows)[None]))
    return PolyNodeElement(
        var_nodes=lower.fronts[0],
        num_features=graph.num_features,
        lower_coef=lower.coef[0].reshape(rows, -1),
        lower_const=lower.const[0],
        upper_coef=-negated.coef[0].reshape(rows, -1),
        upper_const=-negated.const[0],
    )
