"""Interval bound propagation for GCNs under feature-flip budgets.

The input abstraction bounds the pre-activation values after the first layer
directly from the perturbation budget (the raw 0/1 input box would be useless:
every cell could flip). Two variants exist: ``topk`` ranks flip candidates per
node and globally and is exact for the first layer; ``max`` scales the single
best candidate by the total budget, cheaper but looser. Both look only at each
node's neighbours, the entries of its row of Ã (``graph.norm_adj``): a flip
elsewhere cannot move the node's first layer. Every row's bound is exact on
its own, so candidates are ranked and pooled a block of Ã's padded rows at a
time (``_POOL_ELEMENTS``): working memory is fixed by the block, and only the
(n, k, m1) clamped candidates and the (n, m1) bounds grow with n. A ``mode``
other than ``both`` drops the candidates of cells whose flip goes the other way.
Later layers use plain interval arithmetic, with the table's product for the
graph convolution, so no step holds an n×n array. These bounds drive the
interval certifier baseline and supply the numeric ReLU cases for the
polyhedra domain.

``interval_layer_bounds_backward`` is the reverse-mode pass of
``interval_layer_bounds``. It holds each bound's selected flip candidates
fixed: ``topk``'s ranked candidates and ``max``'s single best one. It walks
the same row blocks as the forward pass, through the shared
``_scaled_pools``, and ranks each block with a stable argsort rather than
keeping the pools, so ``interval_layer_bounds`` returns only the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError, DimensionError
from .graph import GcnModel, Graph, NeighborTable, predict, row_blocks
from .perturbation import PerturbationBudget, check_mode, restrict_to_mode, sign_matrix

VARIANTS = ("topk", "max")

# elements of one block of rows in the flip-candidate pools: a seed-1
# `certify-sbm` CLI run (1,000 nodes) peaked at 34.26, 34.02, 34.28 and 34.46 MB
# RSS with 1 << 12, 13, 14 and 15 (medians of 10 runs) at the same wall time;
# on a 100,000-node graph the block size moves neither
_POOL_ELEMENTS = 1 << 13


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
    *,
    mode: str = "both",
) -> IntervalElement:
    """Bounds on the first layer's pre-activation over every admissible flip set.

    A flip of cell (k, f) moves output (i, j) by Ã[i,k] * sign[k,f] * W[f,j].
    ``topk``: per source node keep the ``per_node`` best candidates (clamped
    toward zero), scale them by Ã[i,k] for each neighbour k of node i, then
    keep the ``total`` best overall; this realizes the entrywise extremum
    exactly. ``max``: bound the deviation by ``total`` times the single best
    scaled candidate. Under ``add-only`` (``delete-only``) a cell whose
    feature is 1 (0) cannot flip, so its candidates are 0.
    """
    _check_variant(variant)
    check_mode(mode)
    layer0 = model.layers[0]
    if graph.num_features != model.input_width:
        raise DimensionError(
            f"model expects {model.input_width} input features, got {graph.num_features}"
        )
    base = (graph.norm_adj @ graph.features) @ layer0.weight + layer0.bias
    if budget.per_node == 0 or budget.total == 0:
        return IntervalElement(base.copy(), base.copy())

    dev_min, dev_max = _flip_deviations(model, graph, budget, variant, mode)
    return IntervalElement(base + dev_min, base + dev_max)


def _candidates(model: GcnModel, graph: Graph, mode: str, sources: slice) -> np.ndarray:
    """Flip deltas sign[k,f] * W[f,j] of source nodes ``sources``, 0 where ``mode`` bars a flip."""
    features = graph.features[sources]
    cand = sign_matrix(features)[:, :, None] * model.layers[0].weight[None, :, :]
    return restrict_to_mode(cand, features[:, :, None], mode)


def _scaled_pools(
    model: GcnModel, graph: Graph, budget: PerturbationBudget, variant: str, mode: str
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The pools each output row's extreme deviations draw from, a block of rows at a time.

    Yields (rows, cols, weights, scaled_neg, scaled_pos): a block of Ã's
    ``padded_rows`` and its pools, each (rows, width · k_local, m1): Ã[i,k]
    times each neighbour k's ``k_local`` most negative (positive) flip
    candidates, clamped toward zero, with ``k_local`` = min(per_node, m0) for
    ``topk`` and 1, the single best, for ``max``. Only the clamped candidates,
    (n, k_local, m1) per side and ranked a block of sources at a time, span n.
    """
    n, m0 = graph.features.shape
    m1 = model.layers[0].weight.shape[1]
    k_local = min(budget.per_node, m0) if variant == "topk" else 1
    neg, pos = np.empty((n, k_local, m1)), np.empty((n, k_local, m1))
    for sources in row_blocks(np.ones(n, dtype=np.int64), m0 * m1, _POOL_ELEMENTS):
        cand = _candidates(model, graph, mode, sources)
        if variant == "topk":
            ordered = np.sort(cand, axis=1)
            neg[sources] = np.minimum(ordered[:, :k_local, :], 0.0)
            pos[sources] = np.maximum(ordered[:, -k_local:, :], 0.0)
        else:
            neg[sources, 0] = np.minimum(cand.min(axis=1), 0.0)
            pos[sources, 0] = np.maximum(cand.max(axis=1), 0.0)
    # only Ã's nonzero entries can move a row; padding weighs 0 like a non-neighbour
    for rows, cols, weights in graph.norm_adj.padded_rows(k_local * m1, _POOL_ELEMENTS):
        scale = weights[:, :, None, None]
        yield (rows, cols, weights, (scale * neg[cols]).reshape(len(cols), -1, m1),
               (scale * pos[cols]).reshape(len(cols), -1, m1))


def _flip_deviations(
    model: GcnModel, graph: Graph, budget: PerturbationBudget, variant: str, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Extreme first-layer deviations (dev_min, dev_max) under a non-zero budget.

    ``topk`` adds each row's ``total`` most negative (positive) scaled
    candidates one by one, whatever zeros pad its pool; ``max`` scales the
    single best by ``total``. Rows are independent, so each block of
    ``_scaled_pools`` is written straight into the (n, m1) outputs.
    """
    dev_min = np.empty((graph.num_nodes, model.layers[0].weight.shape[1]))
    dev_max = np.empty_like(dev_min)
    for rows, _, _, scaled_neg, scaled_pos in _scaled_pools(model, graph, budget, variant, mode):
        if variant == "topk":
            k_global = min(budget.total, scaled_neg.shape[1])
            dev_min[rows] = np.cumsum(np.sort(scaled_neg, axis=1)[:, :k_global], axis=1)[:, -1]
            dev_max[rows] = np.cumsum(np.sort(scaled_pos, axis=1)[:, -k_global:], axis=1)[:, -1]
        else:
            dev_min[rows] = budget.total * scaled_neg.min(axis=1)
            dev_max[rows] = budget.total * scaled_pos.max(axis=1)
    return dev_min, dev_max


def _flip_deviations_backward(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str,
    mode: str,
    min_grad: np.ndarray,
    max_grad: np.ndarray,
) -> np.ndarray:
    """First-layer weight gradient of sum(min_grad * dev_min + max_grad * dev_max).

    Ranks each block of ``_scaled_pools`` with a stable argsort, which the
    zeros padding a row's pool cannot reorder, to find the scaled candidates
    each deviation took, and adds their gradient onto the source nodes'
    ranked candidates. A second walk over the source nodes ranks their flip
    candidates again to place it. Only the candidate gradient, (n, m0, m1),
    spans the graph, so the final contraction sums over nodes in one order.
    """
    n, m0 = graph.features.shape
    m1 = model.layers[0].weight.shape[1]
    k_local = min(budget.per_node, m0) if variant == "topk" else 1
    # gradient on each source node's ranked candidates, summed over neighbours
    ranked_grads = np.zeros((2, n, k_local, m1))
    for rows, cols, weights, neg, pos in _scaled_pools(model, graph, budget, variant, mode):
        for ranked_grad, pool, grad, low in ((ranked_grads[0], neg, min_grad[rows], True),
                                             (ranked_grads[1], pos, max_grad[rows], False)):
            if variant == "topk":
                k_global = min(budget.total, pool.shape[1])
                order = np.argsort(pool, axis=1, kind="stable")
                taken = order[:, :k_global] if low else order[:, -k_global:]
                scaled_grad = np.zeros(pool.shape)
                np.put_along_axis(scaled_grad, taken, grad[:, None, :], axis=1)
                np.add.at(ranked_grad, cols, weights[:, :, None, None]
                          * scaled_grad.reshape(cols.shape + (-1, m1)))
            else:
                taken = pool.argmin(axis=1) if low else pool.argmax(axis=1)
                np.add.at(ranked_grad[:, 0],
                          (np.take_along_axis(cols, taken, axis=1), np.arange(m1)),
                          budget.total * np.take_along_axis(weights, taken, axis=1) * grad)
    cand_grad = np.zeros((n, m0, m1))
    for sources in row_blocks(np.ones(n, dtype=np.int64), m0 * m1, _POOL_ELEMENTS):
        cand = _candidates(model, graph, mode, sources)
        if variant == "topk":
            order = np.argsort(cand, axis=1)
            sides = (order[:, :k_local], order[:, -k_local:])
        else:
            sides = (cand.argmin(axis=1)[:, None], cand.argmax(axis=1)[:, None])
        for ranks, ranked_grad, beyond_zero in zip(sides, ranked_grads[:, sources],
                                                   (np.less, np.greater)):
            # a candidate clamped to 0 passes nothing on
            ranked_grad = ranked_grad * beyond_zero(np.take_along_axis(cand, ranks, axis=1), 0.0)
            side_grad = np.zeros_like(cand)
            np.put_along_axis(side_grad, ranks, ranked_grad, axis=1)
            cand_grad[sources] += side_grad
    return np.einsum("kfj,kf->fj", cand_grad, sign_matrix(graph.features))


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


def gc_interval(elem: IntervalElement, norm_adj: NeighborTable | np.ndarray) -> IntervalElement:
    """Graph convolution on both bounds; sound only because Ã is entrywise >= 0.

    ``norm_adj`` is Ã as a graph's ``norm_adj`` table or as a dense (n, n) array.
    """
    if not isinstance(norm_adj, NeighborTable):  # a table's weights are >= 0 by construction
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
    *,
    mode: str = "both",
) -> list[IntervalElement]:
    """Pre-activation interval bounds for every layer, output layer last."""
    bounds = [interval_input_abstraction(model, graph, budget, variant, mode=mode)]
    for layer in model.layers[1:]:
        elem = relu_interval(bounds[-1])
        elem = gc_interval(elem, graph.norm_adj)
        bounds.append(linear_interval(elem, layer.weight, layer.bias))
    return bounds


def interval_layer_bounds_backward(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str,
    mode: str,
    bounds: Sequence[IntervalElement],
    bound_grads: Sequence[tuple[np.ndarray, np.ndarray]],
    param_grads: Sequence[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Reverse-mode pass of ``interval_layer_bounds``; adds into ``param_grads``.

    ``bound_grads[l]`` holds the gradients with respect to ``bounds[l]``'s
    lower and upper matrices; the pass adds what reaches each earlier layer
    into its entry on the way down. Later layers go back through the affine
    map's sign split, Ã and the ReLU (which passes nothing where its input is
    <= 0), the first layer through the base value and the chosen candidates.
    """
    adj_t = graph.norm_adj  # Ã is symmetric, up to the rounding of its entries
    for l in range(model.num_layers - 1, 0, -1):
        weight = model.layers[l].weight
        w_pos, w_neg = np.maximum(weight, 0.0), np.minimum(weight, 0.0)
        lower_grad, upper_grad = bound_grads[l]
        # linear_interval's input is Ã·ReLU(previous bounds)
        at_lower, at_upper = adj_t @ lower_grad, adj_t @ upper_grad
        prev = bounds[l - 1]
        relu_lower, relu_upper = np.maximum(prev.lower, 0.0), np.maximum(prev.upper, 0.0)
        weight_grad, bias_grad = param_grads[l]
        weight_grad += np.where(weight >= 0,
                                relu_lower.T @ at_lower + relu_upper.T @ at_upper,
                                relu_upper.T @ at_lower + relu_lower.T @ at_upper)
        bias_grad += lower_grad.sum(axis=0) + upper_grad.sum(axis=0)
        prev_lower, prev_upper = bound_grads[l - 1]
        prev_lower += (at_lower @ w_pos.T + at_upper @ w_neg.T) * (prev.lower > 0)
        prev_upper += (at_lower @ w_neg.T + at_upper @ w_pos.T) * (prev.upper > 0)
    lower_grad, upper_grad = bound_grads[0]
    weight_grad, bias_grad = param_grads[0]
    base_grad = lower_grad + upper_grad
    # sums the rows in order (a BLAS product's blocking depends on their count)
    weight_grad += np.einsum("kf,kj->fj", graph.norm_adj @ graph.features, base_grad)
    bias_grad += base_grad.sum(axis=0)
    if budget.per_node > 0 and budget.total > 0:
        weight_grad += _flip_deviations_backward(
            model, graph, budget, variant, mode, lower_grad, upper_grad)


def interval_certify(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str = "topk",
) -> np.ndarray:
    """Per-node judgment r_i = min over rivals of L[i, c] - U[i, c'].

    r_i > 0 certifies node i (sound). This baseline never produces
    counterexamples: the box at the output has lost which inputs realize it.
    An output box that overflows to infinity or NaN raises ``DataError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = interval_layer_bounds(model, graph, budget, variant)[-1]
    if not (np.isfinite(out.lower).all() and np.isfinite(out.upper).all()):
        raise DataError("output bounds are not finite: the model overflows float64 on this graph")
    labels = predict(model, graph).labels
    nodes = np.arange(len(labels))
    rival_upper = out.upper.copy()
    rival_upper[nodes, labels] = -np.inf  # a model with one label has no rival: margin inf
    return out.lower[nodes, labels] - rival_upper.max(axis=1)
