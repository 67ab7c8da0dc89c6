"""Sound certificates and verified counterexamples.

For each node, the score gap to every rival label is bounded from below by a
single affine form over input features; minimizing that form over the flip
budget is exact (a linear objective under per-node and global cardinality
caps yields to greedy selection). Each rival margin is the better of that
exact minimum and the output interval box's gap L[i, label] - U[i, rival]:
both are sound, so their maximum is too, and the margin never falls below
the interval certifier (the symbolic ReLU lower relaxation can undershoot the
interval floor of 0). A positive margin certifies the node. ``certify_sound``
returns one ``Certificate`` of arrays, the minimizer's flips among them as
flat index arrays. For non-certified nodes, those flips become ``FlipSet``s
and are replayed through the concrete forward pass; only flips that
demonstrably change the prediction are reported, which makes the resulting
upper bound complete.

Replay is local: an L-layer GCN's score for node i depends only on the
features of the nodes within L hops, so ``generate_counterexample`` runs the
forward pass on that receptive field alone, with the full graph's Ã entries,
one batch for all of a node's candidate flip sets. Local sums round
differently from the whole-graph product, so a candidate whose local top two
scores lie within 1e-9 (relative) is settled by the whole-graph ``forward``.

The kernel works serially, on the calling thread, through chunks of target
nodes sized by a fixed element budget: one ``back_substitute_batch`` call per
chunk, the lower form of score[label] - score[rival] for every (target,
rival) pair sliced out of it as lower[label] - upper[rival], and one batched
greedy minimization of all those rows; ``label_difference_transform`` and
``minimize_delta`` are the one-row forms, which no production path calls.
``_run_kernel`` runs it for ``certify_sound`` and for robust training's
``rival_margins``, which also returns the margins' pullback: one reverse-mode
pass through the minimization, ``back_substitute_backward`` and
``interval_layer_bounds_backward`` to the layer weights and biases.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, check_index
from .graph import GcnModel, Graph, forward, predict, receptive_field
from .intervals import IntervalElement, interval_layer_bounds, interval_layer_bounds_backward
from .perturbation import (FlipSet, PerturbationBudget, apply_flips, check_mode, restrict_to_mode,
                           sign_matrix)
from .polyhedra import PolyBatch, PolyNodeElement, back_substitute_backward, back_substitute_batch

# local top-two score gaps within this fraction of the top score are re-checked
# with the whole-graph forward pass
_TIE_TOLERANCE = 1e-9

# coefficient entries per chunk of kernel targets at the widest
# possible receptive field: keeps a chunk's tensors at a few MB
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True, eq=False)
class Certificate:
    """Sound certification of nodes, one row each: margin > 0 certifies the row's node.

    ``rival_margins[t, r]`` bounds score[labels[t]] - score[rivals[t, r]]
    from below. The symbolic minimizer's flips for it are the cells
    (pick_node[k], pick_feature[k]) of every k with (pick_row[k],
    pick_rival[k]) = (t, r), sorted by (row, rival, node, feature).
    """

    nodes: np.ndarray  # (rows,)
    labels: np.ndarray  # (rows,) the label each node defends
    rivals: np.ndarray  # (rows, labels - 1) every other label, ascending
    rival_margins: np.ndarray  # (rows, labels - 1)
    pick_row: np.ndarray  # (picks,)
    pick_rival: np.ndarray  # (picks,) a column of ``rivals``
    pick_node: np.ndarray  # (picks,)
    pick_feature: np.ndarray  # (picks,)

    @property
    def margin(self) -> np.ndarray:
        """Each row's smallest rival margin, inf without rivals; of 0.0 and -0.0 the first."""
        padded = np.hstack([self.rival_margins, np.full((len(self.nodes), 1), np.inf)])
        return padded[np.arange(len(padded)), padded.argmin(axis=1)]

    @property
    def certified(self) -> np.ndarray:
        return self.margin > 0.0

    def flip_set(self, row: int, rival: int) -> FlipSet:
        """The minimizer's flips against ``rivals[row, rival]``, both indices in range."""
        row = check_index(row, "certificate row", 0, len(self.nodes))
        rival = check_index(rival, "rival column", 0, self.rivals.shape[1])
        lo, hi = np.searchsorted(self.pick_row, [row, row + 1])
        at = lo + np.flatnonzero(self.pick_rival[lo:hi] == rival)
        return FlipSet(tuple(zip(self.pick_node[at].tolist(), self.pick_feature[at].tolist())))


@dataclass(frozen=True)
class Counterexample:
    """A budget-respecting flip set verified to change the node's prediction."""

    node: int
    flips: FlipSet
    flipped_label: int


def label_difference_transform(
    elem: PolyNodeElement, original_label: int, other_label: int
) -> PolyNodeElement:
    """Single-row element bounding score[original] - score[other].

    Its lower form is lower[original] - upper[other] and its upper form
    upper[original] - lower[other], the rows ``certify_sound`` minimizes; two distinct labels.
    """
    a, b = check_index([original_label, other_label], "label", 0, elem.rows, many=True)[:, None]
    if a == b:
        raise DataError("label difference requires two distinct labels")
    return PolyNodeElement(
        var_nodes=elem.var_nodes,
        num_features=elem.num_features,
        lower_coef=elem.lower_coef[a] - elem.upper_coef[b],
        lower_const=elem.lower_const[a] - elem.upper_const[b],
        upper_coef=elem.upper_coef[a] - elem.lower_coef[b],
        upper_const=elem.upper_const[a] - elem.lower_const[b],
    )


def _minimize_forms(
    coef: np.ndarray,
    const: np.ndarray,
    features: np.ndarray,
    budget: PerturbationBudget,
    mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact minima of many lower-bound forms over the flip budget at once.

    ``coef`` (targets, forms, field, features) and ``const`` (targets, forms)
    hold each target's forms over ``features`` (targets, field, features), the
    input features of its receptive field. Returns the minima and a boolean
    mask, shaped like ``coef``, of the flips that realize them.
    """
    t, v, f, m0 = coef.shape
    x = features.astype(np.float64)
    base = (coef.reshape(t, v, f * m0) @ x.reshape(t, f * m0, 1))[:, :, 0] + const
    theta = restrict_to_mode(coef * sign_matrix(features)[:, None], features[:, None], mode)
    if budget.per_node == 0 or budget.total == 0:
        return base, np.zeros(coef.shape, dtype=bool)
    flat = theta.reshape(t * v, f * m0)
    # each field node's per_node most negative changes, ties toward the lower
    # feature, listed node by node; a stable sort of that list then ranks
    # (theta, node, feature), so the total most negative come first
    local = np.argsort(theta, axis=3, kind="stable")[..., : budget.per_node]
    cells = (local + m0 * np.arange(f)[:, None]).reshape(t * v, f * local.shape[3])
    ranked = np.argsort(np.take_along_axis(flat, cells, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(cells, ranked[:, : budget.total], axis=1)
    pick = np.zeros(flat.shape, dtype=bool)
    np.put_along_axis(pick, top, np.take_along_axis(flat, top, axis=1) < 0, axis=1)
    # a running sum adds the chosen changes one by one in (node, feature) order
    gain = np.cumsum(np.where(pick, flat, 0.0), axis=1)[:, -1]
    return base + gain.reshape(t, v), pick.reshape(coef.shape)


def minimize_delta(
    elem: PolyNodeElement,
    features: np.ndarray,
    budget: PerturbationBudget,
    mode: str = "both",
) -> tuple[float, FlipSet]:
    """Exact minimum of the element's lower-bound form over the flip budget.

    Flipping cell (k, j) changes the form by theta = coef * sign; collecting
    the most negative changes, at most ``per_node`` per node and ``total``
    overall, realizes the minimum. Ties break toward the lowest (node,
    feature) pair so the chosen flip set is deterministic. ``mode`` restricts
    candidate flips to feature additions (0 to 1) or deletions (1 to 0).
    """
    check_mode(mode)
    if elem.rows != 1:
        raise DataError("minimize_delta expects a single-row element")
    shape = (1, 1, len(elem.var_nodes), elem.num_features)
    value, pick = _minimize_forms(elem.lower_coef.reshape(shape), elem.lower_const.reshape(1, 1),
                                  np.asarray(features)[elem.var_nodes][None], budget, mode)
    _, _, at, feature = np.nonzero(pick)
    return float(value[0, 0]), FlipSet(tuple(zip(elem.var_nodes[at].tolist(), feature.tolist())))


def _target_elements(model: GcnModel, graph: Graph) -> int:
    """Coefficient entries one target can need: 4 per label, layer width and field node."""
    cols, weights = graph.neighbors
    field = np.ones(graph.num_nodes)
    for _ in model.layers:  # one more hop reaches at most the neighbours' fields
        field = np.minimum(np.where(weights > 0, field[cols], 0.0).sum(axis=1), len(field))
    width = max([model.input_width] + [layer.weight.shape[1] for layer in model.layers])
    return int(4 * model.num_labels * width * field.max())


@dataclass(frozen=True)
class _ChunkMargins:
    """Every (target, rival) margin of one chunk of targets, and how each came about."""

    nodes: np.ndarray  # (targets,)
    labels: np.ndarray  # (targets,) the label each target defends
    rivals: np.ndarray  # (targets, labels - 1)
    margins: np.ndarray  # (targets, labels - 1): the larger of the two bounds below
    poly_min: np.ndarray  # the symbolic form's exact minimum
    box_gap: np.ndarray  # the output box's L[node, label] - U[node, rival]
    pick: np.ndarray  # the symbolic minimizer's flips, (targets, rivals, field, features)
    batch: PolyBatch


def _chunk_margins(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    mode: str,
    layer_bounds: list[IntervalElement],
    labels: np.ndarray,
    chunk: np.ndarray,
) -> _ChunkMargins:
    """The certification kernel on one chunk: back-substitute, minimize, compare with the box."""
    batch = back_substitute_batch(model, graph, chunk, layer_bounds)
    own = labels[chunk]
    rivals = np.arange(model.num_labels - 1) + (np.arange(model.num_labels - 1) >= own[:, None])
    at = np.arange(len(chunk))[:, None]
    # the lower form of score[label] - score[rival] is lower[label] - upper[rival]
    poly_min, pick = _minimize_forms(
        batch.lower_coef[at, own[:, None]] - batch.upper_coef[at, rivals],
        batch.lower_const[at, own[:, None]] - batch.upper_const[at, rivals],
        graph.features[batch.fronts],
        budget,
        mode,
    )
    out_box = layer_bounds[-1]
    box_gap = out_box.lower[chunk, own][:, None] - out_box.upper[chunk[:, None], rivals]
    margins = np.where(box_gap > poly_min, box_gap, poly_min)
    return _ChunkMargins(chunk, own, rivals, margins, poly_min, box_gap, pick, batch)


def _chunk_margins_backward(
    model: GcnModel,
    graph: Graph,
    layer_bounds: list[IntervalElement],
    part: _ChunkMargins,
    margin_grad: np.ndarray,
    param_grads: list[tuple[np.ndarray, np.ndarray]],
    bound_grads: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Reverse-mode pass of ``_chunk_margins``; adds into the two gradient lists.

    Each margin's gradient goes to the side that won (the symbolic minimum on
    a tie). The box gap is L[node, label] - U[node, rival]. The minimum of a
    form over the flip budget has, by Danskin's theorem, the minimizing input
    as its gradient with respect to the coefficients and 1 with respect to
    the constant.
    """
    box_wins = part.box_gap > part.poly_min
    box_grad = np.where(box_wins, margin_grad, 0.0)
    poly_grad = np.where(box_wins, 0.0, margin_grad)
    lower_grad, upper_grad = bound_grads[-1]
    np.add.at(lower_grad, (part.nodes, part.labels), box_grad.sum(axis=1))
    np.add.at(upper_grad, (part.nodes[:, None], part.rivals), -box_grad)
    batch = part.batch
    x = graph.features[batch.fronts][:, None]
    point_grad = poly_grad[:, :, None, None] * (x + sign_matrix(x) * part.pick)
    at = np.arange(len(part.nodes))
    low_coef, up_coef = np.zeros_like(batch.lower_coef), np.zeros_like(batch.upper_coef)
    low_const, up_const = np.zeros_like(batch.lower_const), np.zeros_like(batch.upper_const)
    low_coef[at, part.labels] = point_grad.sum(axis=1)
    low_const[at, part.labels] = poly_grad.sum(axis=1)
    up_coef[at[:, None], part.rivals] = -point_grad
    up_const[at[:, None], part.rivals] = -poly_grad
    back_substitute_backward(model, batch, layer_bounds,
                             (low_coef, low_const, up_coef, up_const), param_grads, bound_grads)


def _chunks(model: GcnModel, graph: Graph, nodes: np.ndarray) -> list[np.ndarray]:
    size = max(1, _CHUNK_ELEMENTS // _target_elements(model, graph))
    return [nodes[start : start + size] for start in range(0, len(nodes), size)]


def _run_kernel(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str,
    mode: str,
    nodes: Sequence[int] | None,
    labels: np.ndarray | None,
    keep: Callable[[int, _ChunkMargins], object],
) -> tuple[list[IntervalElement], list]:
    """The interval bounds, and ``keep(start, result)`` of each chunk, ``start`` its first row.

    ``nodes`` defaults to every node and ``labels`` to the predictions, both checked once.
    The chunks run one after another on the calling thread; ``keep`` runs as each
    one finishes, so a chunk's large arrays can go before the next starts.
    """
    check_mode(mode)
    n = graph.num_nodes
    nodes = check_index(np.arange(n) if nodes is None else nodes, "node index", 0, n, many=True)
    labels = predict(model, graph).labels if labels is None else check_index(
        labels, "label index", 0, model.num_labels, many=True)
    if np.shape(labels) != (n,):
        raise DataError("labels must hold one entry per node")
    layer_bounds = interval_layer_bounds(model, graph, budget, variant, mode=mode)

    chunks = _chunks(model, graph, nodes)
    starts = np.cumsum([0] + [len(chunk) for chunk in chunks])
    return layer_bounds, [keep(start, _chunk_margins(model, graph, budget, mode, layer_bounds,
                                                     labels, chunk))
                          for start, chunk in zip(starts, chunks)]


def _chunk_certificate(start: int, part: _ChunkMargins) -> Certificate:
    """The certificate rows of one chunk; its picks come from one ``np.nonzero``."""
    row, rival, at, feature = np.nonzero(part.pick)
    return Certificate(part.nodes, part.labels, part.rivals, part.margins,
                       start + row, rival, part.batch.fronts[row, at], feature)


def certify_sound(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str = "topk",
    *,
    nodes: Sequence[int] | None = None,
    mode: str = "both",
) -> Certificate:
    """The certificate of the requested nodes (all by default), one row each in order.

    Each node defends the model's own predicted label; certified => robust.
    The kernel's chunks run serially, on the calling thread.
    """
    _, parts = _run_kernel(model, graph, budget, variant, mode, nodes, None, _chunk_certificate)
    none, no_rivals = np.zeros(0, dtype=np.int64), np.zeros((0, model.num_labels - 1))
    empty = Certificate(none, none, no_rivals.astype(np.int64), no_rivals, *[none] * 4)
    return Certificate(*(np.concatenate([getattr(part, f.name) for part in [empty] + parts])
                         for f in fields(Certificate)))


def rival_margins(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str,
    labels: np.ndarray,
    nodes: np.ndarray,
    mode: str = "both",
) -> tuple[np.ndarray, Callable[[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]]:
    """The (nodes x rivals) margins of ``labels``, one per graph node, and their pullback.

    Where ``labels`` are the model's predictions, the margins equal
    ``certify_sound(...).rival_margins`` for the same nodes bit for bit,
    because both come from the same kernel. The pullback maps a gradient with
    respect to the margins, shaped like them, to the gradient with respect to
    every layer's (weight, bias): one reverse-mode pass through the
    minimization, back-substitution and interval bounds.
    """
    layer_bounds, parts = _run_kernel(model, graph, budget, variant, mode, nodes, labels,
                                      lambda start, part: (start, part))

    def pullback(margin_grad: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        param_grads = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in model.layers]
        bound_grads = [(np.zeros_like(b.lower), np.zeros_like(b.upper)) for b in layer_bounds]
        for start, part in parts:
            rows = margin_grad[start : start + len(part.nodes)]
            _chunk_margins_backward(model, graph, layer_bounds, part, rows,
                                    param_grads, bound_grads)
        interval_layer_bounds_backward(model, graph, budget, variant, mode, layer_bounds,
                                       bound_grads, param_grads)
        return param_grads

    empty = np.zeros((0, model.num_labels - 1))
    return np.concatenate([empty] + [part.margins for _, part in parts]), pullback


def _local_scores(
    model: GcnModel, graph: Graph, hops: list[np.ndarray], x: np.ndarray
) -> np.ndarray:
    """Scores of node H_0 for a stack x of (field, m0) feature matrices over the field H_L.

    Layer l computes only the rows of H_{L-1-l}, from the columns of H_{L-l};
    the full graph's Ã entries are used, so no degree is renormalized.
    """
    h = x.astype(np.float64)
    depth = model.num_layers
    for l, layer in enumerate(model.layers):
        block = graph.norm_adj[np.ix_(hops[depth - 1 - l], hops[depth - l])]
        h = np.matmul(block, h) @ layer.weight + layer.bias
        if l < depth - 1:
            h = np.maximum(h, 0.0)
    return h[:, 0, :]


def generate_counterexample(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    certificate: Certificate,
    row: int,
) -> Counterexample | None:
    """Replay the minimizer's flips for each non-positive rival margin of one row.

    Rivals are tried most promising first, and the first flip set that
    changes the label wins. All candidates go through one forward pass over
    the node's receptive field (flips outside it cannot move the node's
    scores and are ignored); a candidate whose local top-two score gap is at
    most 1e-9 * max(1, |top score|) is settled by the whole-graph ``forward``
    instead, so the verdict never rests on rounding. A certified row has no
    non-positive margin, so it has no candidate. Every candidate is checked
    first: one over the budget raises ``AssertionError``, one with a cell
    outside the feature matrix raises ``DataError``, and so does a bad ``row``.
    """
    row = check_index(row, "certificate row", 0, len(certificate.nodes))
    margins = certificate.rival_margins[row]
    candidates = []
    for rival in np.lexsort((certificate.rivals[row], margins)):
        if margins[rival] > 0.0:
            break
        flips = certificate.flip_set(row, rival)
        if len(flips) == 0:
            continue
        if not flips.within(budget):
            raise AssertionError("minimizer produced an out-of-budget flip set")
        flips.require_inside(graph.features.shape)
        candidates.append(flips)
    if not candidates:
        return None
    node = int(certificate.nodes[row])
    hops = receptive_field(graph, node, model.num_layers)
    field = hops[-1]
    x = np.repeat(graph.features[field][None], len(candidates), axis=0)
    for k, flips in enumerate(candidates):
        rows, cols = np.array(flips.flips).T
        at = np.minimum(np.searchsorted(field, rows), len(field) - 1)
        inside = field[at] == rows
        x[k, at[inside], cols[inside]] ^= 1
    for flips, scores in zip(candidates, _local_scores(model, graph, hops, x)):
        top = np.sort(scores)[::-1]
        if len(top) > 1 and top[0] - top[1] <= _TIE_TOLERANCE * max(1.0, abs(top[0])):
            scores = forward(model, graph.norm_adj, apply_flips(graph.features, flips))[node]
        new_label = int(np.argmax(scores))
        if new_label != certificate.labels[row]:
            return Counterexample(node, flips, new_label)
    return None


def find_counterexamples(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    certificate: Certificate,
) -> dict[int, Counterexample]:
    """Verified counterexamples keyed by node, replaying the non-certified rows only.

    This is the complete upper bound: a node with a counterexample is not
    robust, and every other node counts as possibly robust.
    """
    found = (generate_counterexample(model, graph, budget, certificate, row)
             for row in np.flatnonzero(~certificate.certified))
    return {ce.node: ce for ce in found if ce is not None}
