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
flat index arrays. For non-certified nodes, those flips are replayed through
the concrete forward pass; only flips that demonstrably change the prediction
are reported, which makes the resulting upper bound complete.

Replay is one batched pass, ``_replay``, for one row or all open rows alike:
it reads the candidates from the pick arrays and scores each of the kernel's
chunks with one ``graph.field_labels`` call, the oracle's evaluator too, on
the rows' receptive fields, bit for bit the whole-graph ``forward``'s scores.

The kernel works serially, on the calling thread, through chunks of target
nodes: the targets are sorted by receptive-field width, widest first, and
each chunk is sized by the field of its first target under a fixed element
budget, then the rows go back to the requested order. The hops of all
targets are held ragged, and only a chunk's own rows are padded, so the
kernel's memory is bounded by the chunk, not by the widest field in the
graph; ``certify_sound`` joins the chunks' certificate columns one column at
a time. Per chunk it makes one ``back_substitute_batch`` call with one
specification row per (target, rival), +1 on the label's score and -1 on the
rival's, and gets the lower form of score[label] - score[rival] of every
pair, one coefficient per neuron. One batched greedy minimization of all
those rows follows, in the coefficients' own memory: it writes the flip
changes over them, then keeps each field node's ``per_node`` most negative
flip changes, then the ``total`` most negative of those, each step in k
``argmin`` passes that send ties to the lower (node, feature) as a stable
sort would, and it returns its flips as index arrays.
``label_difference_transform`` and ``minimize_delta`` are the forward
domain's one-row forms, whose margins ``certify_sound``'s dominate; no
production path calls them. ``_run_kernel`` runs the kernel for
``certify_sound`` and for robust training's ``rival_margins``. Given the
slope of a loss that sums over nodes, ``rival_margins`` also returns that
loss's gradient with respect to the layer weights and biases: each chunk
goes back through the minimization and ``back_substitute_backward`` as soon
as the kernel finishes it, so no chunk's tape outlives it, and
``interval_layer_bounds_backward`` runs once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DataError, check_index
from .graph import (GcnModel, Graph, field_labels, field_slots, padded_fields, predict,
                    ragged_fields, row_blocks)
from .intervals import IntervalElement, interval_layer_bounds, interval_layer_bounds_backward
from .perturbation import FlipSet, PerturbationBudget, check_mode, restrict_to_mode, sign_matrix
from .polyhedra import PolyNodeElement, back_substitute_backward, back_substitute_batch

# entries of the widest tensor the kernel builds per chunk of targets, counted
# at the chunk's widest receptive field (see ``_chunks``): keeps it near half a
# MB; 1 << 17 and 1 << 18 raised the peak RSS of a whole `collective` run on a
# 120-node graph from 32.7 to 33.9 and 36.7 MB, and of a `certify` on a
# 1,000-node one from 34.8 to 36.0 and 38.7 MB, for no speed
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class Certificate:
    """Sound certification of nodes, one row each: margin > 0 certifies the row's node.

    ``rival_margins[t, r]`` bounds score[labels[t]] - score[rivals[t, r]]
    from below. The symbolic minimizer's flips for it are the cells
    (pick_node[k], pick_feature[k]) of every k with (pick_row[k],
    pick_rival[k]) = (t, r), sorted by (row, rival, node, feature). The four
    pick columns are int32, so a product of them, such as a row times n,
    must be formed in int64.
    """

    nodes: np.ndarray  # (rows,)
    labels: np.ndarray  # (rows,) the label each node defends
    rivals: np.ndarray  # (rows, labels - 1) every other label, ascending
    rival_margins: np.ndarray  # (rows, labels - 1)
    pick_row: np.ndarray  # (picks,) int32, as are the other pick columns
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
    """Single-row element bounding score[original] - score[other], two distinct labels.

    Its lower form is lower[original] - upper[other] and its upper form
    upper[original] - lower[other]: the forward domain's difference, whose
    minimum ``certify_sound``'s margins never fall below.
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


def _smallest(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of the k smallest entries along the last axis, smallest first.

    Ties go to the lower position, so for values below +inf these are the
    first k positions of a stable ``argsort``. They are taken in k ``argmin``
    passes, each pick read and then masked with +inf through its flat index,
    in ``values`` itself where it is C-contiguous.
    """
    rows = values.reshape(-1, values.shape[-1])
    k = min(k, rows.shape[1])
    picks, least = np.empty((len(rows), k), dtype=np.intp), np.empty((len(rows), k))
    flat, start = rows.reshape(-1), np.arange(len(rows)) * rows.shape[1]
    for i in range(k):
        picks[:, i] = rows.argmin(axis=1)
        least[:, i] = flat[start + picks[:, i]]
        flat[start + picks[:, i]] = np.inf
    return picks.reshape(values.shape[:-1] + (k,)), least.reshape(values.shape[:-1] + (k,))


def _minimize_forms(
    coef: np.ndarray,
    const: np.ndarray,
    features: np.ndarray,
    budget: PerturbationBudget,
    mode: str,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Exact minima of many lower-bound forms over the flip budget at once.

    ``coef`` (targets, forms, field, features) and ``const`` (targets, forms)
    hold each target's forms over ``features`` (targets, field, features), the
    input features of its receptive field. Returns the minima and the flips
    that realize them as four index arrays (target, form, field slot,
    feature), sorted in that order. It consumes ``coef``: the flip changes
    theta = coef * sign are written into it, and the picks masked there, so
    the minimizer holds no second array of its size.
    """
    t, v, f, m0 = coef.shape
    x = features.astype(np.float64)
    base = (coef.reshape(t, v, f * m0) @ x.reshape(t, f * m0, 1))[:, :, 0] + const
    # theta = coef * sign goes over coef, and sign = 1 - 2x (+1 where a flip adds
    # a feature, -1 where it deletes one) over x, which ``base`` has read
    sign = np.add(np.multiply(x, -2.0, out=x), 1.0, out=x)
    theta = restrict_to_mode(np.multiply(coef, sign[:, None], out=coef), features[:, None], mode)
    if budget.per_node == 0 or budget.total == 0:
        return base, tuple(np.zeros((4, 0), dtype=np.int64))
    # each field node's per_node most negative changes, ties toward the lower
    # feature, listed node by node; ranking that list by value, ties toward the
    # earlier entry, orders it by (theta, node, feature), so its total smallest
    # are the total most negative changes. A theta of +inf or nan can pick
    # otherwise than a stable sort would, but only where the coefficient is not
    # finite, which already makes ``base``, and so the minimum, not finite
    local, least = _smallest(theta, budget.per_node)
    cells = (local + m0 * np.arange(f)[:, None]).reshape(t * v, f * local.shape[3])
    ranked, change = _smallest(least.reshape(cells.shape), budget.total)
    top = np.take_along_axis(cells, ranked, axis=1)
    order = np.argsort(top, axis=1)
    top, change = np.take_along_axis(top, order, axis=1), np.take_along_axis(change, order, axis=1)
    # a running sum adds the chosen changes one by one in (node, feature) order
    gain = np.cumsum(np.where(change < 0, change, 0.0), axis=1)[:, -1]
    form, at = np.nonzero(change < 0)
    return base + gain.reshape(t, v), (*divmod(form, v), *divmod(top[form, at], m0))


def minimize_delta(
    elem: PolyNodeElement,
    features: np.ndarray,
    budget: PerturbationBudget,
    mode: str = "both",
) -> tuple[float, FlipSet]:
    """Exact minimum of the element's lower-bound form over the flip budget.

    On a ``label_difference_transform`` row it is the forward domain's
    margin, which ``certify_sound``'s dominates. Flipping cell (k, j) changes
    the form by theta = coef * sign; collecting the most negative changes, at
    most ``per_node`` per node and ``total`` overall, realizes the minimum.
    Ties break toward the lowest (node, feature) pair so the chosen flip set
    is deterministic. ``mode`` restricts candidate flips to feature additions
    (0 to 1) or deletions (1 to 0).
    """
    check_mode(mode)
    if elem.rows != 1:
        raise DataError("minimize_delta expects a single-row element")
    shape = (1, 1, len(elem.var_nodes), elem.num_features)
    value, (_, _, at, feature) = _minimize_forms(
        elem.lower_coef.reshape(shape).copy(), elem.lower_const.reshape(1, 1),
        np.asarray(features)[elem.var_nodes][None], budget, mode)
    return float(value[0, 0]), FlipSet(tuple(zip(elem.var_nodes[at].tolist(), feature.tolist())))


@dataclass(frozen=True)
class _ChunkMargins:
    """Every (target, rival) margin of one chunk of targets, and how each came about."""

    nodes: np.ndarray  # (targets,)
    labels: np.ndarray  # (targets,) the label each target defends
    rivals: np.ndarray  # (targets, labels - 1)
    margins: np.ndarray  # (targets, labels - 1): the larger of the two bounds below
    poly_min: np.ndarray  # the symbolic form's exact minimum
    box_gap: np.ndarray  # the output box's L[node, label] - U[node, rival]
    picks: tuple  # the symbolic minimizer's flips: (target, rival, field slot, feature) arrays
    fronts: np.ndarray  # (targets, field): each target's receptive field, ``PolyBatch.fronts``
    tape: tuple  # what ``back_substitute_backward`` reads, ``PolyBatch.tape``


@np.errstate(over="ignore", invalid="ignore")  # overflow raises DataError below instead
def _chunk_margins(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    mode: str,
    layer_bounds: list[IntervalElement],
    labels: np.ndarray,
    hops: list[tuple[np.ndarray, np.ndarray]],
) -> _ChunkMargins:
    """The certification kernel on one chunk, given its hops: back-substitute, minimize, compare.

    A symbolic minimum or box gap that is not finite raises ``DataError``.
    """
    chunk = hops[0][0][:, 0]
    own = labels[chunk]
    v = model.num_labels - 1
    rivals = np.arange(v) + (np.arange(v) >= own[:, None])
    # score[label] - score[rival]: +1 on the label's score and -1 on the rival's
    spec = np.zeros((len(chunk), v, model.num_labels))
    at = np.arange(len(chunk))[:, None]
    spec[at, np.arange(v), own[:, None]] = 1.0
    spec[at, np.arange(v), rivals] = -1.0
    batch = back_substitute_batch(model, graph, hops, layer_bounds, spec)
    poly_min, picks = _minimize_forms(batch.coef, batch.const, graph.features[batch.fronts],
                                      budget, mode)
    out_box = layer_bounds[-1]
    box_gap = out_box.lower[chunk, own][:, None] - out_box.upper[chunk[:, None], rivals]
    if not (np.isfinite(poly_min).all() and np.isfinite(box_gap).all()):
        raise DataError("margin bounds are not finite: the model overflows float64 on this graph")
    margins = np.where(box_gap > poly_min, box_gap, poly_min)
    return _ChunkMargins(chunk, own, rivals, margins, poly_min, box_gap, picks, batch.fronts,
                         batch.tape)


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
    x = graph.features[part.fronts][:, None]
    pick = np.zeros(part.rivals.shape + x.shape[2:], dtype=bool)
    pick[part.picks] = True
    point_grad = poly_grad[:, :, None, None] * (x + sign_matrix(x) * pick)
    back_substitute_backward(model, part.tape, layer_bounds, (point_grad, poly_grad),
                             param_grads, bound_grads)


def _chunks(
    model: GcnModel, graph: Graph, nodes: np.ndarray
) -> Iterator[tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]]:
    """The rows of ``nodes`` in chunks, widest receptive field first, each with its hops.

    Chunks are ``row_blocks`` of the sorted widths, each about
    ``_CHUNK_ELEMENTS`` entries of the widest tensor the kernel builds: per
    rival (the kernel's rows, at least one) and field node, the input width
    of the coefficients the minimizer consumes, or twice a layer's output
    width, for the coefficients entering its ReLU, which the tape keeps, and
    those leaving it. The hops come from one ``ragged_fields`` pass and stay
    ragged; only a chunk's rows are padded, to its first and widest row.
    """
    hops = ragged_fields(graph, nodes, model.num_layers)
    width = np.diff(hops[-1][1])
    order = np.argsort(-width, kind="stable")
    per_field_node = max(1, model.num_labels - 1) * max(
        [model.input_width] + [2 * layer.weight.shape[1] for layer in model.layers])
    for chunk in row_blocks(width[order], per_field_node, _CHUNK_ELEMENTS):
        yield order[chunk], padded_fields(hops, order[chunk])


def _run_kernel(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str,
    mode: str,
    nodes: Sequence[int] | None,
    labels: np.ndarray | None,
    keep: Callable[[list[IntervalElement], np.ndarray, _ChunkMargins], object],
) -> tuple[list[IntervalElement], np.ndarray, list]:
    """The interval bounds, the chunks' row order, and ``keep(bounds, rows, result)`` of each.

    ``nodes`` defaults to every node and ``labels`` to the predictions, both
    checked once; ``rows`` are the positions in ``nodes`` of a chunk's
    targets. The chunks run one after another on the calling thread; ``keep``
    runs as each one finishes, so a chunk's large arrays can go before the
    next starts.
    """
    check_mode(mode)
    n = graph.num_nodes
    nodes = check_index(np.arange(n) if nodes is None else nodes, "node index", 0, n, many=True)
    labels = predict(model, graph).labels if labels is None else check_index(
        labels, "label index", 0, model.num_labels, many=True)
    if np.shape(labels) != (n,):
        raise DataError("labels must hold one entry per node")
    order, parts = [np.zeros(0, dtype=np.int64)], []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises DataError instead
        layer_bounds = interval_layer_bounds(model, graph, budget, variant, mode=mode)
    for rows, hops in _chunks(model, graph, nodes):
        order.append(rows)
        parts.append(keep(layer_bounds, rows, _chunk_margins(model, graph, budget, mode,
                                                             layer_bounds, labels, hops)))
    return layer_bounds, np.concatenate(order), parts


def _chunk_certificate(rows: np.ndarray, part: _ChunkMargins) -> dict[str, np.ndarray]:
    """The certificate columns of one chunk by field name, its picks' rows as positions in the request."""
    row, rival, at, feature = part.picks
    picks = (rows[row], rival, part.fronts[row, at], feature)
    return dict(zip((f.name for f in fields(Certificate)), (
        part.nodes, part.labels, part.rivals, part.margins,
        *(pick.astype(np.int32) for pick in picks))))


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
    _, order, parts = _run_kernel(model, graph, budget, variant, mode, nodes, None,
                                  lambda _, rows, part: _chunk_certificate(rows, part))
    none, no_rivals = np.zeros(0, dtype=np.int64), np.zeros((0, model.num_labels - 1))
    empty = (none, none, no_rivals.astype(np.int64), no_rivals, *[none.astype(np.int32)] * 4)
    # the chunks ran widest field first: put rows and picks back in the requested
    # order, one column at a time, each chunk's piece going as it is joined
    take, whole = np.argsort(order), {}
    for name, first in zip((f.name for f in fields(Certificate)), empty):
        column = np.concatenate([first] + [part.pop(name) for part in parts])
        if name == "pick_row":  # the row columns come first, then the picks'
            take = np.argsort(column, kind="stable")
        whole[name] = column[take]
        del column
    return Certificate(**whole)


def rival_margins(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str,
    labels: np.ndarray,
    nodes: np.ndarray,
    mode: str = "both",
    slope: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]] | None]:
    """The (nodes x rivals) margins of ``labels``, one per graph node, and a loss's gradient.

    Where ``labels`` are the model's predictions, the margins equal
    ``certify_sound(...).rival_margins`` for the same nodes bit for bit,
    because both come from the same kernel. ``slope(nodes, margins)`` maps a
    chunk's nodes and their margins to a loss's gradient with respect to
    those margins, shaped like them: the loss must be a sum over nodes. The
    second value is then that loss's gradient with respect to every layer's
    (weight, bias), else None. It is one reverse-mode pass through the
    minimization and back-substitution, run on each chunk as the kernel
    finishes it so that no chunk's tape outlives it, and one through the
    interval bounds at the end.
    """
    param_grads = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in model.layers]
    n = graph.num_nodes  # each layer's bounds are (n, width) a side
    bound_grads = [(np.zeros((n, l.bias.size)), np.zeros((n, l.bias.size))) for l in model.layers]

    def keep(layer_bounds, _, part):
        if slope is not None:
            _chunk_margins_backward(model, graph, layer_bounds, part,
                                    slope(part.nodes, part.margins), param_grads, bound_grads)
        return part.margins

    layer_bounds, order, parts = _run_kernel(model, graph, budget, variant, mode, nodes, labels,
                                             keep)
    margins = np.concatenate([np.zeros((0, model.num_labels - 1))] + parts)[np.argsort(order)]
    if slope is None:
        return margins, None
    interval_layer_bounds_backward(model, graph, budget, variant, mode, layer_bounds,
                                   bound_grads, param_grads)
    return margins, param_grads


def _replay(model: GcnModel, graph: Graph, budget: PerturbationBudget, certificate: Certificate,
            rows: np.ndarray) -> dict[int, Counterexample]:
    """Verified counterexamples of the certificate's ``rows``, ascending and in range, by node.

    A row's candidates are the minimizer's flips against each rival of margin
    <= 0 in (margin, rival) order, empty ones skipped. Before any is scored, one
    over the budget raises ``AssertionError`` and one with a cell outside the
    features ``DataError``. The rows go through the kernel's ``_chunks``, one
    ``field_labels`` call each; a row's first candidate that changes its label
    wins, and the winners' flip sets are built at the end in one pass. Nodes
    come in row order, the last row of a repeated node winning.
    """
    cert, v, n = certificate, certificate.rivals.shape[1], graph.num_nodes
    # index products over the pick columns, int32 in a certificate, are formed in int64
    pick_row, pick_rival = cert.pick_row.astype(np.int64), cert.pick_rival.astype(np.int64)
    group = pick_row * v + pick_rival
    count = np.bincount(group, minlength=len(cert.nodes) * v).reshape(len(cert.nodes), v)
    margins = cert.rival_margins[rows]
    candidate = (margins <= 0.0) & (count[rows] > 0)
    order = np.lexsort((cert.rivals[rows], margins, ~candidate), axis=1)  # candidates first
    sizes = candidate.sum(axis=1)
    rank = np.full((len(cert.nodes), v), -1)  # the place of each candidate in its row's order
    rank[rows] = np.where(candidate, np.argsort(order, axis=1), -1)
    rank = rank[pick_row, pick_rival]
    keep = rank >= 0
    group, rank, pick_row = group[keep], rank[keep], pick_row[keep]
    nodes = check_index(cert.pick_node[keep], "flip node", 0, n, many=True)
    feats = check_index(cert.pick_feature[keep], "flip feature", 0, graph.num_features, many=True)
    p, cell = budget.per_node, group * n + nodes  # cells node by node: p + 1 of one lie p apart
    if (count.ravel()[group] > budget.total).any() or (cell[p:] == cell[: -p or None]).any():
        raise AssertionError("minimizer produced an out-of-budget flip set")
    rows, sizes, (first, flipped) = rows[sizes > 0], sizes[sizes > 0], np.full((2, len(count)), -1)
    start, stop = np.searchsorted(pick_row, rows), np.searchsorted(pick_row, rows + 1)
    for chunk, hops in _chunks(model, graph, cert.nodes[rows]):
        sets, span = sizes[chunk].max(), stop[chunk] - start[chunk]
        t = np.repeat(np.arange(len(chunk)), span)  # the chunk's picks, row by row
        at = np.arange(len(t)) + np.repeat(start[chunk] - np.cumsum(span) + span, span)
        # their (set, field slot, feature) cells; one outside its row's field cannot move its label
        cells = np.stack([t * sets + rank[at], field_slots(*hops[-1], t, nodes[at], n), feats[at]])
        labels = field_labels(model, graph, hops, sets, tuple(cells[:, cells[1] >= 0]))
        broken = (labels >= 0) & (labels != cert.labels[rows[chunk], None])
        first[rows[chunk]] = np.where(broken.any(axis=1), broken.argmax(axis=1), -1)
        flipped[rows[chunk]] = labels[np.arange(len(chunk)), first[rows[chunk]]]
    won, hit = np.flatnonzero(first >= 0), rank == first[pick_row]  # winners' picks, in order
    cuts = np.searchsorted(pick_row[hit], won).tolist() + [int(hit.sum())]
    flips = np.stack([nodes[hit], feats[hit]], axis=1).tolist()
    return {node: Counterexample(node, FlipSet(flips[lo:hi]), label) for node, label, lo, hi
            in zip(cert.nodes[won].tolist(), flipped[won].tolist(), cuts, cuts[1:])}


def generate_counterexample(model: GcnModel, graph: Graph, budget: PerturbationBudget,
                            certificate: Certificate, row: int) -> Counterexample | None:
    """``find_counterexamples``' replay of one row, None if it finds none; ``row`` is checked."""
    row = check_index(row, "certificate row", 0, len(certificate.nodes))
    return next(iter(_replay(model, graph, budget, certificate, np.array([row])).values()), None)


def find_counterexamples(model: GcnModel, graph: Graph, budget: PerturbationBudget,
                         certificate: Certificate) -> dict[int, Counterexample]:
    """Verified counterexamples keyed by node, replaying the non-certified rows only.

    This is the complete upper bound: a node with a counterexample is not
    robust, and every other node counts as possibly robust.
    """
    return _replay(model, graph, budget, certificate, np.flatnonzero(~certificate.certified))
