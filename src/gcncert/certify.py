"""Sound certification judgments and verified counterexamples.

For each node, the score gap to every rival label is bounded from below by a
single affine form over input features; minimizing that form over the flip
budget is exact (a linear objective under per-node and global cardinality
caps yields to greedy selection). Each rival margin is the better of that
exact minimum and the output interval box's gap L[i, label] - U[i, rival]:
both are sound, so their maximum is too, and the judgment never falls below
the interval certifier (the symbolic ReLU lower relaxation can undershoot the
interval floor of 0). A positive margin certifies the node. For non-certified
nodes, the minimizing flip set is replayed through the concrete forward pass;
only flips that demonstrably change the prediction are reported, which makes
the resulting upper bound complete.

Replay is local: an L-layer GCN's score for node i depends only on the
features of the nodes within L hops, so ``generate_counterexample`` runs the
forward pass on that receptive field alone, with the full graph's Ã entries,
one batch for all of a node's candidate flip sets. Local sums round
differently from the whole-graph product, so a candidate whose local top two
scores lie within 1e-9 (relative) is settled by the whole-graph ``forward``.

``certify_sound`` works in chunks of target nodes, sized by a fixed element
budget: one ``back_substitute_batch`` call per chunk, the lower form of
score[label] - score[rival] for every (target, rival) pair sliced out of it as
lower[label] - upper[rival], and one batched greedy minimization of all those
rows. ``minimize_delta`` and ``label_difference_transform`` are the one-row
forms of the same steps.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .graph import GcnModel, Graph, forward, predict
from .intervals import interval_layer_bounds
from .perturbation import (
    FlipSet,
    PerturbationBudget,
    apply_flips,
    check_mode,
    restrict_to_mode,
    sign_matrix,
)
from .polyhedra import PolyNodeElement, back_substitute_batch, linear_poly

# local top-two score gaps within this fraction of the top score are re-checked
# with the whole-graph forward pass
_TIE_TOLERANCE = 1e-9

# coefficient entries per chunk of certify_sound targets at the widest
# possible receptive field: keeps a chunk's tensors at a few MB
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class NodeJudgment:
    """Certification outcome for one node: margin > 0 means certified robust.

    ``rival_margins[r]`` is the larger of the symbolic form's exact minimum
    and the output interval box's bound on score[label] - score[r];
    ``rival_flips[r]`` is always the symbolic minimizer's flip set.
    """

    node: int
    label: int
    margin: float
    certified: bool
    rival_margins: dict[int, float]
    rival_flips: dict[int, FlipSet]


@dataclass(frozen=True)
class Counterexample:
    """A budget-respecting flip set verified to change the node's prediction."""

    node: int
    flips: FlipSet
    flipped_label: int


def label_difference_transform(
    elem: PolyNodeElement, original_label: int, other_label: int
) -> PolyNodeElement:
    """Single-row element bounding score[original] - score[other]."""
    if original_label == other_label:
        raise DataError("label difference requires two distinct labels")
    num_labels = elem.rows
    if not (0 <= original_label < num_labels and 0 <= other_label < num_labels):
        raise DataError("label index out of range")
    delta = np.zeros((num_labels, 1))
    delta[original_label, 0] = 1.0
    delta[other_label, 0] = -1.0
    return linear_poly(elem, delta, np.zeros(1))


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


def _flip_sets(pick: np.ndarray, fronts: np.ndarray) -> list[list[FlipSet]]:
    """FlipSets of a (targets, forms, field, features) mask over each target's field."""
    return [
        [FlipSet(tuple(zip(front[k].tolist(), j.tolist()))) for k, j in map(np.nonzero, rows)]
        for front, rows in zip(fronts, pick)
    ]


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
    value, pick = _minimize_forms(
        elem.lower_coef.reshape(shape),
        elem.lower_const.reshape(1, 1),
        np.asarray(features)[elem.var_nodes][None],
        budget,
        mode,
    )
    return float(value[0, 0]), _flip_sets(pick, elem.var_nodes[None])[0][0]


def _target_elements(model: GcnModel, graph: Graph) -> int:
    """Coefficient entries one target can need: 4 per label, layer width and field node."""
    cols, weights = graph.neighbors
    field = np.ones(graph.num_nodes)
    for _ in model.layers:  # one more hop reaches at most the neighbours' fields
        field = np.minimum(np.where(weights > 0, field[cols], 0.0).sum(axis=1), len(field))
    width = max([model.input_width] + [layer.weight.shape[1] for layer in model.layers])
    return int(4 * model.num_labels * width * field.max())


def certify_sound(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str = "topk",
    *,
    labels: np.ndarray | None = None,
    nodes: Sequence[int] | None = None,
    mode: str = "both",
    threads: int = 1,
) -> list[NodeJudgment]:
    """Judgments for the requested nodes (all by default), in order; certified => robust.

    ``labels`` overrides the labels to defend (defaults to the model's own
    predictions); robust training uses this to target ground-truth labels.
    ``threads`` spreads the chunks of this certification kernel over a pool;
    it never changes the chunks. Counterexample replay always runs serially.
    """
    check_mode(mode)
    layer_bounds = interval_layer_bounds(model, graph, budget, variant, mode=mode)
    if labels is None:
        labels = predict(model, graph).labels
    labels = np.asarray(labels)
    nodes = np.arange(graph.num_nodes) if nodes is None else np.asarray(nodes, dtype=np.int64)
    num_labels = model.num_labels
    out_box = layer_bounds[-1]

    def judge(chunk: np.ndarray) -> list[NodeJudgment]:
        batch = back_substitute_batch(model, graph, chunk, layer_bounds)
        own = labels[chunk]
        if ((own < 0) | (own >= num_labels)).any():
            raise DataError("label index out of range")
        rivals = np.arange(num_labels - 1) + (np.arange(num_labels - 1) >= own[:, None])
        at = np.arange(len(chunk))[:, None]
        # the lower form of score[label] - score[rival] is lower[label] - upper[rival]
        poly_min, pick = _minimize_forms(
            batch.lower_coef[at, own[:, None]] - batch.upper_coef[at, rivals],
            batch.lower_const[at, own[:, None]] - batch.upper_const[at, rivals],
            graph.features[batch.fronts],
            budget,
            mode,
        )
        box_gap = out_box.lower[chunk, own][:, None] - out_box.upper[chunk[:, None], rivals]
        margins = np.where(box_gap > poly_min, box_gap, poly_min)
        judgments = []
        for node, label, rival_ids, row_margins, row_flips in zip(
            chunk.tolist(), own.tolist(), rivals.tolist(), margins.tolist(),
            _flip_sets(pick, batch.fronts),
        ):
            margin = min(row_margins, default=float("inf"))
            judgments.append(NodeJudgment(
                node=node,
                label=label,
                margin=margin,
                certified=margin > 0.0,
                rival_margins=dict(zip(rival_ids, row_margins)),
                rival_flips=dict(zip(rival_ids, row_flips)),
            ))
        return judgments

    size = max(1, _CHUNK_ELEMENTS // _target_elements(model, graph))
    chunks = [nodes[start : start + size] for start in range(0, len(nodes), size)]
    if threads == 1:
        parts = [judge(chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(judge, chunks))
    return [j for part in parts for j in part]


def _receptive_field(graph: Graph, node: int, depth: int) -> list[np.ndarray]:
    """Sorted hop sets H_0 = {node}, ..., H_depth; H_{l+1} holds the Ã-neighbours of H_l."""
    cols, weights = graph.neighbors
    hops = [np.array([node])]
    for _ in range(depth):
        hops.append(np.unique(cols[hops[-1]][weights[hops[-1]] > 0]))
    return hops


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
    judgment: NodeJudgment,
) -> Counterexample | None:
    """Replay the minimizer's flips for each non-positive rival margin.

    Rivals are tried most promising first, and the first flip set that
    changes the label wins. All candidates go through one forward pass over
    the node's receptive field (flips outside it cannot move the node's
    scores and are ignored); a candidate whose local top-two score gap is at
    most 1e-9 * max(1, |top score|) is settled by the whole-graph ``forward``
    instead, so the verdict never rests on rounding. Certified nodes are
    skipped outright (they cannot have counterexamples). Every candidate is
    checked first: one over the budget raises ``AssertionError``, one with a
    cell outside the feature matrix raises ``DataError``.
    """
    if judgment.certified:
        return None
    candidates = []
    for _, rival in sorted(
        (margin, rival) for rival, margin in judgment.rival_margins.items() if margin <= 0.0
    ):
        flips = judgment.rival_flips[rival]
        if len(flips) == 0:
            continue
        if not flips.within(budget):
            raise AssertionError("minimizer produced an out-of-budget flip set")
        flips.require_inside(graph.features.shape)
        candidates.append(flips)
    if not candidates:
        return None
    node = judgment.node
    hops = _receptive_field(graph, node, model.num_layers)
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
        if new_label != judgment.label:
            return Counterexample(node, flips, new_label)
    return None


def find_counterexamples(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    judgments: Sequence[NodeJudgment],
) -> dict[int, Counterexample]:
    """Verified counterexamples keyed by node, searching non-certified nodes only.

    This is the complete upper bound: a node with a counterexample is not
    robust, and every other node counts as possibly robust.
    """
    found = (generate_counterexample(model, graph, budget, j) for j in judgments if not j.certified)
    return {ce.node: ce for ce in found if ce is not None}

