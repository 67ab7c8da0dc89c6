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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError
from .graph import GcnModel, Graph, forward, predict
from .intervals import interval_layer_bounds
from .perturbation import EMPTY_FLIPSET, FlipSet, PerturbationBudget, apply_flips, sign_matrix
from .polyhedra import PolyNodeElement, back_substitute, linear_poly

MODES = ("both", "add-only", "delete-only")


def _map_in_order(fn: Callable, items: Iterable, threads: int) -> list:
    """``[fn(item) for item in items]``, on a pool of ``threads`` threads when above one."""
    if threads == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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
    if mode not in MODES:
        raise DataError(f"unknown mode {mode!r}, expected one of {MODES}")
    if elem.rows != 1:
        raise DataError("minimize_delta expects a single-row element")
    m0 = elem.num_features
    x_sub = np.asarray(features)[elem.var_nodes]
    coef = elem.lower_coef[0].reshape(len(elem.var_nodes), m0)
    base = float(coef.ravel() @ x_sub.ravel().astype(np.float64) + elem.lower_const[0])
    theta = coef * sign_matrix(x_sub)
    if mode == "add-only":
        theta = np.where(x_sub == 0, theta, 0.0)
    elif mode == "delete-only":
        theta = np.where(x_sub == 1, theta, 0.0)
    if budget.per_node == 0 or budget.total == 0:
        return base, EMPTY_FLIPSET

    k_local = min(budget.per_node, m0)
    feature_order = np.arange(m0)
    pool: list[tuple[float, int, int]] = []
    for row, node in enumerate(elem.var_nodes):
        order = np.lexsort((feature_order, theta[row]))[:k_local]
        pool.extend(
            (float(theta[row, j]), int(node), int(j)) for j in order if theta[row, j] < 0
        )
    pool.sort()
    chosen = sorted(pool[: budget.total], key=lambda c: (c[1], c[2]))
    min_value = base + sum(value for value, _, _ in chosen)
    flips = FlipSet(tuple((node, feat) for _, node, feat in chosen))
    return min_value, flips


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
    unstable_lower_slope: float = 0.0,
) -> list[NodeJudgment]:
    """Judgments for the requested nodes (all by default); certified => robust.

    ``labels`` overrides the labels to defend (defaults to the model's own
    predictions); robust training uses this to target ground-truth labels.
    """
    layer_bounds = interval_layer_bounds(model, graph, budget, variant)
    if labels is None:
        labels = predict(model, graph).labels
    if nodes is None:
        nodes = range(graph.num_nodes)
    num_labels = model.num_labels
    out_box = layer_bounds[-1]

    def judge(node: int) -> NodeJudgment:
        elem = back_substitute(
            model, graph, node, layer_bounds, unstable_lower_slope=unstable_lower_slope
        )
        label = int(labels[node])
        rival_margins: dict[int, float] = {}
        rival_flips: dict[int, FlipSet] = {}
        for rival in range(num_labels):
            if rival == label:
                continue
            row = label_difference_transform(elem, label, rival)
            poly_min, rival_flips[rival] = minimize_delta(row, graph.features, budget, mode)
            box_gap = float(out_box.lower[node, label] - out_box.upper[node, rival])
            rival_margins[rival] = max(poly_min, box_gap)
        margin = min(rival_margins.values()) if rival_margins else float("inf")
        return NodeJudgment(
            node=node,
            label=label,
            margin=margin,
            certified=margin > 0.0,
            rival_margins=rival_margins,
            rival_flips=rival_flips,
        )

    return _map_in_order(judge, nodes, threads)


def generate_counterexample(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    judgment: NodeJudgment,
) -> Counterexample | None:
    """Replay the minimizer's flips for each non-positive rival margin.

    Rivals are tried most promising first. Candidates are only reported after
    a concrete forward pass confirms the label change; certified nodes are
    skipped outright (they cannot have counterexamples).
    """
    if judgment.certified:
        return None
    candidates = sorted(
        (margin, rival)
        for rival, margin in judgment.rival_margins.items()
        if margin <= 0.0
    )
    for _, rival in candidates:
        flips = judgment.rival_flips[rival]
        if len(flips) == 0:
            continue
        if not flips.within(budget):
            raise AssertionError("minimizer produced an out-of-budget flip set")
        perturbed = apply_flips(graph.features, flips)
        scores = forward(model, graph.norm_adj, perturbed)
        new_label = int(np.argmax(scores[judgment.node]))
        if new_label != judgment.label:
            return Counterexample(judgment.node, flips, new_label)
    return None


def find_counterexamples(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    judgments: Sequence[NodeJudgment],
    threads: int = 1,
) -> dict[int, Counterexample]:
    """Verified counterexamples keyed by node, searching non-certified nodes only."""
    open_nodes = [j for j in judgments if not j.certified]
    found = _map_in_order(
        lambda j: generate_counterexample(model, graph, budget, j), open_nodes, threads
    )
    return {ce.node: ce for ce in found if ce is not None}


def certify_complete(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    variant: str = "topk",
    *,
    judgments: Sequence[NodeJudgment] | None = None,
    mode: str = "both",
    threads: int = 1,
    unstable_lower_slope: float = 0.0,
) -> np.ndarray:
    """Upper-bound vector: 0 where a verified counterexample exists, else 1."""
    if judgments is None:
        judgments = certify_sound(
            model, graph, budget, variant,
            mode=mode, threads=threads, unstable_lower_slope=unstable_lower_slope,
        )
    counterexamples = find_counterexamples(model, graph, budget, judgments, threads)
    upper = np.ones(graph.num_nodes)
    for node in counterexamples:
        upper[node] = 0.0
    return upper
