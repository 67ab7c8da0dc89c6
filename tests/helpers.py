"""Shared instance generators and independent brute-force oracles."""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np

import gcncert as gc
from gcncert import certify, intervals
from gcncert.perturbation import restrict_to_mode, sign_matrix


def graph_from_dense(adjacency, features) -> gc.Graph:
    """The graph of a symmetric 0/1 adjacency matrix: its upper triangle as the edge list."""
    adjacency = np.asarray(adjacency)
    assert np.isin(adjacency, (0, 1)).all() and (adjacency == adjacency.T).all()
    return gc.Graph(np.argwhere(np.triu(adjacency)), features)


def dense_adjacency(graph: gc.Graph) -> np.ndarray:
    """The symmetric 0/1 adjacency matrix of the graph's edges, self-loops on the diagonal."""
    adjacency = np.zeros((graph.num_nodes,) * 2, dtype=np.int64)
    i, j = graph.edges.T
    adjacency[i, j] = adjacency[j, i] = 1
    return adjacency


def dense_norm_adj(graph: gc.Graph) -> np.ndarray:
    """Dense D^{-1/2} (A + I) D^{-1/2}, the reference for the graph's neighbour table."""
    a_hat = dense_adjacency(graph).astype(np.float64) + np.eye(graph.num_nodes)
    inv_sqrt_deg = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


def densify(table) -> np.ndarray:
    """The dense matrix a neighbour table lists, rebuilt by scattering its entries."""
    n = len(table.starts) - 1
    dense = np.zeros((n, n))
    np.add.at(dense, (np.repeat(np.arange(n), np.diff(table.starts)), table.cols), table.weights)
    return dense


def padded_table(table) -> tuple[np.ndarray, np.ndarray]:
    """A table's rows as (n, widest row) columns and weights, padded at the end with 0."""
    counts = np.diff(table.starts)
    cols = np.zeros((len(counts), counts.max()), dtype=np.int64)
    weights = np.zeros(cols.shape)
    for row, (start, count) in enumerate(zip(table.starts[:-1], counts)):
        cols[row, :count] = table.cols[start : start + count]
        weights[row, :count] = table.weights[start : start + count]
    return cols, weights


class DenseNormAdj:
    """Ã as the dense matrix ``dense_norm_adj`` behind the neighbour table's interface.

    Products are dense matrix products and the blocks between hops are
    fancy-indexed, the arithmetic of a dense Ã; ``cols``, ``weights`` and
    ``starts`` are the graph's table, for the hops and the field-local scores,
    and ``padded_rows`` gives every row in one block, padded to the widest. As
    in the table's blocks, padded rows and columns read 0.
    """

    def __init__(self, graph: gc.Graph):
        self.matrix = dense_norm_adj(graph)
        self.shape = self.matrix.shape
        table = graph.norm_adj
        self.cols, self.weights, self.starts = table.cols, table.weights, table.starts
        self.table = padded_table(table)

    def padded_rows(self, per_entry, elements):
        yield (slice(None), *self.table)

    def __array__(self, dtype=None, copy=None):
        return self.matrix

    def __matmul__(self, h):
        return self.matrix @ np.asarray(h, dtype=np.float64)

    def between(self, front, next_front):
        (rows, live), (cols, next_live) = front, next_front
        return np.where(live[:, :, None] & next_live[:, None, :],
                        self.matrix[rows[:, :, None], cols[:, None, :]], 0.0)


def dense_graph(graph: gc.Graph) -> gc.Graph:
    """A copy of ``graph`` whose Ã is a ``DenseNormAdj``: every library call on it runs dense."""
    copy = gc.Graph(graph.edges, graph.features)
    copy.__dict__["norm_adj"] = DenseNormAdj(graph)  # fills the cached property
    return copy


def two_node_loop() -> tuple[gc.Graph, gc.GcnModel]:
    """Two connected nodes, four binary features, a hand-checkable 2-layer classifier.

    Node 0's scores are (1.5, 2.5); with one allowed flip the score gap
    o1 - o0 reduces to 0.5 * (x[0,2] + x[1,2]), so interval analysis misses
    the certificate (margin -0.5) while the symbolic one lands it (+0.5).
    """
    graph = gc.Graph([[0, 1]], np.array([[1, 0, 1, 1], [1, 0, 1, 0]]))
    model = gc.GcnModel((
        gc.GcnLayer(np.array([[0.0, 1], [0, 0], [1, 0], [0, 1]]), np.zeros(2)),
        gc.GcnLayer(np.array([[0.0, 1], [1, 1]]), np.zeros(2)),
    ))
    return graph, model


def undershoot_example() -> tuple[gc.Graph, gc.GcnModel, gc.PerturbationBudget]:
    """Single isolated node where the symbolic certifier is looser than intervals.

    Pre-activation spans [-0.5, 1.0] over the one allowed flip, a mixed ReLU
    with the positive side dominating, so the area-minimal lower bound keeps
    the raw pre-activation and admits -0.5 where the interval floor is 0.
    The node is truly robust: interval margin +0.1, symbolic margin -0.4.
    """
    graph = gc.Graph([], np.array([[0]]))
    model = gc.GcnModel((
        gc.GcnLayer(np.array([[1.5]]), np.array([-0.5])),
        gc.GcnLayer(np.array([[1.0, 0.0]]), np.array([0.1, 0.0])),
    ))
    return graph, model, gc.PerturbationBudget(per_node=1, total=1)


def flip_moves_label_example() -> tuple[gc.Graph, gc.GcnModel, gc.PerturbationBudget]:
    """One node, one linear layer: decision margin 0.1, one flip swings it by -0.5."""
    graph = gc.Graph([], np.array([[1]]))
    model = gc.GcnModel((
        gc.GcnLayer(np.array([[0.5, 0.0]]), np.array([0.0, 0.4])),
    ))
    return graph, model, gc.PerturbationBudget(per_node=1, total=1)


def raw_instance(rng, num_layers: int = 2):
    """Random graph, features, budget, and uniform random weights."""
    n = int(rng.integers(2, 7))
    m0 = int(rng.integers(2, 6))
    hidden = int(rng.integers(2, 5))
    labels = int(rng.integers(2, 4))
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                adj[i, j] = adj[j, i] = 1
    feats = (rng.random((n, m0)) < 0.5).astype(int)
    widths = [m0] + [hidden] * (num_layers - 1) + [labels]
    layers = tuple(
        gc.GcnLayer(
            rng.uniform(-1, 1, (widths[k], widths[k + 1])),
            rng.uniform(-0.5, 0.5, widths[k + 1]),
        )
        for k in range(num_layers)
    )
    graph = graph_from_dense(adj, features=feats)
    budget = gc.PerturbationBudget(
        per_node=int(rng.integers(1, 3)), total=int(rng.integers(1, 4))
    )
    return graph, gc.GcnModel(layers), budget


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def trained_instance(rng, steps: int = 30, lr: float = 0.3):
    """Random instance whose weights are briefly fit to a random labeling.

    Mirrors certifying a trained classifier: margins become structured
    instead of arbitrary, and non-robust nodes with real counterexamples
    remain common at these budgets.
    """
    graph, model, budget = raw_instance(rng)
    labels = rng.integers(0, model.num_labels, graph.num_nodes)
    onehot = np.eye(model.num_labels)[labels]
    norm_adj = dense_norm_adj(graph)
    x = graph.features.astype(float)
    (w1, b1), (w2, b2) = [(l.weight.copy(), l.bias.copy()) for l in model.layers]
    for _ in range(steps):
        h1 = (norm_adj @ x) @ w1 + b1
        r = np.maximum(h1, 0.0)
        out = (norm_adj @ r) @ w2 + b2
        dout = (_softmax(out) - onehot) / graph.num_nodes
        dw2 = (norm_adj @ r).T @ dout
        db2 = dout.sum(axis=0)
        dh1 = ((norm_adj.T @ dout) @ w2.T) * (h1 > 0)
        dw1 = (norm_adj @ x).T @ dh1
        db1 = dh1.sum(axis=0)
        w1 -= lr * dw1
        b1 -= lr * db1
        w2 -= lr * dw2
        b2 -= lr * db2
    return graph, gc.GcnModel((gc.GcnLayer(w1, b1), gc.GcnLayer(w2, b2))), budget


def planted_community_graph(rng, n: int = 20, m0: int = 6):
    """Two feature-signature communities with homophilous edges, plus labels."""
    labels = np.array([0, 1] * (n // 2))
    rng.shuffle(labels)
    signature = {0: (0, 1, 2), 1: (3, 4, 5)}
    feats = np.zeros((n, m0), dtype=int)
    for i in range(n):
        for j in range(m0):
            feats[i, j] = rng.random() < (0.7 if j in signature[labels[i]] else 0.2)
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < (0.35 if labels[i] == labels[j] else 0.08):
                adj[i, j] = adj[j, i] = 1
    return graph_from_dense(adj, features=feats), labels


def iter_flip_combos(n: int, m: int, budget: gc.PerturbationBudget):
    """Independent enumeration of admissible flip tuples (including the empty one)."""
    cells = [(i, j) for i in range(n) for j in range(m)]
    yield ()
    for size in range(1, min(budget.total, len(cells)) + 1):
        for combo in itertools.combinations(cells, size):
            counts = Counter(i for i, _ in combo)
            if max(counts.values()) <= budget.per_node:
                yield combo


def mode_allows(features: np.ndarray, combo, mode: str) -> bool:
    """Whether every cell of ``combo`` flips in a direction ``mode`` permits."""
    if mode == "both":
        return True
    allowed = 0 if mode == "add-only" else 1
    return all(features[i, j] == allowed for i, j in combo)


def flipped(features: np.ndarray, combo) -> np.ndarray:
    out = features.copy()
    for i, j in combo:
        out[i, j] = 1 - out[i, j]
    return out


def brute_force_robust_nodes(model, graph, budget, mode="both") -> np.ndarray:
    """Ground-truth robustness flags by replaying every admissible flip tuple."""
    norm_adj = dense_norm_adj(graph)
    base = np.argmax(gc.forward(model, norm_adj, graph.features), axis=1)
    robust = np.ones(graph.num_nodes, dtype=bool)
    for combo in iter_flip_combos(graph.num_nodes, graph.num_features, budget):
        if not mode_allows(graph.features, combo, mode):
            continue
        labels = np.argmax(gc.forward(model, norm_adj, flipped(graph.features, combo)), axis=1)
        robust &= labels == base
    return robust


def dense_counterexample(model, graph, budget, certificate, row):
    """Counterexample replay on the whole graph: one dense forward pass per candidate.

    The row's rivals with margin <= 0 are tried in (margin, rival) order; the
    first non-empty flip set whose whole-graph argmax differs from the label
    wins.
    """
    if certificate.certified[row]:
        return None
    node, label = int(certificate.nodes[row]), int(certificate.labels[row])
    margins = certificate.rival_margins[row].tolist()
    rivals = certificate.rivals[row].tolist()
    order = sorted((m, r, col) for col, (m, r) in enumerate(zip(margins, rivals)) if m <= 0.0)
    for _, _, col in order:
        flips = certificate.flip_set(row, col)
        if len(flips) == 0:
            continue
        assert flips.within(budget)
        scores = gc.forward(model, dense_norm_adj(graph), gc.apply_flips(graph.features, flips))
        new_label = int(np.argmax(scores[node]))
        if new_label != label:
            return gc.Counterexample(node, flips, new_label)
    return None


def brute_force_form_minimum(elem, features, budget, mode="both") -> float:
    """Minimum of an element's lower-bound form over the flip budget, by enumeration."""
    sub = features[elem.var_nodes]
    n_sub, m = sub.shape
    best = np.inf
    for combo in iter_flip_combos(n_sub, m, budget):
        if not mode_allows(sub, combo, mode):
            continue
        value = elem.lower_coef[0] @ flipped(sub, combo).ravel().astype(float)
        best = min(best, value + elem.lower_const[0])
    return float(best)


def reference_robust_loss(margins, labels, kind: str) -> float:
    """Mean robust loss over the rows of a (nodes x rivals) margin matrix, one node at a time.

    Row i belongs to node i. A labeled node scores -log sigmoid(margin) summed
    over its rivals under "bce", else the hinge at log(90/10); an unlabeled
    node (label -1) always scores the hinge at log(60/40).
    """
    total = 0.0
    for label, row in zip(labels, margins):
        if label >= 0 and kind == "bce":
            total += float(np.logaddexp(0.0, -row).sum())
        else:
            threshold = math.log(90 / 10) if label >= 0 else math.log(60 / 40)
            total += float(np.maximum(threshold - row, 0.0).sum())
    return total / len(margins)


def central_fd_gradient(loss, model, step: float = 1e-4) -> list[tuple[np.ndarray, np.ndarray]]:
    """Central finite differences of ``loss(model)``, per layer (weight, bias).

    Two loss evaluations per parameter, each moving that one entry by
    ``step`` up or down: the reference for the exact training gradient.
    """
    grads = []
    for l, layer in enumerate(model.layers):
        pair = []
        for name in ("weight", "bias"):
            values = getattr(layer, name)
            grad = np.zeros_like(values)
            for idx in np.ndindex(values.shape):
                ends = []
                for shift in (step, -step):
                    moved = values.copy()
                    moved[idx] += shift
                    layers = list(model.layers)
                    layers[l] = dataclasses.replace(layer, **{name: moved})
                    ends.append(loss(gc.GcnModel(tuple(layers))))
                grad[idx] = (ends[0] - ends[1]) / (2.0 * step)
            pair.append(grad)
        grads.append(tuple(pair))
    return grads


def chunks_of(monkeypatch, model, graph, size):
    """Make the kernel's first, widest chunk hold ``size`` targets; returns the chunk lengths seen.

    ``size`` 1 puts every target in a chunk of its own and None all targets
    in one chunk. Otherwise later chunks, whose fields are narrower, may hold
    more targets than the first.
    """
    hops = gc.graph.receptive_fields(graph, np.arange(graph.num_nodes), model.num_layers)
    widest = max([model.input_width] + [2 * layer.weight.shape[1] for layer in model.layers])
    per_target = max(1, model.num_labels - 1) * widest * int(hops[-1][1].sum(axis=1).max())
    elements = 1 << 62 if size is None else 1 if size == 1 else size * per_target
    monkeypatch.setattr(gc.certify, "_CHUNK_ELEMENTS", elements)
    seen = []
    kernel = gc.certify.back_substitute_batch

    def spy(model, graph, hops, *args, **kwargs):
        seen.append(len(hops[0][0]))
        return kernel(model, graph, hops, *args, **kwargs)

    monkeypatch.setattr(gc.certify, "back_substitute_batch", spy)
    return seen


def reference_flip_deviations(model, graph, budget, variant, mode):
    """The library's first-layer deviations computed over the whole graph at once.

    Returns (dev_min, dev_max, (cand, scaled_neg, scaled_pos)): the (n, m0,
    m1) flip candidates and the (n, widest · k_local, m1) scaled pools every
    row draws from, built in one piece, every row padded to the graph's
    widest, where the library streams row blocks. Each row's picks are added
    one by one in rank order.
    """
    n, m0 = graph.features.shape
    m1 = model.layers[0].weight.shape[1]
    cand = gc.sign_matrix(graph.features)[:, :, None] * model.layers[0].weight[None, :, :]
    cand = restrict_to_mode(cand, graph.features[:, :, None], mode)
    cols, weights = padded_table(graph.norm_adj)
    if variant == "topk":
        k_local = min(budget.per_node, m0)
        ordered = np.sort(cand, axis=1)
        neg = np.minimum(ordered[:, :k_local, :], 0.0)
        pos = np.maximum(ordered[:, -k_local:, :], 0.0)
        scaled_neg = (weights[:, :, None, None] * neg[cols]).reshape(n, -1, m1)
        scaled_pos = (weights[:, :, None, None] * pos[cols]).reshape(n, -1, m1)
        k_global = min(budget.total, scaled_neg.shape[1])
        dev_min = np.cumsum(np.sort(scaled_neg, axis=1)[:, :k_global, :], axis=1)[:, -1]
        dev_max = np.cumsum(np.sort(scaled_pos, axis=1)[:, -k_global:, :], axis=1)[:, -1]
    else:
        best_neg = np.minimum(cand.min(axis=1), 0.0)
        best_pos = np.maximum(cand.max(axis=1), 0.0)
        scaled_neg = weights[:, :, None] * best_neg[cols]
        scaled_pos = weights[:, :, None] * best_pos[cols]
        dev_min = budget.total * scaled_neg.min(axis=1)
        dev_max = budget.total * scaled_pos.max(axis=1)
    return dev_min, dev_max, (cand, scaled_neg, scaled_pos)


def reference_flip_deviations_backward(model, graph, budget, variant, mode, min_grad, max_grad):
    """Weight gradient of sum(min_grad * dev_min + max_grad * dev_max) over the whole pools."""
    n, m0 = graph.features.shape
    cand, scaled_neg, scaled_pos = reference_flip_deviations(model, graph, budget, variant,
                                                             mode)[2]
    m1 = cand.shape[2]
    cols, weights = padded_table(graph.norm_adj)
    if variant == "topk":
        k_local = min(budget.per_node, m0)
        k_global = min(budget.total, scaled_neg.shape[1])
        order = np.argsort(cand, axis=1)
        # stable, as the blocked pass ranks: tied candidates keep their order
        taken_min = np.argsort(scaled_neg, axis=1, kind="stable")[:, :k_global]
        taken_max = np.argsort(scaled_pos, axis=1, kind="stable")[:, -k_global:]
        sides = ((order[:, :k_local], taken_min, min_grad, np.less),
                 (order[:, -k_local:], taken_max, max_grad, np.greater))
    else:
        sides = ((cand.argmin(axis=1)[:, None], scaled_neg.argmin(axis=1), min_grad, np.less),
                 (cand.argmax(axis=1)[:, None], scaled_pos.argmax(axis=1), max_grad, np.greater))
    cand_grad = np.zeros_like(cand)
    for ranks, taken, grad, beyond_zero in sides:
        ranked_grad = np.zeros((n,) + ranks.shape[1:])
        if variant == "topk":
            scaled_grad = np.zeros((n, cols.shape[1] * ranks.shape[1], m1))
            np.put_along_axis(scaled_grad, taken, grad[:, None, :], axis=1)
            np.add.at(ranked_grad, cols,
                      weights[:, :, None, None] * scaled_grad.reshape(n, cols.shape[1], -1, m1))
        else:
            np.add.at(ranked_grad[:, 0], (np.take_along_axis(cols, taken, axis=1), np.arange(m1)),
                      budget.total * np.take_along_axis(weights, taken, axis=1) * grad)
        ranked_grad *= beyond_zero(np.take_along_axis(cand, ranks, axis=1), 0.0)
        side_grad = np.zeros_like(cand)
        np.put_along_axis(side_grad, ranks, ranked_grad, axis=1)
        cand_grad += side_grad
    return np.einsum("kfj,kf->fj", cand_grad, gc.sign_matrix(graph.features))


def reference_receptive_fields(graph, nodes, depth):
    """The library's (front, live) hops of ``nodes``, each hop computed for all rows at once.

    Each row gathers the padded table rows of its last hop's live nodes, then
    drops the repeats of two sorts.
    """
    cols, weights = padded_table(graph.norm_adj)
    front = np.asarray(nodes, dtype=np.int64).reshape(-1, 1)
    hops = [(front, np.ones(front.shape, dtype=bool))]
    sentinel = graph.num_nodes
    for _ in range(depth):
        front, live = hops[-1]
        reach = np.where((weights[front] > 0) & live[:, :, None], cols[front], sentinel)
        reach = np.sort(reach.reshape(len(front), front.shape[1] * cols.shape[1]), axis=1)
        reach[:, 1:][reach[:, 1:] == reach[:, :-1]] = sentinel
        reach = np.sort(reach, axis=1)
        counts = (reach < sentinel).sum(axis=1)
        live = np.arange(counts.max(initial=0)) < counts[:, None]
        hops.append((np.where(live, reach[:, : live.shape[1]], 0), live))
    return hops


def reference_pullback(model, graph, budget, variant, labels, nodes, mode, margin_grad):
    """The (weight, bias) gradients of ``sum(margin_grad * margins)`` by a whole-kernel pullback.

    The kernel runs to its end and keeps every chunk, tape and all; the
    reverse pass then walks the chunks in the order they ran, with each one's
    rows of ``margin_grad`` (nodes x rivals, in request order).
    """
    layer_bounds, _, parts = certify._run_kernel(model, graph, budget, variant, mode, nodes,
                                                 labels, lambda _, rows, part: (rows, part))
    param_grads = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in model.layers]
    bound_grads = [(np.zeros_like(b.lower), np.zeros_like(b.upper)) for b in layer_bounds]
    for rows, part in parts:
        certify._chunk_margins_backward(model, graph, layer_bounds, part, margin_grad[rows],
                                        param_grads, bound_grads)
    intervals.interval_layer_bounds_backward(model, graph, budget, variant, mode, layer_bounds,
                                             bound_grads, param_grads)
    return param_grads


def reference_table_product(table, h):
    """Ã·h by a slot loop over all rows at once, each padded to the widest row: unblocked."""
    h = np.asarray(h, dtype=np.float64)
    cols, weights = padded_table(table)
    out = weights[:, :1] * h[..., cols[:, 0], :]
    for slot in range(1, cols.shape[1]):
        out += weights[:, slot, None] * h[..., cols[:, slot], :]
    return out


def reference_minimize_forms(coef, const, features, budget, mode):
    """``certify._minimize_forms`` as two full stable sorts: the per-node and the global ranking."""
    t, v, f, m0 = coef.shape
    x = features.astype(np.float64)
    base = (coef.reshape(t, v, f * m0) @ x.reshape(t, f * m0, 1))[:, :, 0] + const
    theta = restrict_to_mode(coef * sign_matrix(features)[:, None], features[:, None], mode)
    if budget.per_node == 0 or budget.total == 0:
        return base, tuple(np.zeros((4, 0), dtype=np.int64))
    flat = theta.reshape(t * v, f * m0)
    # each field node's per_node most negative changes, ties toward the lower
    # feature, listed node by node; a stable sort of that list then ranks
    # (theta, node, feature), so the total most negative come first
    local = np.argsort(theta, axis=3, kind="stable")[..., : budget.per_node]
    cells = (local + m0 * np.arange(f)[:, None]).reshape(t * v, f * local.shape[3])
    ranked = np.argsort(np.take_along_axis(flat, cells, axis=1), axis=1, kind="stable")
    top = np.sort(np.take_along_axis(cells, ranked[:, : budget.total], axis=1), axis=1)
    change = np.take_along_axis(flat, top, axis=1)
    # a running sum adds the chosen changes one by one in (node, feature) order
    gain = np.cumsum(np.where(change < 0, change, 0.0), axis=1)[:, -1]
    form, at = np.nonzero(change < 0)
    return base + gain.reshape(t, v), (*divmod(form, v), *divmod(top[form, at], m0))
