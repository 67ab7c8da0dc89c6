"""Seeded synthetic inputs for the benchmark workloads.

``sbm_instance`` draws a stochastic-block-model graph whose nodes carry sparse
binary community-signature features and fits a 2-layer GCN to the community
labels by plain full-batch gradient descent. ``planted_instance`` builds the
small planted-community training instance (two communities, 20 nodes, 6
features) and a fitted 6->4->2 model to start training from.
The program only ever sees the JSON files these produce.

Run ``python3 perfbench/gen.py --workload certify-sbm --seed 1 --out DIR`` to
write one workload's inputs by hand.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

import numpy as np

import reference


@dataclass(frozen=True)
class SbmShape:
    nodes: int
    classes: int
    signature: int  # signature features per class; features = classes * signature
    hidden: int
    in_degree: float  # expected same-community neighbours per node
    out_degree: float  # expected cross-community neighbours per node
    p_signature: float  # chance a signature feature of the node's class is on
    p_noise: float  # chance any other feature is on
    fit_nodes: int  # size of the graph the model is fitted on (its own graph if equal)
    fit_steps: int
    fit_lr: float
    fit_decay: float  # L2 weight decay; keeps robustness alike across seeds


def _sbm_edges(rng, labels: np.ndarray, shape: SbmShape) -> list[list[int]]:
    n = len(labels)
    same = labels[:, None] == labels[None, :]
    size = n / shape.classes
    p = np.where(same, shape.in_degree / size, shape.out_degree / (n - size))
    draw = rng.random((n, n)) < p
    i, j = np.nonzero(np.triu(draw, k=1))
    return np.stack([i, j], axis=1).tolist()


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def fit_gcn(rng, norm_adj: np.ndarray, x: np.ndarray, labels: np.ndarray,
            hidden: int, classes: int, steps: int, lr: float, decay: float = 0.0):
    """Full-batch gradient descent on softmax cross-entropy (+ L2 on weights); [(W, b), (W, b)]."""
    m = x.shape[1]
    w1 = rng.normal(0.0, 1.0 / np.sqrt(m), (m, hidden))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), (hidden, classes))
    b2 = np.zeros(classes)
    onehot = np.eye(classes)[labels]
    ax = norm_adj @ x
    for _ in range(steps):
        h1 = ax @ w1 + b1
        r = np.maximum(h1, 0.0)
        ar = norm_adj @ r
        out = ar @ w2 + b2
        dout = (_softmax(out) - onehot) / len(labels)
        dw2 = ar.T @ dout + decay * w2
        db2 = dout.sum(axis=0)
        dh1 = (norm_adj.T @ dout @ w2.T) * (h1 > 0)
        dw1 = ax.T @ dh1 + decay * w1
        db1 = dh1.sum(axis=0)
        w1 -= lr * dw1
        b1 -= lr * db1
        w2 -= lr * dw2
        b2 -= lr * db2
    return [(w1, b1), (w2, b2)]


def _draw_sbm(rng, n: int, shape: SbmShape) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """(labels, features, edges) of one SBM graph with n nodes."""
    m = shape.classes * shape.signature
    labels = np.arange(n) % shape.classes
    rng.shuffle(labels)
    owner = np.arange(m) // shape.signature
    p_on = np.where(owner[None, :] == labels[:, None], shape.p_signature, shape.p_noise)
    features = (rng.random((n, m)) < p_on).astype(np.int64)
    return labels, features, _sbm_edges(rng, labels, shape)


def sbm_instance(seed: int, shape: SbmShape,
                 graph_seed: int | None = None) -> tuple[dict, dict, np.ndarray]:
    """(graph doc, model doc, community labels) for one seed.

    When ``fit_nodes`` differs from ``nodes`` the model is fitted on a second,
    larger graph from the same distribution: a model fitted on a small graph
    varies so much from seed to seed that its limits do too. ``graph_seed``
    fixes the certified graph and leaves the seed to draw the model.
    """
    rng = np.random.default_rng(seed)
    graph_rng = rng if graph_seed is None else np.random.default_rng(graph_seed)
    labels, features, edges = _draw_sbm(graph_rng, shape.nodes, shape)
    fit_labels, fit_features, fit_edges = (
        (labels, features, edges) if shape.fit_nodes == shape.nodes
        else _draw_sbm(rng, shape.fit_nodes, shape))
    norm_adj = reference.normalized_adjacency(shape.fit_nodes, fit_edges)
    layers = fit_gcn(rng, norm_adj, fit_features.astype(np.float64), fit_labels,
                     shape.hidden, shape.classes, shape.fit_steps, shape.fit_lr, shape.fit_decay)
    graph = {"num_nodes": shape.nodes, "num_features": features.shape[1], "edges": edges,
             "features": features.tolist()}
    return graph, _model_doc(layers), labels


PLANTED_GRAPH_SEED = 42


def planted_graph() -> tuple[dict, np.ndarray]:
    """(graph doc, labels) of the acceptance suite's criterion-9 training graph.

    Two communities with feature signatures {0,1,2} and {3,4,5} (on with
    probability 0.7, other features 0.2) and homophilous edges (0.35 within,
    0.08 across), drawn from seed 42 in the same order as the test helper,
    so the graph is that exact instance.
    """
    n, m = 20, 6
    rng = np.random.default_rng(PLANTED_GRAPH_SEED)
    labels = np.array([0, 1] * (n // 2))
    rng.shuffle(labels)
    signature = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=bool)[labels]
    features = (rng.random((n, m)) < np.where(signature, 0.7, 0.2)).astype(np.int64)
    i, j = np.triu_indices(n, k=1)
    same = labels[i] == labels[j]
    keep = rng.random(len(i)) < np.where(same, 0.35, 0.08)
    graph = {"num_nodes": n, "num_features": m,
             "edges": np.stack([i[keep], j[keep]], axis=1).tolist(), "features": features.tolist()}
    return graph, labels


def planted_instance(seed: int) -> tuple[dict, dict, np.ndarray]:
    """(graph doc, starting model doc, labels) of the robust-training workload.

    The graph is fixed (``planted_graph``); the seed draws the starting
    6->4->2 model, fitted to the labels from a seeded initialisation. A
    fitted start keeps the certified counts of different seeds comparable:
    random starts certify anywhere from 0 to all 20 nodes.
    """
    graph, labels = planted_graph()
    n = graph["num_nodes"]
    norm_adj = reference.normalized_adjacency(n, graph["edges"])
    x = np.asarray(graph["features"], dtype=np.float64)
    layers = fit_gcn(np.random.default_rng(seed), norm_adj, x, labels, 4, 2, 200, 1.0)
    return graph, _model_doc(layers), labels


def permute_nodes(graph: dict, labels: np.ndarray, seed: int) -> tuple[dict, np.ndarray]:
    """The same graph with its nodes renumbered by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(graph["num_nodes"])
    features = np.empty_like(np.asarray(graph["features"]))
    features[perm] = graph["features"]
    new_labels = np.empty_like(labels)
    new_labels[perm] = labels
    edges = perm[np.asarray(graph["edges"], dtype=np.int64)].tolist() if graph["edges"] else []
    return {**graph, "edges": edges, "features": features.tolist()}, new_labels


def _model_doc(layers) -> dict:
    return {"layers": [{"weight": w.tolist(), "bias": b.tolist()} for w, b in layers]}


# Sizes are chosen so that one CLI call takes a few seconds on a 2-core
# machine and every workload decides a mix of nodes (see README.md).
CERTIFY_SHAPE = SbmShape(nodes=1000, classes=4, signature=8, hidden=16, in_degree=4.0,
                         out_degree=1.0, p_signature=0.3, p_noise=0.03,
                         fit_nodes=1000, fit_steps=400, fit_lr=2.0, fit_decay=3e-3)
LIMITS_SHAPE = SbmShape(nodes=120, classes=3, signature=8, hidden=16, in_degree=3.0,
                        out_degree=1.0, p_signature=0.3, p_noise=0.03,
                        fit_nodes=1000, fit_steps=400, fit_lr=2.0, fit_decay=1e-2)
# Seeded 1000-node instances certify 735-865 nodes, and replay time follows
# the open nodes, so the certify workload's wall time spread by a fifth from
# seed to seed. It certifies one fixed instance; the seed renumbers its nodes.
CERTIFY_INSTANCE_SEED = 0
# A 120-node graph alone moves limit_sum by a quarter from seed to seed, so
# the limits workload certifies one fixed graph and the seed draws the model.
LIMITS_GRAPH_SEED = 0


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def write_inputs(workload: str, seed: int, out_dir: str) -> dict[str, str]:
    """Write one workload's input files; returns their paths by role."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "certify-sbm":
        graph, model, labels = sbm_instance(CERTIFY_INSTANCE_SEED, CERTIFY_SHAPE)
        graph, labels = permute_nodes(graph, labels, seed)
    elif workload == "limits-sbm":
        graph, model, labels = sbm_instance(seed, LIMITS_SHAPE, graph_seed=LIMITS_GRAPH_SEED)
    elif workload == "train-planted":
        graph, model, labels = planted_instance(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = {role: os.path.join(out_dir, f"{role}.json") for role in ("graph", "model", "labels")}
    write_json(paths["graph"], graph)
    write_json(paths["model"], model)
    write_json(paths["labels"], labels.tolist())
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for role, path in write_inputs(args.workload, args.seed, args.out).items():
        print(f"{role}: {path}")


if __name__ == "__main__":
    main()
