"""The benchmark's own GCN arithmetic, written apart from ``gcncert``.

Generation and the correctness checks use these functions, never the
program's, so a fault in the program cannot hide itself by also being the
yardstick.
"""

from __future__ import annotations

import numpy as np


def dense_adjacency(num_nodes: int, edges) -> np.ndarray:
    """Symmetric 0/1 adjacency from an edge list; duplicates collapse."""
    adj = np.zeros((num_nodes, num_nodes), dtype=np.float64)
    if len(edges):
        e = np.asarray(edges, dtype=np.int64)
        adj[e[:, 0], e[:, 1]] = 1.0
        adj[e[:, 1], e[:, 0]] = 1.0
    return adj


def normalized_adjacency(num_nodes: int, edges) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2, with a self-loop on every node (on top of any listed one)."""
    a_hat = dense_adjacency(num_nodes, edges) + np.eye(num_nodes)
    d = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * d[:, None] * d[None, :]


def scores(layers, norm_adj: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Output scores: per layer Ã·H·W + b, ReLU on every layer but the last.

    ``features`` may carry leading batch axes: (..., n, m).
    """
    h = np.asarray(features, dtype=np.float64)
    for l, (weight, bias) in enumerate(layers):
        h = np.matmul(norm_adj, h) @ weight + bias
        if l < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def predicted_labels(layers, norm_adj: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Row-wise argmax, lowest index on ties (the program's convention)."""
    return np.argmax(scores(layers, norm_adj, features), axis=-1)


def layers_from_doc(doc) -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (np.asarray(layer["weight"], dtype=np.float64), np.asarray(layer["bias"], dtype=np.float64))
        for layer in doc["layers"]
    ]


def flipped(features: np.ndarray, flips) -> np.ndarray:
    out = np.array(features, copy=True)
    for i, j in flips:
        out[i, j] = 1 - out[i, j]
    return out


def within_budget(flips, per_node: int, total: int) -> bool:
    flips = list(flips)
    if len(set(flips)) != len(flips) or len(flips) > total:
        return False
    counts: dict[int, int] = {}
    for i, _ in flips:
        counts[i] = counts.get(i, 0) + 1
    return all(c <= per_node for c in counts.values())
