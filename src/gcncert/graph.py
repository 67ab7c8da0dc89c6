"""Attributed graphs, GCN node classifiers, and the concrete forward pass.

A classifier applies, per layer, graph convolution with the normalized
adjacency, an affine map, and ReLU; the final layer stays linear so output
scores keep their sign and margins between labels are meaningful.

A ``Graph`` owns its normalized adjacency Ã: ``graph.norm_adj`` is computed on
first use and shared, read-only, by every certifier, replay and the oracle;
``graph.neighbors`` lists each row's nonzero entries for the code that only
looks at a node's neighbours, such as ``receptive_fields``, the one hop
routine of back-substitution, replay and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DimensionError, check_index


@dataclass(frozen=True)
class Graph:
    """Undirected graph with binary node features.

    ``adjacency`` is a symmetric 0/1 matrix (self-loops allowed),
    ``features`` a 0/1 matrix with one row per node.
    """

    adjacency: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency)  # values are checked before the int64 cast
        feats = np.asarray(self.features)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise DimensionError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 1:
            raise DataError("graph must have at least one node")
        if feats.ndim != 2 or feats.shape[0] != adj.shape[0]:
            raise DimensionError(
                f"features must have one row per node, got {feats.shape} for {adj.shape[0]} nodes"
            )
        for name, values in (("adjacency", adj), ("feature", feats)):
            if not ((values == 0) | (values == 1)).all():
                raise DataError(f"{name} entries must be 0 or 1")
        if (adj != adj.T).any():
            raise DataError("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", adj.astype(np.int64, copy=False))
        object.__setattr__(self, "features", feats.astype(np.int64, copy=False))

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def norm_adj(self) -> np.ndarray:
        """Ã = normalize_adjacency(self), computed once and read-only."""
        norm_adj = normalize_adjacency(self)
        norm_adj.flags.writeable = False
        return norm_adj

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """Ã's nonzero columns per row and their weights, both (n, widest row), read-only.

        Rows are padded at the end with column 0 under weight 0.
        """
        rows, cols = np.nonzero(self.norm_adj)
        counts = np.bincount(rows, minlength=self.num_nodes)
        slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        table = np.zeros((self.num_nodes, counts.max()), dtype=np.int64)
        weights = np.zeros(table.shape)
        table[rows, slot] = cols
        weights[rows, slot] = self.norm_adj[rows, cols]
        table.flags.writeable = weights.flags.writeable = False
        return table, weights

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class GcnLayer:
    weight: np.ndarray  # (m_in, m_out)
    bias: np.ndarray  # (m_out,)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2:
            raise DimensionError(f"layer weight must be 2-D, got shape {w.shape}")
        if b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise DimensionError(
                f"layer bias must have length {w.shape[1]}, got shape {b.shape}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise DataError("layer weight and bias must be finite (no NaN or infinity)")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class GcnModel:
    """Ordered GCN layers; consecutive layer widths must chain."""

    layers: tuple[GcnLayer, ...]

    def __post_init__(self):
        layers = tuple(
            layer if isinstance(layer, GcnLayer) else GcnLayer(*layer)
            for layer in self.layers
        )
        if not layers:
            raise DataError("model must have at least one layer")
        for l in range(len(layers) - 1):
            out_width = layers[l].weight.shape[1]
            in_width = layers[l + 1].weight.shape[0]
            if out_width != in_width:
                raise DimensionError(
                    f"layer {l} outputs width {out_width} but layer {l + 1} expects {in_width}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_width(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def num_labels(self) -> int:
        return self.layers[-1].weight.shape[1]


@dataclass(frozen=True)
class Prediction:
    scores: np.ndarray  # (n, |C|)
    labels: np.ndarray  # (n,), row-wise argmax, lowest index on ties


def normalize_adjacency(graph: Graph) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2}; the +I self-loop keeps all degrees positive."""
    a_hat = graph.adjacency.astype(np.float64) + np.eye(graph.num_nodes)
    inv_sqrt_deg = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


def forward(model: GcnModel, norm_adj: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Score matrix of the GCN: per layer Ã·H, then H·W + b, then ReLU (skipped on the last layer).

    ``features`` is one (n, m0) matrix or a stack of them, shaped (..., n, m0);
    the scores are stacked alike.
    """
    h = np.asarray(features, dtype=np.float64)
    n = norm_adj.shape[0]
    if norm_adj.shape != (n, n) or h.ndim < 2 or h.shape[-2] != n:
        raise DimensionError(
            f"adjacency {norm_adj.shape} incompatible with features {h.shape}"
        )
    if h.shape[-1] != model.input_width:
        raise DimensionError(
            f"model expects {model.input_width} input features, got {h.shape[-1]}"
        )
    for l, layer in enumerate(model.layers):
        h = norm_adj @ h
        h = h @ layer.weight + layer.bias
        if l < model.num_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def receptive_fields(graph: Graph, nodes: np.ndarray,
                     depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hops 0, ..., depth of every node in ``nodes`` at once, as (front, live) pairs.

    Row t of hop l's front lists H_l of ``nodes[t]`` ascending, where H_0 =
    {node} and H_{l+1} holds the Ã-neighbours of H_l, for integer nodes in [0, n).
    Rows are padded at the end to the hop's widest with node 0, and ``live`` is False there.
    """
    cols, weights = graph.neighbors
    front = np.reshape(check_index(nodes, "node index", 0, graph.num_nodes, many=True), (-1, 1))
    hops = [(front, np.ones(front.shape, dtype=bool))]
    sentinel = graph.num_nodes
    for _ in range(depth):
        front, live = hops[-1]
        reach = np.where((weights[front] > 0) & live[:, :, None], cols[front], sentinel)
        reach = np.sort(reach.reshape(len(front), front.shape[1] * cols.shape[1]), axis=1)
        reach[:, 1:][reach[:, 1:] == reach[:, :-1]] = sentinel  # keep each node's first entry
        reach = np.sort(reach, axis=1)
        counts = (reach < sentinel).sum(axis=1)
        live = np.arange(counts.max(initial=0)) < counts[:, None]
        hops.append((np.where(live, reach[:, : live.shape[1]], 0), live))
    return hops


def receptive_field(graph: Graph, node: int, depth: int) -> list[np.ndarray]:
    """Sorted hop sets H_0 = {node}, ..., H_depth of ``receptive_fields`` for one node.

    H_L is the receptive field of an L-layer GCN's scores for ``node``.
    """
    node = check_index(node, "node index", 0, graph.num_nodes)
    return [front[0, live[0]] for front, live in receptive_fields(graph, node, depth)]


def predict(model: GcnModel, graph: Graph) -> Prediction:
    scores = forward(model, graph.norm_adj, graph.features)
    return Prediction(scores=scores, labels=np.argmax(scores, axis=1))
