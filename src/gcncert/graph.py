"""Attributed graphs, GCN node classifiers, and the concrete forward pass.

A classifier applies, per layer, graph convolution with the normalized
adjacency, an affine map, and ReLU; the final layer stays linear so output
scores keep their sign and margins between labels are meaningful.

A ``Graph`` holds its edge list, never an n×n matrix. Its normalized
adjacency Ã, ``graph.norm_adj``, is a ``NeighborTable`` built from the edges
on first use and shared, read-only, by every certifier, replay and the
oracle: each row's nonzero columns and weights, held ragged like a hop.
``table @ h`` is the graph convolution Ã·h, one multiply-add per entry (sparse
propagation as in Kipf & Welling, ICLR 2017), and ``table.between`` builds
from the same rows the dense block of Ã between two hops of receptive fields.
``ragged_fields`` is the one hop routine of back-substitution, replay and the
oracle. ``_padded`` pads only the rows a caller works on, table rows and hop
rows alike, in ``row_blocks`` sized by their own widest row, so no array is
padded to the widest row or field in the graph. ``receptive_fields`` is the
hops of a list of nodes, padded.

``field_scores`` scores nodes under batches of flip sets, for replay and the
oracle alike, each on its own field (an L-layer GCN's scores for a node depend
only on the features within L hops) with ``forward``'s row-wise arithmetic
(``table @ h``, then ``_affine``), so they are whole-graph scores bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DataError, DimensionError, check_index

# entries of one block of rows: reached entries in ``ragged_fields``, and
# multiply-adds (rows × widest row × output width) in the table's product
_HOP_ELEMENTS = 1 << 16


def row_blocks(widths: np.ndarray, per_entry: int, elements: int) -> Iterator[slice]:
    """Consecutive blocks of rows, each within about ``elements`` entries of ``per_entry``.

    A block is the longest run of rows (at least one) whose length times their
    widest of ``widths`` keeps within budget, so a wide row widens no other block.
    """
    most, start = max(1, elements // max(1, per_entry)), 0
    while start < len(widths):
        widest = np.maximum.accumulate(widths[start : start + most])
        size = max(1, int((np.arange(1, len(widest) + 1) * widest).searchsorted(most, "right")))
        yield slice(start, start + size)
        start += size


@dataclass(frozen=True, eq=False)
class NeighborTable:
    """Ã as a read-only ragged list of each row's nonzero entries, a hop's layout.

    Row i lists its columns ascending as ``cols[starts[i] : starts[i + 1]]``
    and their weights alike in ``weights``. ``table @ h`` is Ã·h and
    ``between`` a dense block of it, so no n×n array is needed.
    """

    cols: np.ndarray
    weights: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        for array in (self.cols, self.weights, self.starts):
            array.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.starts) - 1,) * 2

    def padded_rows(self, per_entry: int, elements: int) -> Iterator[tuple]:
        """Every row in ``row_blocks`` of ``per_entry`` each: (rows, cols, weights), 0-padded."""
        for rows in row_blocks(np.diff(self.starts), per_entry, elements):
            yield rows, *_padded(self.starts, rows, self.cols, self.weights)[:2]

    def __matmul__(self, h: np.ndarray) -> np.ndarray:
        """Ã·h for h shaped (..., n, m), each row's terms summed in column order, one multiply-add each.

        ``h`` is read in its own dtype, so 0/1 features need no float copy: each
        gathered term is cast to float64, which holds such values exactly. It
        runs over ``padded_rows`` of about ``_HOP_ELEMENTS`` multiply-adds into
        the one output: a row's sum does not depend on its block, but can
        differ from a dense product's.
        """
        h = np.asarray(h)
        out = np.empty(h.shape[:-2] + (self.shape[0], h.shape[-1]))
        for rows, cols, weights in self.padded_rows(out.size // self.shape[0], _HOP_ELEMENTS):
            block = out[..., rows, :]
            np.multiply(weights[:, :1], h[..., cols[:, 0], :], out=block)
            for slot in range(1, cols.shape[1]):
                # one float temporary: a second costs page faults
                term = h[..., cols[:, slot], :].astype(np.float64, copy=False)
                term *= weights[:, slot, None]
                block += term
        return out

    def between(self, front: tuple, next_front: tuple) -> np.ndarray:
        """Dense Ã between padded hops (nodes, live), (targets, |front|, |next_front|), by ``_hop_entries``."""
        t, i, slots, weights, _ = _hop_entries(self, front, next_front)
        block = np.zeros(front[1].shape + next_front[0].shape[1:])
        block[t, i, slots] = weights
        return block


@dataclass(frozen=True)
class Graph:
    """Undirected graph with binary node features.

    ``edges`` lists [i, j] node pairs in either orientation: each pair joins
    both directions, repeated pairs count once and [i, i] is a self-loop.
    ``features`` is a 0/1 matrix with one row per node, so it sets the node
    count; the graph holds it as uint8. The graph keeps its edges unique and
    read-only, as [i, j] rows with i <= j in ascending order.
    """

    edges: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features)  # values are checked before the uint8 cast
        if feats.ndim != 2:
            raise DimensionError(f"features must be a matrix, got shape {feats.shape}")
        n = feats.shape[0]
        if n < 1:
            raise DataError("graph must have at least one node")
        if not ((feats == 0) | (feats == 1)).all():
            raise DataError("feature entries must be 0 or 1")
        edges = np.asarray(self.edges)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise DimensionError(f"edges must be a list of [i, j] pairs, got shape {edges.shape}")
        i, j = check_index(edges.ravel(), "edge node", 0, n, many=True).reshape(-1, 2).T
        key = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
        # np.unique would do, but it imports numpy.ma, which adds 1 MB to every process
        key = key[np.diff(key, prepend=-1) != 0]
        edges = np.stack(divmod(key, n), axis=1)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "features", feats.astype(np.uint8, copy=False))

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @cached_property
    def norm_adj(self) -> NeighborTable:
        """Ã = normalize_adjacency(self), computed once."""
        return normalize_adjacency(self)

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


def normalize_adjacency(graph: Graph) -> NeighborTable:
    """Ã = D^{-1/2} (A + I) D^{-1/2} as a neighbour table, built from the edge list.

    The +I keeps all degrees positive, and an explicit self-loop makes â_ii = 2.
    Each weight is (â_ij · d_i^{-1/2}) · d_j^{-1/2} from integer degrees, the
    float that the dense product D^{-1/2} Â D^{-1/2} holds at (i, j).
    """
    n = graph.num_nodes
    i, j = graph.edges.T
    off = i != j
    loops = np.bincount(i[~off], minlength=n)
    rows = np.concatenate([i[off], j[off], np.arange(n)])
    cols = np.concatenate([j[off], i[off], np.arange(n)])
    a_hat = np.concatenate([np.ones(2 * off.sum()), 1.0 + loops])
    order = np.argsort(rows * n + cols)  # row by row, columns ascending
    rows, cols, a_hat = rows[order], cols[order], a_hat[order]
    counts = np.bincount(rows, minlength=n)
    inv_sqrt_deg = 1.0 / np.sqrt(counts + loops)
    return NeighborTable(cols, a_hat * inv_sqrt_deg[rows] * inv_sqrt_deg[cols],
                         np.append(0, np.cumsum(counts)))


def forward(model: GcnModel, norm_adj: NeighborTable | np.ndarray,
            features: np.ndarray) -> np.ndarray:
    """Score matrix of the GCN: per layer Ã·H, then H·W + b, then ReLU (skipped on the last layer).

    ``norm_adj`` is Ã as a graph's ``norm_adj`` table or as a dense (n, n) array.
    ``features`` is one (n, m0) matrix or a stack of them, shaped (..., n, m0);
    the scores are stacked alike. Scores that overflow to infinity or NaN
    raise ``DataError``.
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for l, layer in enumerate(model.layers):
            h = _affine(norm_adj @ h, layer)
            if l < model.num_layers - 1:
                h = np.maximum(h, 0.0)
    if not np.isfinite(h).all():
        raise DataError("scores are not finite: the model overflows float64 on this graph")
    return h


def ragged_fields(graph: Graph, nodes: np.ndarray,
                  depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hops 0, ..., depth of every node in ``nodes`` at once, each a ragged (entries, starts) pair.

    Row t of hop l lists H_l of ``nodes[t]`` ascending as entries[starts[t] :
    starts[t + 1]], where H_0 = {node} and H_{l+1} holds the Ã-neighbours of
    H_l, for integer nodes in [0, n). Each hop is computed from ``row_blocks``
    of about ``_HOP_ELEMENTS`` reached entries, counted before repeats go, and
    only its live entries are kept, so nothing is padded.
    """
    table, n = graph.norm_adj, graph.num_nodes
    nodes = check_index(nodes, "node index", 0, n, many=True)
    hops = [(nodes, np.arange(len(nodes) + 1))]
    for _ in range(depth):
        entries, starts = hops[-1]
        # entries reached per row, repeats too
        reached = np.diff(np.append(0, np.cumsum(np.diff(table.starts)[entries]))[starts])
        # the leading 0 count makes the running sum of counts the rows' starts
        keys, counts = [np.zeros(0, dtype=np.int64)], [np.zeros(1, dtype=np.int64)]
        for rows in row_blocks(reached, 1, _HOP_ELEMENTS):
            at, widths = _spans(starts, rows)
            reach, degrees = _spans(table.starts, entries[at])
            key = np.repeat(np.repeat(np.arange(len(widths)) * n, widths), degrees)  # row * n
            key = np.sort(key + table.cols[reach])  # + node
            key = key[np.diff(key, prepend=-1) != 0]  # each row's nodes once, ascending
            keys.append(key % n)
            counts.append(np.bincount(key // n, minlength=len(widths)))
        hops.append((np.concatenate(keys), np.cumsum(np.concatenate(counts))))
    return hops


def _spans(starts: np.ndarray, rows: np.ndarray | slice) -> tuple[np.ndarray | slice, np.ndarray]:
    """Where rows ``rows`` of a ragged array with ``starts`` keep their entries, and how many."""
    first, counts = starts[:-1][rows], starts[1:][rows] - starts[:-1][rows]
    if isinstance(rows, slice):  # consecutive rows hold their entries in one run
        return slice(starts[rows.start], starts[rows.stop]), counts
    return np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts, counts), counts


def _padded(starts: np.ndarray, rows: np.ndarray | slice, *entries: np.ndarray) -> tuple:
    """Rows ``rows`` of each ragged array with ``starts``, 0-padded at the end, then ``live``."""
    at, counts = _spans(starts, rows)
    live = np.arange(counts.max(initial=0)) < counts[:, None]
    fronts = [np.zeros(live.shape, dtype=array.dtype) for array in entries]
    for front, array in zip(fronts, entries):
        front[live] = array[at]
    return (*fronts, live)


def _hop_entries(table: NeighborTable, front: tuple, next_front: tuple) -> tuple:
    """Ã's entries in the live rows of hop ``front``: (target, front slot, next slot, weight), starts.

    Live rows go in ``np.nonzero`` order, ragged, columns ascending; a next slot is the column's
    place in the target's row of ``next_front``, which for a one-node row (hop 0) is its row of Ã.
    """
    nodes, live = front
    t, i = np.nonzero(live)
    at, counts = _spans(table.starts, nodes[t, i])
    starts, t, i = np.append(0, np.cumsum(counts)), np.repeat(t, counts), np.repeat(i, counts)
    slots = (np.arange(len(t)) - np.repeat(starts[:-1], counts) if live.shape[1] == 1 else
             field_slots(*next_front, t, table.cols[at], table.shape[0]))
    return t, i, slots, table.weights[at], starts


def _affine(h: np.ndarray, layer: GcnLayer) -> np.ndarray:
    """h·W + b, one vector-matrix product per row: one ``h @ W`` rounds a row by the row count."""
    return np.matmul(h[..., None, :], layer.weight)[..., 0, :] + layer.bias


def field_slots(nodes: np.ndarray, live: np.ndarray, rows: np.ndarray, query: np.ndarray,
                n: int) -> np.ndarray:
    """Slots of nodes ``query`` in rows ``rows`` of a padded hop (nodes, live), -1 if absent."""
    # each row lists its live nodes ascending, so keys row * (n + 1) + node ascend, padding as n
    keys = (np.arange(len(nodes))[:, None] * (n + 1) + np.where(live, nodes, n)).ravel()
    key = rows * (n + 1) + query
    place = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    return np.where(keys[place] == key, place % nodes.shape[1], -1)


def padded_fields(hops: list[tuple[np.ndarray, np.ndarray]],
                  rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (front, live) hops of rows ``rows`` of ``ragged_fields``, as ``receptive_fields`` of their nodes."""
    nodes = hops[0][0][rows, None]
    return [(nodes, np.ones(nodes.shape, dtype=bool))] + [_padded(s, rows, e) for e, s in hops[1:]]


def receptive_fields(graph: Graph, nodes: np.ndarray,
                     depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hops 0, ..., depth of every node in ``nodes`` at once, as (front, live) pairs.

    Row t of hop l's front lists H_l of ``nodes[t]`` ascending (``ragged_fields``).
    Rows are padded at the end to the hop's widest with node 0, and ``live`` is False there.
    """
    hops = ragged_fields(graph, nodes, depth)
    return padded_fields(hops, np.arange(len(hops[0][0])))


def field_scores(model: GcnModel, graph: Graph, hops: list[tuple[np.ndarray, np.ndarray]],
                 sets: int, cells: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """The (rows, sets, labels) scores of each row's node H_0 under ``sets`` flip sets, on its field H_L.

    ``hops`` are the rows' ``receptive_fields`` for the model's depth, and ``cells`` flat
    (set, slot, feature) arrays: set s of row s // ``sets`` flips the feature of the node at
    that live slot of the row's H_L, each cell once. Layer l computes the live nodes of H_{L-1-l}
    from those of H_{L-l}, a copy per set, as ``forward`` does, so the scores are its row of the
    node on the flipped features, bit for bit. Overflows raise ``DataError``.
    """
    (which, slots, feats), depth, (field, live) = cells, model.num_layers, hops[-1]
    # the live nodes of each hop, row after row: slot i of row t is number offsets[t] + i
    offsets = [np.append(0, np.cumsum(live.sum(axis=1))) for _, live in hops]
    h = np.repeat(graph.features[field[live]][:, None].astype(np.float64), sets, axis=1)
    flip = (offsets[-1][which // sets] + slots, which % sets, feats)
    h[flip] = 1.0 - h[flip]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for l, layer in enumerate(model.layers):
            t, _, at, weights, starts = _hop_entries(graph.norm_adj, *hops[depth - 1 - l :][:2])
            # the hop's rows of Ã over the next hop's live nodes, a node's sets side by side
            h = NeighborTable(offsets[depth - l][t] + at, weights, starts) @ h.reshape(len(h), -1)
            h = _affine(h.reshape(len(starts) - 1, sets, -1), layer)
            if l < depth - 1:
                h = np.maximum(h, 0.0)
    if not np.isfinite(h).all():
        raise DataError("scores are not finite: the model overflows float64 on this graph")
    return h  # H_0 holds one node a row


def field_labels(model: GcnModel, graph: Graph, hops: list[tuple[np.ndarray, np.ndarray]],
                 sets: int, cells: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """The (rows, sets) labels of ``field_scores``, the lowest of tied ones; a set with no cell is -1."""
    listed = np.bincount(cells[0], minlength=len(hops[0][0]) * sets).reshape(-1, sets) > 0
    return np.where(listed, field_scores(model, graph, hops, sets, cells).argmax(axis=2), -1)


def predict(model: GcnModel, graph: Graph) -> Prediction:
    scores = forward(model, graph.norm_adj, graph.features)
    return Prediction(scores=scores, labels=np.argmax(scores, axis=1))
