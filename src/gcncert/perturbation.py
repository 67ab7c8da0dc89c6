"""Bounded feature-flip perturbation spaces and the exhaustive robustness oracle.

The oracle enumerates every admissible flip set and replays the concrete
forward pass, so it is exact but exponential; a candidate cap guards against
accidentally intractable calls. It exists as ground truth for certifier tests
and for the ``oracle`` CLI subcommand.

All three oracle functions read one loop, ``_smallest_breaks``: it replays the
flip sets in enumeration order (by cardinality), a chunk per stacked forward
pass, records for each node the size of the first flip set that changes its
label, and stops as soon as every node it watches is broken. It walks raw
cell-index combinations from ``_cell_combos``, the generator that
``enumerate_perturbations`` wraps into ``FlipSet``s. A single node's check
flips only the cells of its L-hop receptive field: no other flip can move its
scores, and Ã's zero entries add exact zeros, so its verdict is unchanged.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .errors import DataError, OracleInfeasibleError, check_index
from .graph import GcnModel, Graph, forward, predict, receptive_field

DEFAULT_ORACLE_CAP = 10_000_000

MODES = ("both", "add-only", "delete-only")

_FORWARD_CHUNK = 2048

# cell combinations per vectorized per-node check in _cell_combos
_COMBO_BLOCK = 4096


@dataclass(frozen=True)
class PerturbationBudget:
    """At most ``per_node`` flips in any one row and ``total`` flips overall, integers >= 0."""

    per_node: int
    total: int

    def __post_init__(self):
        for name in ("per_node", "total"):
            object.__setattr__(self, name, check_index(getattr(self, name), f"{name} budget"))


@dataclass(frozen=True)
class FlipSet:
    """A set of (node, feature) cells, integers >= 0, to flip; kept sorted for determinism."""

    flips: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted((check_index(i, "flip node"), check_index(j, "flip feature"))
                             for i, j in self.flips))
        if len(set(pairs)) != len(pairs):
            raise DataError("flip set contains duplicate cells")
        object.__setattr__(self, "flips", pairs)

    def __len__(self) -> int:
        return len(self.flips)

    def __iter__(self):
        return iter(self.flips)

    def within(self, budget: PerturbationBudget) -> bool:
        if len(self.flips) > budget.total:
            return False
        per_node = Counter(i for i, _ in self.flips)
        return all(count <= budget.per_node for count in per_node.values())

    def require_inside(self, shape: tuple[int, int]) -> None:
        """Raise :class:`DataError` unless every cell lies in an n x m feature matrix."""
        n, m = shape
        for i, j in self.flips:
            if not (0 <= i < n and 0 <= j < m):
                raise DataError(f"flip ({i}, {j}) outside the {n}x{m} feature matrix")


EMPTY_FLIPSET = FlipSet(())


def sign_matrix(features: np.ndarray) -> np.ndarray:
    """Per-cell flip direction: +1 where the feature is 0, -1 where it is 1."""
    return np.where(np.asarray(features) == 0, 1.0, -1.0)


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise DataError(f"unknown mode {mode!r}, expected one of {MODES}")


def restrict_to_mode(values: np.ndarray, features: np.ndarray, mode: str) -> np.ndarray:
    """``values`` with every entry of a cell that ``mode`` may not flip set to 0.

    ``add-only`` flips only 0 features, ``delete-only`` only 1 features;
    ``features`` must broadcast against ``values``. Under ``both`` the values
    come back untouched.
    """
    if mode == "add-only":
        return np.where(features == 0, values, 0.0)
    if mode == "delete-only":
        return np.where(features == 1, values, 0.0)
    return values


def apply_flips(features: np.ndarray, flips: FlipSet) -> np.ndarray:
    """Return a copy of ``features`` with every listed cell flipped (0↔1)."""
    out = np.array(features, dtype=np.int64, copy=True)
    flips.require_inside(out.shape)
    for i, j in flips:
        out[i, j] = 1 - out[i, j]
    return out


def _cell_combos(
    node_of: np.ndarray, budget: PerturbationBudget, cap: int
) -> Iterator[tuple[int, ...]]:
    """Every admissible set of cells as ascending cell indices, the empty set first.

    ``node_of[c]`` is the node of cell c, non-decreasing in c. Order is by
    size, then lexicographic. Raises :class:`OracleInfeasibleError` when
    C(cells, <= total) exceeds the cap, an integer >= 0.
    """
    cap = check_index(cap, "oracle cap")
    cells = len(node_of)
    if budget.total == 0 or budget.per_node == 0 or cells == 0:
        yield ()
        return
    max_size = min(budget.total, cells, budget.per_node * len(np.unique(node_of)))
    candidates = sum(comb(cells, size) for size in range(max_size + 1))
    if candidates > cap:
        raise OracleInfeasibleError(
            f"enumeration needs {candidates} candidates, cap is {cap}"
        )
    yield ()
    p = budget.per_node
    for size in range(1, max_size + 1):
        combos = itertools.combinations(range(cells), size)
        if size <= p:
            yield from combos
            continue
        while True:
            block = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(combos, _COMBO_BLOCK)),
                dtype=np.int64,
            ).reshape(-1, size)
            if not len(block):
                break
            # a node's cells sit side by side, so p + 1 of one node span a gap of p
            nodes = node_of[block]
            yield from map(tuple, block[(nodes[:, p:] != nodes[:, :-p]).all(axis=1)].tolist())


def enumerate_perturbations(
    features: np.ndarray,
    budget: PerturbationBudget,
    cap: int = DEFAULT_ORACLE_CAP,
) -> Iterator[FlipSet]:
    """Yield every flip set within the budget exactly once, the empty set included.

    Order is by cardinality, then lexicographic over the sorted cell pairs.
    Raises :class:`OracleInfeasibleError` when C(n*m, <=total) exceeds the cap.
    """
    n, m = np.asarray(features).shape
    cells = [(i, j) for i in range(n) for j in range(m)]
    for combo in _cell_combos(np.repeat(np.arange(n), m), budget, cap):
        yield FlipSet(tuple(cells[c] for c in combo))


def _smallest_breaks(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    cap: int,
    watch: int | np.ndarray,
    field: np.ndarray,
) -> np.ndarray:
    """Per node, the size of the smallest flip set of ``field``'s cells that changes its label.

    Nodes no admissible flip set breaks get ``budget.total + 1``. Flip sets are
    replayed in enumeration order, ``_FORWARD_CHUNK`` per stacked forward pass,
    until every node in ``watch`` (one index or an index array) is broken;
    since enumeration goes by cardinality, a node's first break is its smallest.
    """
    base_labels = predict(model, graph).labels
    unbroken = budget.total + 1
    smallest = np.full(graph.num_nodes, unbroken, dtype=np.int64)
    m = graph.num_features
    cell_rows, cell_cols = np.repeat(field, m), np.tile(np.arange(m), len(field))
    combos = _cell_combos(np.repeat(np.arange(len(field)), m), budget, cap)
    while (smallest[watch] == unbroken).any():
        chunk = list(itertools.islice(combos, _FORWARD_CHUNK))
        if not chunk:
            break
        sizes = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
        cells = np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.int64)
        batch = np.repeat(graph.features[None, :, :], len(chunk), axis=0)
        batch[np.repeat(np.arange(len(chunk)), sizes), cell_rows[cells], cell_cols[cells]] ^= 1
        changed = np.argmax(forward(model, graph.norm_adj, batch), axis=2) != base_labels
        first = np.where(changed.any(axis=0), sizes[np.argmax(changed, axis=0)], unbroken)
        smallest = np.minimum(smallest, first)
    return smallest


def exact_robust_nodes(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Boolean vector: node i is robust iff no admissible flip set changes its label."""
    every = np.arange(graph.num_nodes)
    return _smallest_breaks(model, graph, budget, cap, every, every) > budget.total


def exact_node_robustness(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    node: int,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    """Whether no admissible flip set changes ``node``'s label.

    Only the cells of the node's receptive field are flipped, and ``cap``
    bounds the flip sets over those cells alone. ``node`` is an integer in [0, n).
    """
    field = receptive_field(graph, node, model.num_layers)[-1]
    return bool(_smallest_breaks(model, graph, budget, cap, node, field)[node] > budget.total)


def oracle_max_robust_limits(
    model: GcnModel,
    graph: Graph,
    per_node_budget: int,
    max_total: int,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Exact maximum robust global limit per node, capped at ``max_total``.

    A node broken by some flip set of size s, and by none smaller, is robust
    exactly up to total budget s - 1, so a single enumeration at the largest
    budget answers every smaller one.
    """
    budget = PerturbationBudget(per_node=per_node_budget, total=max_total)
    every = np.arange(graph.num_nodes)
    return _smallest_breaks(model, graph, budget, cap, every, every) - 1
