"""Bounded feature-flip perturbation spaces and the exhaustive robustness oracle.

The oracle enumerates every admissible flip set and replays the concrete
forward pass, so it is exact but exponential; a candidate cap guards against
accidentally intractable calls. It exists as ground truth for certifier tests
and for the ``oracle`` CLI subcommand.

All three oracle functions read one loop, ``_smallest_breaks``, a walk over
nodes. Only the cells of a node's L-hop receptive field can move its label,
so each node enumerates those alone with ``_cell_combos`` (the generator that
``enumerate_perturbations`` wraps into ``FlipSet``s), and ``cap`` bounds each
node's count; every count is checked before any enumeration starts. The sets
go in enumeration order, by cardinality, a ``_COMBO_BLOCK`` at a time, to
``graph.field_labels``, replay's evaluator, as one row, and a node stops at its
first break. It defends the model's predicted label, as certify and replay do.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .errors import DataError, OracleInfeasibleError, check_index
from .graph import GcnModel, Graph, field_labels, padded_fields, predict, ragged_fields

DEFAULT_ORACLE_CAP = 10_000_000

MODES = ("both", "add-only", "delete-only")

# cell combinations per block of _cell_combos, so at most as many flip sets per
# field_labels call: for 30 nodes of a 120-node, 24-feature graph at local 1, global
# 2, 512 took 6.7-7.3 s and 34 MB peak RSS, 256 took 10.9 s, 1024-2048 6.0-7.3 s and 38-46 MB
_COMBO_BLOCK = 512


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
        # plain non-negative ints, as replay builds them, are taken as they are
        pairs = tuple(sorted((i, j) if type(i) is type(j) is int and i >= 0 and j >= 0 else
                             (check_index(i, "flip node"), check_index(j, "flip feature"))
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
    """``values``, with every entry of a cell that ``mode`` may not flip set to 0 in place.

    ``add-only`` flips only 0 features, ``delete-only`` only 1 features;
    ``features`` must broadcast against ``values``. Under ``both`` the values
    come back untouched.
    """
    if mode != "both":
        np.copyto(values, 0.0, where=features != (0 if mode == "add-only" else 1))
    return values


def apply_flips(features: np.ndarray, flips: FlipSet) -> np.ndarray:
    """Return a copy of ``features`` with every listed cell flipped (0↔1)."""
    out = np.array(features, dtype=np.int64, copy=True)
    flips.require_inside(out.shape)
    for i, j in flips:
        out[i, j] = 1 - out[i, j]
    return out


def _largest_set(nodes: int, m: int, budget: PerturbationBudget, cap: int, what: str) -> int:
    """The most cells an admissible flip set over ``nodes`` rows of ``m`` cells holds.

    Raises :class:`OracleInfeasibleError` when the sets to try, C(nodes * m,
    <= that many), exceed ``cap``, an integer >= 0; the empty set alone never does.
    """
    cap = check_index(cap, "oracle cap")
    largest = min(budget.total, nodes * min(m, budget.per_node))
    candidates = sum(comb(nodes * m, size) for size in range(largest + 1))
    if largest and candidates > cap:
        raise OracleInfeasibleError(f"{what} needs {candidates} candidates, cap is {cap}")
    return largest


def _cell_combos(nodes: int, m: int, per_node: int, largest: int) -> Iterator[np.ndarray]:
    """Each set of 1 to ``largest`` cells of ``nodes`` rows of ``m``, <= ``per_node`` a row.

    Sets are rows of ascending cell indices, cell c in row c // m, yielded in
    blocks of one size and at most ``_COMBO_BLOCK`` rows. Order is by size,
    then lexicographic.
    """
    node_of = np.repeat(np.arange(nodes), m)
    p = per_node
    for size in range(1, largest + 1):
        cells = itertools.chain.from_iterable(itertools.combinations(range(nodes * m), size))
        while len(block := np.fromiter(itertools.islice(cells, _COMBO_BLOCK * size),
                                       dtype=np.int64).reshape(-1, size)):
            if size > p:
                # a node's cells sit side by side, so p + 1 of one node span a gap of p
                rows = node_of[block]
                block = block[(rows[:, p:] != rows[:, :-p]).all(axis=1)]
            if len(block):
                yield block


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
    largest = _largest_set(n, m, budget, cap, "enumeration")
    cells = [(i, j) for i in range(n) for j in range(m)]
    yield EMPTY_FLIPSET
    for block in _cell_combos(n, m, budget.per_node, largest):
        yield from (FlipSet(tuple(cells[c] for c in combo)) for combo in block.tolist())


def _smallest_breaks(model: GcnModel, graph: Graph, budget: PerturbationBudget, cap: int,
                     nodes: np.ndarray) -> np.ndarray:
    """Per node of ``nodes``, the size of the smallest flip set that changes its predicted label.

    Nodes no admissible flip set breaks get ``budget.total + 1``. Enumeration
    goes by cardinality, so a node's first break is its smallest.
    """
    m = graph.num_features
    hops = ragged_fields(graph, nodes, model.num_layers)
    widths = np.diff(hops[-1][1]).tolist()
    largest = [_largest_set(width, m, budget, cap, f"node {node}'s receptive field")
               for node, width in zip(nodes, widths)]
    labels = predict(model, graph).labels
    smallest = np.full(len(nodes), budget.total + 1, dtype=np.int64)
    for t, node in enumerate(nodes):
        node_hops = padded_fields(hops, np.array([t]))
        for block in _cell_combos(widths[t], m, budget.per_node, largest[t]):
            (sets, size), cells = block.shape, block.ravel()
            new = field_labels(model, graph, node_hops, sets,
                               (np.repeat(np.arange(sets), size), cells // m, cells % m))
            if (new != labels[node]).any():
                smallest[t] = size
                break
    return smallest


def exact_robust_nodes(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Boolean vector: node i is robust iff no admissible flip set changes its label."""
    return _smallest_breaks(model, graph, budget, cap, np.arange(graph.num_nodes)) > budget.total


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
    node = check_index(node, "node index", 0, graph.num_nodes)
    return bool(_smallest_breaks(model, graph, budget, cap, np.array([node]))[0] > budget.total)


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
    return _smallest_breaks(model, graph, budget, cap, np.arange(graph.num_nodes)) - 1
