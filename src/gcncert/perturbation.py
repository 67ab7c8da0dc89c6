"""Bounded feature-flip perturbation spaces and the exhaustive robustness oracle.

The oracle enumerates every admissible flip set and replays the concrete
forward pass, so it is exact but exponential; a candidate cap guards against
accidentally intractable calls. It exists as ground truth for certifier tests
and for the ``oracle`` CLI subcommand.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .errors import DataError, OracleInfeasibleError
from .graph import GcnModel, Graph, forward, predict

DEFAULT_ORACLE_CAP = 10_000_000

MODES = ("both", "add-only", "delete-only")

_FORWARD_CHUNK = 2048


@dataclass(frozen=True)
class PerturbationBudget:
    """At most ``per_node`` flips in any one row and ``total`` flips overall."""

    per_node: int
    total: int

    def __post_init__(self):
        if self.per_node < 0 or self.total < 0:
            raise DataError("perturbation budget limits must be non-negative")


@dataclass(frozen=True)
class FlipSet:
    """A set of (node, feature) cells to flip, kept sorted for determinism."""

    flips: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted((int(i), int(j)) for i, j in self.flips))
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


def enumerate_perturbations(
    features: np.ndarray,
    budget: PerturbationBudget,
    cap: int = DEFAULT_ORACLE_CAP,
) -> Iterator[FlipSet]:
    """Yield every flip set within the budget exactly once, the empty set included.

    Order is by cardinality, then lexicographic over the sorted cell pairs.
    Raises :class:`OracleInfeasibleError` when C(n*m, <=total) exceeds the cap.
    """
    features = np.asarray(features)
    n, m = features.shape
    if budget.total == 0 or budget.per_node == 0 or n * m == 0:
        yield EMPTY_FLIPSET
        return
    max_size = min(budget.total, n * m, budget.per_node * n)
    candidates = sum(comb(n * m, size) for size in range(max_size + 1))
    if candidates > cap:
        raise OracleInfeasibleError(
            f"enumeration needs {candidates} candidates, cap is {cap}"
        )
    yield EMPTY_FLIPSET
    cells = [(i, j) for i in range(n) for j in range(m)]
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(cells, size):
            per_node = Counter(i for i, _ in combo)
            if max(per_node.values()) <= budget.per_node:
                yield FlipSet(combo)


def _iter_changed_labels(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    cap: int,
) -> Iterator[tuple[list[FlipSet], np.ndarray]]:
    """Yield (flip sets, per-node label-changed flags) in batches."""
    base_labels = predict(model, graph).labels
    pending: list[FlipSet] = []
    for flips in enumerate_perturbations(graph.features, budget, cap):
        pending.append(flips)
        if len(pending) == _FORWARD_CHUNK:
            yield pending, _changed_flags(model, graph, base_labels, pending)
            pending = []
    if pending:
        yield pending, _changed_flags(model, graph, base_labels, pending)


def _changed_flags(model, graph, base_labels, flip_sets) -> np.ndarray:
    batch = np.repeat(graph.features[None, :, :], len(flip_sets), axis=0)
    for b, flips in enumerate(flip_sets):
        for i, j in flips:
            batch[b, i, j] = 1 - batch[b, i, j]
    scores = forward(model, graph.norm_adj, batch)
    return np.argmax(scores, axis=2) != base_labels[None, :]


def exact_robust_nodes(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Boolean vector: node i is robust iff no admissible flip set changes its label."""
    robust = np.ones(graph.num_nodes, dtype=bool)
    for _, changed in _iter_changed_labels(model, graph, budget, cap):
        robust &= ~changed.any(axis=0)
        if not robust.any():
            break
    return robust


def exact_node_robustness(
    model: GcnModel,
    graph: Graph,
    budget: PerturbationBudget,
    node: int,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    if not 0 <= node < graph.num_nodes:
        raise DataError(f"node {node} out of range")
    for _, changed in _iter_changed_labels(model, graph, budget, cap):
        if changed[:, node].any():
            return False
    return True


def oracle_max_robust_limits(
    model: GcnModel,
    graph: Graph,
    per_node_budget: int,
    max_total: int,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Exact maximum robust global limit per node, capped at ``max_total``.

    A node broken by some flip set of size s is robust exactly up to total
    budget s - 1, so a single enumeration at the largest budget answers every
    smaller one.
    """
    budget = PerturbationBudget(per_node=per_node_budget, total=max_total)
    limits = np.full(graph.num_nodes, max_total, dtype=np.int64)
    for flip_sets, changed in _iter_changed_labels(model, graph, budget, cap):
        sizes = np.array([len(fs) for fs in flip_sets])
        for node in range(graph.num_nodes):
            hits = changed[:, node]
            if hits.any():
                limits[node] = min(limits[node], int(sizes[hits].min()) - 1)
    return limits
