"""Independent correctness checks on the CLI's outputs.

Every check recomputes what it needs with ``reference`` (the benchmark's own
normalized adjacency and forward pass) and compares the program's CSV or
checkpoint against it; nothing is compared with stored program output. Each
check returns a list of failure messages, empty when the output is right.

- counterexamples: every reported flip set is within the budget and changes
  its node's label; no node is both certified and broken.
- margins: on sampled nodes, no admissible flip set (the empty one, the
  counterexample, a greedy attack, random sets) reaches a score gap below the
  reported margin; the poly margin is at least the interval-topk margin.
- limits: on sampled nodes with limit L, neither a greedy attack nor random
  flip sets of size <= L change the label; the poly limit is at least the
  interval limit.
- exhaustive: every certified node survives every admissible flip set.
- checkpoint: the trained parameters are finite.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
from dataclasses import dataclass

import numpy as np

import reference


@dataclass(frozen=True)
class CertifyRow:
    node: int
    margin: float
    certified: bool
    flips: tuple[tuple[int, int], ...]


def parse_certify_csv(text: str) -> list[CertifyRow]:
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        flips = tuple(
            tuple(int(v) for v in token.split(":")) for token in rec["counterexample_flips"].split(";")
            if token
        )
        rows.append(CertifyRow(int(rec["node"]), float(rec["margin"]),
                               rec["certified"] == "true", flips))
    return rows


def parse_collective_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    recs = list(csv.DictReader(io.StringIO(text)))
    limits = np.array([int(r["max_robust_limit"]) for r in recs], dtype=np.int64)
    never = np.array([r["never_certified"] == "true" for r in recs], dtype=bool)
    if [int(r["node"]) for r in recs] != list(range(len(recs))):
        raise ValueError("collective CSV does not list nodes 0..n-1 in order")
    return limits, never


@dataclass
class Instance:
    """A graph, a model and a budget, in the benchmark's own representation."""

    layers: list
    norm_adj: np.ndarray
    features: np.ndarray
    per_node: int
    total: int

    @classmethod
    def from_docs(cls, graph_doc, model_doc, per_node: int, total: int) -> "Instance":
        return cls(
            layers=reference.layers_from_doc(model_doc),
            norm_adj=reference.normalized_adjacency(graph_doc["num_nodes"], graph_doc["edges"]),
            features=np.asarray(graph_doc["features"], dtype=np.int64),
            per_node=per_node,
            total=total,
        )

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @functools.cached_property
    def base_labels(self) -> np.ndarray:
        return self.labels(self.features)

    def labels(self, features: np.ndarray) -> np.ndarray:
        return reference.predicted_labels(self.layers, self.norm_adj, features)


def _gap(scores: np.ndarray, label: int) -> np.ndarray:
    """score[label] - best rival score, over the last axis."""
    rivals = np.delete(scores, label, axis=-1)
    return scores[..., label] - rivals.max(axis=-1)


class LocalView:
    """One node's receptive field: its scores as a function of nearby features only.

    The node's output depends on the features of nodes within as many hops as
    the model has layers; scores of perturbed copies of those rows are
    computed in a batch without touching the rest of the graph.
    """

    def __init__(self, inst: Instance, node: int):
        self.inst = inst
        hops = [np.array([node])]
        for _ in inst.layers:
            hops.append(np.unique(np.nonzero(inst.norm_adj[hops[-1]] > 0)[1]))
        self.hops = hops
        self.field = hops[-1]
        self.x = inst.features[self.field]
        self.label = int(inst.base_labels[node])

    def gaps(self, x_batch: np.ndarray) -> np.ndarray:
        h = np.asarray(x_batch, dtype=np.float64)
        depth = len(self.inst.layers)
        for l, (weight, bias) in enumerate(self.inst.layers):
            rows, cols = self.hops[depth - 1 - l], self.hops[depth - l]
            h = np.matmul(self.inst.norm_adj[np.ix_(rows, cols)], h) @ weight + bias
            if l < depth - 1:
                h = np.maximum(h, 0.0)
        return _gap(h[..., 0, :], self.label)

    def local_cells(self, flips) -> list[tuple[int, int]]:
        """Flips as (row in the field, feature); flips outside the field cannot matter."""
        where = {int(k): r for r, k in enumerate(self.field)}
        return [(where[i], j) for i, j in flips if i in where]

    def gap_of(self, flips) -> float:
        return float(self.gaps(reference.flipped(self.x, self.local_cells(flips))[None])[0])

    def greedy_attack(self, per_node: int, total: int) -> tuple[tuple[int, int], ...]:
        """Up to ``total`` flips, each the single flip that lowers the gap most."""
        rows, m = self.x.shape
        x = self.x.copy()
        chosen: list[tuple[int, int]] = []
        used = np.zeros(rows, dtype=np.int64)
        for _ in range(total):
            cells = [(r, f) for r in range(rows) if used[r] < per_node for f in range(m)
                     if (r, f) not in chosen]
            if not cells:
                break
            batch = np.repeat(x[None], len(cells), axis=0)
            idx = np.arange(len(cells))
            r_idx, f_idx = np.array(cells).T
            batch[idx, r_idx, f_idx] = 1 - batch[idx, r_idx, f_idx]
            best = cells[int(np.argmin(self.gaps(batch)))]
            chosen.append(best)
            used[best[0]] += 1
            x[best] = 1 - x[best]
        return tuple((int(self.field[r]), f) for r, f in chosen)

    def random_flips(self, rng, per_node: int, size: int) -> tuple[tuple[int, int], ...]:
        rows, m = self.x.shape
        size = min(size, rows * min(per_node, m))
        counts: dict[int, int] = {}
        picked: set[tuple[int, int]] = set()
        while len(picked) < size:
            r, f = int(rng.integers(rows)), int(rng.integers(m))
            if (r, f) in picked or counts.get(r, 0) >= per_node:
                continue
            picked.add((r, f))
            counts[r] = counts.get(r, 0) + 1
        return tuple((int(self.field[r]), f) for r, f in sorted(picked))


def _tol(*values: float) -> float:
    return 1e-9 * max(1.0, *(abs(v) for v in values if np.isfinite(v)))


def check_rows(inst: Instance, rows: list[CertifyRow]) -> list[str]:
    """Row layout and the certified flag against the margin."""
    failures = []
    if [r.node for r in rows] != list(range(inst.num_nodes)):
        failures.append("certify CSV does not list nodes 0..n-1 in order")
    for r in rows:
        if r.certified != (r.margin > 0.0):
            failures.append(f"node {r.node}: certified={r.certified} but margin {r.margin!r}")
        if not np.isfinite(r.margin):
            failures.append(f"node {r.node}: non-finite margin {r.margin!r}")
    return failures


def check_counterexamples(inst: Instance, rows: list[CertifyRow]) -> list[str]:
    """Each reported flip set is admissible and changes its node's label on replay."""
    failures = []
    base = inst.base_labels
    n, m = inst.features.shape
    for r in rows:
        if not r.flips:
            continue
        if r.certified:
            failures.append(f"node {r.node}: both certified and broken")
            continue
        if not all(0 <= i < n and 0 <= j < m for i, j in r.flips):
            failures.append(f"node {r.node}: counterexample flips outside the feature matrix")
            continue
        if not reference.within_budget(r.flips, inst.per_node, inst.total):
            failures.append(f"node {r.node}: counterexample {r.flips} exceeds the budget")
            continue
        if not _label_changes(inst, LocalView(inst, r.node), r.flips):
            failures.append(f"node {r.node}: counterexample {r.flips} keeps label {base[r.node]}")
    return failures


def _label_changes(inst: Instance, view: LocalView, flips) -> bool:
    """Replay on the receptive field; a near-tie is settled by the whole-graph forward pass."""
    gap = view.gap_of(flips)
    if abs(gap) > _tol(gap):
        return gap < 0.0
    node = int(view.hops[0][0])
    return bool(inst.labels(reference.flipped(inst.features, flips))[node] != view.label)


def check_margins(inst: Instance, rows: list[CertifyRow], interval_rows: list[CertifyRow] | None,
                  rng, sample: int, random_sets: int = 20) -> list[str]:
    """No sampled admissible flip set reaches a gap below the reported margin."""
    failures = []
    if interval_rows is not None:
        for r, ir in zip(rows, interval_rows):
            if r.margin < ir.margin - _tol(r.margin, ir.margin):
                failures.append(f"node {r.node}: poly margin {r.margin!r} < interval {ir.margin!r}")
    nodes = rng.choice(inst.num_nodes, size=min(sample, inst.num_nodes), replace=False)
    for node in sorted(int(v) for v in nodes):
        row = rows[node]
        view = LocalView(inst, node)
        candidates = [(), row.flips, view.greedy_attack(inst.per_node, inst.total)]
        candidates += [view.random_flips(rng, inst.per_node, int(rng.integers(1, inst.total + 1)))
                       for _ in range(random_sets if inst.total > 0 else 0)]
        for flips in candidates:
            gap = view.gap_of(flips)
            if gap < row.margin - _tol(gap, row.margin):
                failures.append(f"node {node}: flips {flips} reach gap {gap!r} "
                                f"below the reported margin {row.margin!r}")
                break
    return failures


def check_limits(inst: Instance, limits: np.ndarray, never: np.ndarray, cap: int,
                 interval_limits: np.ndarray | None, rng, sample: int,
                 random_sets: int = 20) -> list[str]:
    """A node with limit L keeps its label under every sampled flip set of size <= L."""
    failures = []
    if len(limits) != inst.num_nodes:
        return [f"collective CSV lists {len(limits)} nodes, graph has {inst.num_nodes}"]
    if ((limits < 0) | (limits > cap)).any():
        failures.append(f"limits outside 0..{cap}")
    if (limits[never] != 0).any():
        failures.append("a never-certified node has a nonzero limit")
    if interval_limits is not None:
        for node in np.nonzero(limits < interval_limits)[0]:
            failures.append(f"node {node}: poly limit {limits[node]} < interval limit "
                            f"{interval_limits[node]}")
    nodes = rng.choice(inst.num_nodes, size=min(sample, inst.num_nodes), replace=False)
    for node in sorted(int(v) for v in nodes):
        limit = int(limits[node])
        if limit == 0:
            continue
        view = LocalView(inst, node)
        candidates = [view.greedy_attack(inst.per_node, limit)]
        candidates += [view.random_flips(rng, inst.per_node, int(rng.integers(1, limit + 1)))
                       for _ in range(random_sets)]
        for flips in candidates:
            if _label_changes(inst, view, flips):
                failures.append(f"node {node}: limit {limit} but flips {flips} change its label")
                break
    return failures


def admissible_flip_sets(n: int, m: int, per_node: int, total: int):
    """Every flip set within the budget, the empty one included."""
    cells = [(i, j) for i in range(n) for j in range(m)]
    for size in range(0, min(total, len(cells)) + 1):
        for combo in itertools.combinations(cells, size):
            nodes = [i for i, _ in combo]
            if all(nodes.count(i) <= per_node for i in set(nodes)):
                yield combo


def robust_nodes(inst: Instance, chunk: int = 1024) -> tuple[np.ndarray, int]:
    """(robust flag per node, number of flip sets tried), by exhaustive enumeration."""
    base = inst.base_labels
    robust = np.ones(inst.num_nodes, dtype=bool)
    n, m = inst.features.shape
    sets = list(admissible_flip_sets(n, m, inst.per_node, inst.total))
    for start in range(0, len(sets), chunk):
        part = sets[start:start + chunk]
        batch = np.repeat(inst.features[None], len(part), axis=0)
        for b, combo in enumerate(part):
            for i, j in combo:
                batch[b, i, j] = 1 - batch[b, i, j]
        robust &= (inst.labels(batch) == base[None]).all(axis=0)
    return robust, len(sets)


def check_exhaustive(inst: Instance, rows: list[CertifyRow]) -> list[str]:
    """Every certified node is robust and every broken node is not."""
    robust, _ = robust_nodes(inst)
    failures = []
    for r in rows:
        if r.certified and not robust[r.node]:
            failures.append(f"node {r.node}: certified but an admissible flip set changes its label")
        if r.flips and robust[r.node]:
            failures.append(f"node {r.node}: counterexample reported for a robust node")
    return failures


def check_checkpoint(trained_doc) -> list[str]:
    """A checkpoint must carry finite parameters only."""
    failures = []
    for l, (weight, bias) in enumerate(reference.layers_from_doc(trained_doc)):
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            failures.append(f"checkpoint layer {l} has non-finite parameters")
    return failures
