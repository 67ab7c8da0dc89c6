"""JSON graph/model files and CSV result export.

Graphs and models are small JSON documents so golden fixtures stay reviewable;
floats round-trip exactly (shortest-repr serialization). CSV rows use unix
line endings and repr floats so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Iterable, Mapping

import numpy as np

from .certify import Certificate, Counterexample
from .collective import RobustLimitVector
from .errors import DataError
from .graph import GcnLayer, GcnModel, Graph
from .metrics import RobustnessSweep
from .perturbation import FlipSet

_GRAPH_KEYS = {"num_nodes", "num_features", "edges", "features"}
_MODEL_KEYS = {"layers"}
_LAYER_KEYS = {"weight", "bias"}


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _check_keys(path: str, data: object, expected: set[str], where: str) -> Mapping:
    if not isinstance(data, dict):
        raise DataError(f"{path}: {where} must be a JSON object")
    unknown = set(data) - expected
    if unknown:
        raise DataError(f"{path}: unknown key {sorted(unknown)[0]!r} in {where}")
    missing = expected - set(data)
    if missing:
        raise DataError(f"{path}: missing key {sorted(missing)[0]!r} in {where}")
    return data


def _is_int(value: object) -> bool:
    """A JSON integer: Python's ``True`` is an ``int`` too, and is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_graph(path: str) -> Graph:
    """Parse and validate a graph file; edges are deduplicated and symmetrized."""
    data = _check_keys(path, _load_json(path), _GRAPH_KEYS, "graph file")
    n = data["num_nodes"]
    m = data["num_features"]
    if not _is_int(n) or n < 1:
        raise DataError(f"{path}: num_nodes must be a positive integer")
    if not _is_int(m) or m < 1:
        raise DataError(f"{path}: num_features must be a positive integer")
    adjacency = np.zeros((n, n), dtype=np.int64)
    if not isinstance(data["edges"], list):
        raise DataError(f"{path}: edges must be a list of [i, j] pairs")
    for idx, edge in enumerate(data["edges"]):
        if not (isinstance(edge, list) and len(edge) == 2 and all(_is_int(e) for e in edge)):
            raise DataError(f"{path}: edges[{idx}] must be a pair of integers")
        i, j = edge
        if not (0 <= i < n and 0 <= j < n):
            raise DataError(f"{path}: edges[{idx}] endpoint out of range for {n} nodes")
        adjacency[i, j] = 1
        adjacency[j, i] = 1
    feats = data["features"]
    if not isinstance(feats, list) or len(feats) != n:
        raise DataError(f"{path}: features must list exactly {n} rows")
    features = np.zeros((n, m), dtype=np.int64)
    for i, row in enumerate(feats):
        if not isinstance(row, list) or len(row) != m:
            raise DataError(f"{path}: features[{i}] must list exactly {m} values")
        for j, value in enumerate(row):
            if not _is_int(value) or value not in (0, 1):
                raise DataError(f"{path}: features[{i}][{j}]: expected 0 or 1, got {value!r}")
            features[i, j] = value
    return Graph(adjacency=adjacency, features=features)


def load_labels(path: str, num_nodes: int) -> np.ndarray:
    """Parse a JSON list of one label index per node, -1 marking an unlabeled node."""
    data = _load_json(path)
    if not (isinstance(data, list) and len(data) == num_nodes):
        raise DataError(f"{path}: labels must be a list of {num_nodes} integers (-1 = unlabeled)")
    for node, value in enumerate(data):
        if not _is_int(value) or value < -1:
            raise DataError(f"{path}: labels[{node}]: expected -1 or a label index, got {value!r}")
    return np.array(data, dtype=np.int64)


def save_graph(graph: Graph, path: str) -> None:
    doc = {
        "num_nodes": graph.num_nodes,
        "num_features": graph.num_features,
        "edges": np.argwhere(np.triu(graph.adjacency)).tolist(),  # i <= j, row-major
        "features": graph.features.tolist(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def _as_float_matrix(path: str, value: object, where: str) -> np.ndarray:
    if not (isinstance(value, list) and value and all(isinstance(row, list) for row in value)):
        raise DataError(f"{path}: {where} must be a non-empty 2-D array")
    width = len(value[0])
    for r, row in enumerate(value):
        if len(row) != width:
            raise DataError(f"{path}: {where}[{r}] has length {len(row)}, expected {width}")
        for c, entry in enumerate(row):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise DataError(f"{path}: {where}[{r}][{c}] is not a number")
    return np.asarray(value, dtype=np.float64)


def load_model(path: str) -> GcnModel:
    """Parse and validate a model file; the layer dimension chain is checked."""
    data = _check_keys(path, _load_json(path), _MODEL_KEYS, "model file")
    if not isinstance(data["layers"], list) or not data["layers"]:
        raise DataError(f"{path}: layers must be a non-empty list")
    layers = []
    for idx, entry in enumerate(data["layers"]):
        entry = _check_keys(path, entry, _LAYER_KEYS, f"layers[{idx}]")
        weight = _as_float_matrix(path, entry["weight"], f"layers[{idx}].weight")
        bias = entry["bias"]
        if not (isinstance(bias, list) and all(isinstance(b, (int, float)) and not isinstance(b, bool) for b in bias)):
            raise DataError(f"{path}: layers[{idx}].bias must be a list of numbers")
        try:
            layers.append(GcnLayer(weight, np.asarray(bias, dtype=np.float64)))
        except DataError as exc:
            raise DataError(f"{path}: layers[{idx}]: {exc}") from exc
    try:
        return GcnModel(tuple(layers))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_model(model: GcnModel, path: str) -> None:
    doc = {
        "layers": [
            {"weight": layer.weight.tolist(), "bias": layer.bias.tolist()}
            for layer in model.layers
        ]
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def format_flips(flips: FlipSet) -> str:
    """Semicolon-joined "node:feature" tokens, already in canonical order."""
    return ";".join(f"{i}:{j}" for i, j in flips)


def _fmt(value: float) -> str:
    return repr(float(value))


def _writer(stream: IO[str]):
    return csv.writer(stream, lineterminator="\n")


def write_certify_csv(
    stream: IO[str],
    certificate: Certificate,
    counterexamples: Mapping[int, Counterexample],
) -> None:
    """One line per certificate row: node, margin, certified, counterexample flips if any."""
    out = _writer(stream)
    out.writerow(["node", "margin", "certified", "counterexample_flips"])
    rows = zip(certificate.nodes.tolist(), certificate.margin.tolist(),
               certificate.certified.tolist())
    for node, margin, certified in rows:
        ce = counterexamples.get(node)
        out.writerow([node, _fmt(margin), "true" if certified else "false",
                      format_flips(ce.flips) if ce else ""])


def write_interval_certify_csv(stream: IO[str], margins: np.ndarray) -> None:
    out = _writer(stream)
    out.writerow(["node", "margin", "certified", "counterexample_flips"])
    for node, margin in enumerate(margins):
        out.writerow([node, _fmt(margin), "true" if margin > 0 else "false", ""])


def write_counterexample_csv(stream: IO[str], counterexamples: Iterable[Counterexample]) -> None:
    out = _writer(stream)
    out.writerow(["node", "flipped_label", "flips"])
    for ce in sorted(counterexamples, key=lambda c: c.node):
        out.writerow([ce.node, ce.flipped_label, format_flips(ce.flips)])


def write_sweep_csv(stream: IO[str], sweep: RobustnessSweep) -> None:
    out = _writer(stream)
    out.writerow(["p_l", "p_g", "lower", "upper", "runtime_ms"])
    runtimes = sweep.runtime_ms if sweep.runtime_ms is not None else [0.0] * len(sweep.global_budgets)
    for p_g, lower, upper, ms in zip(sweep.global_budgets, sweep.lower, sweep.upper, runtimes):
        out.writerow([sweep.local_budget, p_g, _fmt(lower), _fmt(upper), _fmt(ms)])


def write_collective_csv(stream: IO[str], limits: RobustLimitVector) -> None:
    out = _writer(stream)
    out.writerow(["node", "max_robust_limit", "never_certified"])
    for node in range(len(limits.limits)):
        out.writerow([
            node,
            int(limits.limits[node]),
            "true" if limits.never_certified[node] else "false",
        ])


def write_oracle_csv(stream: IO[str], robust: np.ndarray) -> None:
    out = _writer(stream)
    out.writerow(["node", "robust"])
    for node, flag in enumerate(robust):
        out.writerow([node, "true" if flag else "false"])
