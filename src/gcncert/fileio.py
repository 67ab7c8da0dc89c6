"""JSON graph, model and label files, and CSV result export.

Graphs and models are small JSON documents so golden fixtures stay reviewable;
floats round-trip exactly (shortest-repr serialization); one routine, ``_table``,
checks every table in them and names the first bad list or cell. CSV rows use
unix line endings and repr floats so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import itertools
import json
import reprlib
from typing import IO, TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import DataError, check_index
from .graph import GcnLayer, GcnModel, Graph

if TYPE_CHECKING:  # annotations only: loading a file imports no certifier
    from .certify import Certificate, Counterexample
    from .collective import RobustLimitVector
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
    except (RecursionError, ValueError) as exc:  # nested too deep; an integer too long to read
        raise DataError(f"{path}: {exc}") from exc


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


def _cells(cells: list, bounds: tuple[float, float] | None) -> np.ndarray | None:
    """``cells`` as one array, or None if one is not an int in ``bounds`` (if None: finite)."""
    if not set(map(type, cells)) <= ({int} if bounds else {int, float}):  # bool is not int
        return None
    try:
        array = np.array(cells, dtype=np.int64 if bounds else np.float64)
    except OverflowError:  # an integer beyond the dtype's range
        return None
    ok = np.isfinite(array) if bounds is None else (bounds[0] <= array) & (array <= bounds[1])
    return array if ok.all() else None


def _table(path: str, value: object, where: str, shape: tuple[int | None, ...],
           bounds: tuple[float, float] | None = None, expected: str = "a finite number") -> np.ndarray:
    """``value`` checked as a JSON table and returned as one array of its shape.

    ``shape`` is ``(rows,)`` for a list of cells or ``(rows, width)`` for a list
    of rows of cells. A ``None`` entry is free; a free width is read off the
    first row, which must exist. Cells are JSON integers within ``bounds``
    (inclusive, as int64) or, when ``bounds`` is None, finite numbers (float64).
    """
    rows, *width = shape
    kind = "integers" if bounds else "numbers"
    if width == [None] and type(value) is list and value and type(value[0]) is list:
        width = [len(value[0])]
    if not (type(value) is list and rows in (None, len(value)) and None not in width):
        count = "one or more " if None in width else "" if rows is None else f"{rows} "
        raise DataError(f"{path}: {where} must be a list of {count}{'rows' if width else kind}")
    cells = value
    if width:
        if not (set(map(type, value)) <= {list} and set(map(len, value)) <= set(width)):
            r = next(r for r, x in enumerate(value) if type(x) is not list or len(x) not in width)
            raise DataError(f"{path}: {where}[{r}] must be a list of {width[0]} {kind}")
        cells = list(itertools.chain.from_iterable(value))
    array = _cells(cells, bounds)
    if array is None:
        k = next(k for k, cell in enumerate(cells) if _cells([cell], bounds) is None)
        at = "[{}][{}]".format(*divmod(k, width[0])) if width else f"[{k}]"
        raise DataError(f"{path}: {where}{at}: expected {expected}, got {reprlib.repr(cells[k])}")
    return array.reshape(len(value), *width)


def load_graph(path: str) -> Graph:
    """Parse and validate a graph file; edges are deduplicated and symmetrized."""
    data = _check_keys(path, _load_json(path), _GRAPH_KEYS, "graph file")
    n, m = (check_index(data[key], f"{path}: {key}", 1) for key in ("num_nodes", "num_features"))
    features = _table(path, data["features"], "features", (n, m), (0, 1), "0 or 1")
    edges = _table(path, data["edges"], "edges", (None, 2), (0, n - 1), f"a node index below {n}")
    return Graph(edges, features)


def load_labels(path: str, num_nodes: int) -> np.ndarray:
    """Parse a JSON list of one label index per node, -1 marking an unlabeled node."""
    return _table(path, _load_json(path), "labels", (num_nodes,), (-1, np.inf), "-1 or a label index")


def save_graph(graph: Graph, path: str) -> None:
    doc = {
        "num_nodes": graph.num_nodes,
        "num_features": graph.num_features,
        "edges": graph.edges.tolist(),  # unique, i <= j, row-major
        "features": graph.features.tolist(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_model(path: str) -> GcnModel:
    """Parse and validate a model file; the layer dimension chain is checked."""
    data = _check_keys(path, _load_json(path), _MODEL_KEYS, "model file")
    if not isinstance(data["layers"], list) or not data["layers"]:
        raise DataError(f"{path}: layers must be a non-empty list")
    layers = []
    for idx, entry in enumerate(data["layers"]):
        entry = _check_keys(path, entry, _LAYER_KEYS, f"layers[{idx}]")
        weight = _table(path, entry["weight"], f"layers[{idx}].weight", (None, None))
        bias = _table(path, entry["bias"], f"layers[{idx}].bias", (None,))
        try:
            layers.append(GcnLayer(weight, bias))
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
