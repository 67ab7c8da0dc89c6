import io
import json
from pathlib import Path

import numpy as np
import pytest

import gcncert as gc
from gcncert import fileio
import helpers

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_load_shipped_graph():
    graph = fileio.load_graph(str(FIXTURES / "two_node_loop.graph.json"))
    assert graph.num_nodes == 2 and graph.num_features == 4
    assert helpers.dense_adjacency(graph).tolist() == [[0, 1], [1, 0]]


def test_load_shipped_model_reproduces_scores():
    graph = fileio.load_graph(str(FIXTURES / "two_node_loop.graph.json"))
    model = fileio.load_model(str(FIXTURES / "two_node_loop.model.json"))
    scores = gc.predict(model, graph).scores
    assert np.allclose(scores[0], [1.5, 2.5])


def test_graph_round_trip(tmp_path, rng):
    upper = np.triu(rng.random((9, 9)) < 0.4)  # diagonal included: self-loops
    looped = helpers.graph_from_dense((upper | upper.T).astype(int),
                                      features=rng.integers(0, 2, (9, 3)))
    assert np.diag(helpers.dense_adjacency(looped)).any()
    for graph in (helpers.raw_instance(rng)[0], looped):
        path = tmp_path / "g.json"
        fileio.save_graph(graph, str(path))
        n, adjacency = graph.num_nodes, helpers.dense_adjacency(graph)
        edges = [[i, j] for i in range(n) for j in range(i, n) if adjacency[i, j]]
        assert json.loads(path.read_text())["edges"] == edges
        loaded = fileio.load_graph(str(path))
        assert np.array_equal(helpers.dense_adjacency(loaded), helpers.dense_adjacency(graph))
        assert np.array_equal(loaded.features, graph.features)


@pytest.mark.parametrize("source", ["fixture", "loop, duplicate and isolated node"])
def test_save_graph_round_trip_bytes(tmp_path, source):
    if source == "fixture":
        graph = fileio.load_graph(str(FIXTURES / "two_node_loop.graph.json"))
    else:  # node 3 is isolated, [2, 2] a self-loop, and [1, 0] repeats [0, 1]
        graph = gc.Graph([[2, 1], [0, 1], [2, 2], [1, 0]], np.array([[1], [0], [1], [0]]))
        assert graph.edges.tolist() == [[0, 1], [1, 2], [2, 2]]
    # the bytes of a dense upper-triangle scan, the format's reference writer
    expected = json.dumps({
        "num_nodes": graph.num_nodes,
        "num_features": graph.num_features,
        "edges": np.argwhere(np.triu(helpers.dense_adjacency(graph))).tolist(),
        "features": graph.features.tolist(),
    }, indent=2) + "\n"
    path = tmp_path / "g.json"
    fileio.save_graph(graph, str(path))
    assert path.read_text() == expected
    loaded = fileio.load_graph(str(path))
    assert np.array_equal(loaded.edges, graph.edges)
    assert np.array_equal(loaded.features, graph.features)
    for name in ("cols", "weights", "starts"):
        assert np.array_equal(getattr(loaded.norm_adj, name), getattr(graph.norm_adj, name))
    fileio.save_graph(loaded, str(path))
    assert path.read_text() == expected


def test_model_round_trip_is_bit_exact(tmp_path):
    model = gc.GcnModel((
        gc.GcnLayer(np.array([[1 / 3, 0.1 + 0.2], [-1e-17, 2.0]]), np.array([np.pi, -0.0])),
    ))
    path = tmp_path / "m.json"
    fileio.save_model(model, str(path))
    loaded = fileio.load_model(str(path))
    assert np.array_equal(loaded.layers[0].weight, model.layers[0].weight)
    assert np.array_equal(loaded.layers[0].bias, model.layers[0].bias)


def test_graph_empty_edges_is_isolated(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "num_nodes": 3, "num_features": 1, "edges": [],
        "features": [[0], [1], [0]],
    }))
    graph = fileio.load_graph(str(path))
    assert helpers.dense_adjacency(graph).sum() == 0


def _write(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_graph_rejects_unknown_key(tmp_path):
    doc = {"num_nodes": 1, "num_features": 1, "edges": [], "features": [[0]], "labels": [0]}
    with pytest.raises(gc.DataError, match="labels"):
        fileio.load_graph(_write(tmp_path, doc))


def test_graph_rejects_bad_feature_with_field_path(tmp_path):
    doc = {"num_nodes": 1, "num_features": 2, "edges": [], "features": [[0, 2]]}
    with pytest.raises(gc.DataError, match=r"features\[0\]\[1\]"):
        fileio.load_graph(_write(tmp_path, doc))


_ONE_NODE = {"num_nodes": 1, "num_features": 2, "edges": [], "features": [[0, 1]]}
_TWO_NODES = {"num_nodes": 2, "num_features": 1, "edges": [], "features": [[0], [1]]}


@pytest.mark.parametrize("doc, where", [
    ({**_ONE_NODE, "num_nodes": True}, "num_nodes"),
    ({**_ONE_NODE, "num_features": True}, "num_features"),
    ({**_TWO_NODES, "edges": [[0, True]]}, r"edges\[0\]"),
    ({**_TWO_NODES, "edges": [[0, 1], [False, 1]]}, r"edges\[1\]"),
    ({**_ONE_NODE, "features": [[0, True]]}, r"features\[0\]\[1\]"),
    ({**_ONE_NODE, "features": [[1.0, 0]]}, r"features\[0\]\[0\]"),
])
def test_graph_rejects_non_integers_with_position(tmp_path, doc, where):
    path = _write(tmp_path, doc)
    with pytest.raises(gc.DataError, match=f"{path}: {where}"):
        fileio.load_graph(path)


def test_load_labels(tmp_path):
    path = tmp_path / "labels.json"
    path.write_text("[0, -1, 2]")
    assert fileio.load_labels(str(path), 3).tolist() == [0, -1, 2]


@pytest.mark.parametrize("text, where", [
    ("[0, -7]", r"labels\[1\]"),
    ("[true, false]", r"labels\[0\]"),
    ("[0, 1.0]", r"labels\[1\]"),
    ("[0, 1, 1]", "list of 2 integers"),
    ('{"labels": [0, 1]}', "list of 2 integers"),
    ("[0,\n 1", "line 2, column 3"),
])
def test_load_labels_rejects_with_position(tmp_path, text, where):
    path = tmp_path / "labels.json"
    path.write_text(text)
    with pytest.raises(gc.DataError, match=where):
        fileio.load_labels(str(path), 2)


def test_graph_rejects_out_of_range_edge(tmp_path):
    doc = {"num_nodes": 2, "num_features": 1, "edges": [[0, 2]], "features": [[0], [1]]}
    with pytest.raises(gc.DataError, match=r"edges\[0\]"):
        fileio.load_graph(_write(tmp_path, doc))


def test_graph_edges_deduplicated_and_symmetrized(tmp_path):
    doc = {"num_nodes": 2, "num_features": 1, "edges": [[0, 1], [1, 0], [0, 1]],
           "features": [[0], [1]]}
    graph = fileio.load_graph(_write(tmp_path, doc))
    assert helpers.dense_adjacency(graph).tolist() == [[0, 1], [1, 0]]


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "num_nodes": 1,\n  oops\n}')
    with pytest.raises(gc.DataError, match="line 3"):
        fileio.load_graph(str(path))


def test_missing_file_is_data_error():
    with pytest.raises(gc.DataError):
        fileio.load_graph("/nonexistent/graph.json")


def test_model_rejects_mismatched_chain(tmp_path):
    doc = {"layers": [
        {"weight": [[1.0, 2.0]], "bias": [0.0, 0.0]},
        {"weight": [[1.0]], "bias": [0.0]},
    ]}
    with pytest.raises(gc.DataError):
        fileio.load_model(_write(tmp_path, doc))


def test_model_rejects_ragged_weight(tmp_path):
    doc = {"layers": [{"weight": [[1.0, 2.0], [1.0]], "bias": [0.0, 0.0]}]}
    with pytest.raises(gc.DataError, match=r"weight\[1\]"):
        fileio.load_model(_write(tmp_path, doc))


def test_model_rejects_unknown_layer_key(tmp_path):
    doc = {"layers": [{"weight": [[1.0]], "bias": [0.0], "activation": "relu"}]}
    with pytest.raises(gc.DataError, match="activation"):
        fileio.load_model(_write(tmp_path, doc))


def test_single_layer_model_is_valid(tmp_path):
    doc = {"layers": [{"weight": [[0.5, -0.5]], "bias": [0.0, 0.1]}]}
    model = fileio.load_model(_write(tmp_path, doc))
    assert model.num_layers == 1 and model.num_labels == 2


def test_format_flips():
    assert fileio.format_flips(gc.FlipSet(((1, 2), (0, 3)))) == "0:3;1:2"
    assert fileio.format_flips(gc.EMPTY_FLIPSET) == ""


def test_certify_csv_layout(two_node):
    graph, model = two_node
    certificate = gc.certify_sound(model, graph, gc.PerturbationBudget(1, 1))
    buffer = io.StringIO()
    fileio.write_certify_csv(buffer, certificate, {})
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "node,margin,certified,counterexample_flips"
    node, margin, certified, flips = lines[1].split(",")
    assert node == "0" and certified == "true" and flips == ""
    assert float(margin) == pytest.approx(0.5, abs=1e-9)


def test_sweep_csv_layout():
    sweep = gc.RobustnessSweep(1, (1, 2), np.array([0.5, 0.25]), np.array([1.0, 0.75]),
                               np.array([1.5, 2.5]))
    buffer = io.StringIO()
    fileio.write_sweep_csv(buffer, sweep)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "p_l,p_g,lower,upper,runtime_ms"
    assert lines[1] == "1,1,0.5,1.0,1.5"
    assert lines[2] == "1,2,0.25,0.75,2.5"


def test_collective_csv_layout():
    limits = gc.RobustLimitVector(np.array([2, 0]), np.array([False, True]), 5)
    buffer = io.StringIO()
    fileio.write_collective_csv(buffer, limits)
    assert buffer.getvalue() == "node,max_robust_limit,never_certified\n0,2,false\n1,0,true\n"


@pytest.mark.parametrize("text, message", [
    ('{"num_nodes": 1' + "0" * 5000 + "}", "digits"),  # beyond Python's integer-parsing limit
    ("[" * 100_000, "recursion"),
], ids=["long-integer", "deep-nesting"])
def test_unreadable_json_is_data_error(tmp_path, text, message):
    path = tmp_path / "g.json"
    path.write_text(text)
    with pytest.raises(gc.DataError, match=f"{path}: .*{message}"):
        fileio.load_graph(str(path))
