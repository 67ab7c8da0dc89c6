import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gcncert as gc
from gcncert import cli, fileio
from gcncert.cli import main
import helpers

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GRAPH = str(FIXTURES / "two_node_loop.graph.json")
MODEL = str(FIXTURES / "two_node_loop.model.json")


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_certify_poly_topk(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["certify", "--graph", GRAPH, "--model", MODEL,
                 "--local", "1", "--global", "1", "--method", "poly-topk",
                 "--output", str(out)])
    assert code == 0
    rows = _rows(out)
    assert rows[0]["node"] == "0"
    assert float(rows[0]["margin"]) == pytest.approx(0.5, abs=1e-9)
    assert rows[0]["certified"] == "true"
    assert rows[0]["counterexample_flips"] == ""


def test_certify_interval_topk(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["certify", "--graph", GRAPH, "--model", MODEL,
                 "--local", "1", "--global", "1", "--method", "interval-topk",
                 "--output", str(out)]) == 0
    rows = _rows(out)
    assert float(rows[0]["margin"]) == pytest.approx(-0.5, abs=1e-9)
    assert rows[0]["certified"] == "false"
    assert rows[0]["counterexample_flips"] == ""


def test_certify_to_stdout(capsys):
    assert main(["certify", "--graph", GRAPH, "--model", MODEL]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("node,margin,certified,counterexample_flips\n")


def _broken_fixture(tmp_path):
    graph, model, _ = helpers.flip_moves_label_example()
    gpath, mpath = tmp_path / "g.json", tmp_path / "m.json"
    fileio.save_graph(graph, str(gpath))
    fileio.save_model(model, str(mpath))
    return str(gpath), str(mpath)


def test_certify_reports_counterexample_flips(tmp_path):
    gpath, mpath = _broken_fixture(tmp_path)
    out = tmp_path / "r.csv"
    assert main(["certify", "--graph", gpath, "--model", mpath,
                 "--local", "1", "--global", "1", "--output", str(out)]) == 0
    rows = _rows(out)
    assert rows[0]["certified"] == "false"
    assert rows[0]["counterexample_flips"] == "0:0"


def test_counterexample_subcommand(tmp_path):
    gpath, mpath = _broken_fixture(tmp_path)
    out = tmp_path / "ce.csv"
    assert main(["counterexample", "--graph", gpath, "--model", mpath,
                 "--local", "1", "--global", "1", "--output", str(out)]) == 0
    rows = _rows(out)
    assert rows[0] == {"node": "0", "flipped_label": "1", "flips": "0:0"}


def test_counterexample_rejects_interval_method(tmp_path):
    gpath, mpath = _broken_fixture(tmp_path)
    assert main(["counterexample", "--graph", gpath, "--model", mpath,
                 "--method", "interval-topk"]) == 1


def test_sweep_rows(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--graph", GRAPH, "--model", MODEL,
                 "--local", "1", "--global-range", "1:5", "--output", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 5
    assert [r["p_g"] for r in rows] == ["1", "2", "3", "4", "5"]
    for row in rows:
        assert row["p_l"] == "1"
        assert float(row["lower"]) <= float(row["upper"])
        assert float(row["runtime_ms"]) >= 0.0
    uppers = [float(r["upper"]) for r in rows]
    assert uppers == sorted(uppers, reverse=True)  # counterexamples carry forward


@pytest.mark.parametrize("n", [5, 6])
def test_sweep_ratios_sandwich_when_every_node_is_decided(tmp_path, monkeypatch, n):
    # n - 1 isolated nodes break under one flip, the last is certified; in
    # float64 1 - (n-1)/n rounds one ulp below 1/n for n = 5 and n = 6
    replayed, replay = [], cli._replay
    monkeypatch.setattr(cli, "_replay", lambda *args: replayed.append(args[-1].tolist())
                        or replay(*args))
    graph = gc.Graph([], np.array([[1, 0]] * (n - 1) + [[1, 1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[0.5, 0.0], [2.0, 0.0]]), np.array([0.0, 0.4])),))
    gpath, mpath = tmp_path / "g.json", tmp_path / "m.json"
    fileio.save_graph(graph, str(gpath))
    fileio.save_model(model, str(mpath))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--graph", str(gpath), "--model", str(mpath),
                 "--local", "1", "--global-range", "1:5", "--output", str(out)]) == 0
    rows = _rows(out)
    lower = np.array([float(r["lower"]) for r in rows])
    upper = np.array([float(r["upper"]) for r in rows])
    assert (lower == 1 / n).all()
    assert (upper >= lower).all()
    assert replayed == [list(range(n - 1))] + [[]] * 4  # a broken node is not replayed again
    sweep = gc.RobustnessSweep(1, tuple(range(1, 6)), lower, upper)
    assert gc.uncertainty_region(sweep) == 0.0


def test_sweep_bad_range():
    assert main(["sweep", "--graph", GRAPH, "--model", MODEL,
                 "--global-range", "5:1"]) == 1


def test_collective_csv(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["collective", "--graph", GRAPH, "--model", MODEL,
                 "--local", "1", "--cap", "3", "--output", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert int(rows[0]["max_robust_limit"]) >= 1
    assert rows[0]["never_certified"] == "false"


def test_collective_cap_zero_is_accepted(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["collective", "--graph", GRAPH, "--model", MODEL,
                 "--local", "1", "--cap", "0", "--output", str(out)]) == 0
    assert {r["max_robust_limit"] for r in _rows(out)} == {"0"}


def test_oracle_csv(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["oracle", "--graph", GRAPH, "--model", MODEL,
                 "--local", "1", "--global", "1", "--output", str(out)]) == 0
    rows = _rows(out)
    assert [r["robust"] for r in rows] == ["true", "true"]


def test_oracle_cap_exit_code(tmp_path, capsys):
    assert main(["oracle", "--graph", GRAPH, "--model", MODEL,
                 "--global", "3", "--cap", "2"]) == 3
    # both nodes' fields hold all 8 cells: C(8, <= 2) = 37 candidates
    assert "node 0's receptive field needs 37 candidates" in capsys.readouterr().err


def test_train_roundtrip(tmp_path):
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps([1, -1]))
    out = tmp_path / "trained.json"
    assert main(["train", "--graph", GRAPH, "--model", MODEL,
                 "--local", "1", "--global", "1", "--loss", "hinge",
                 "--steps", "2", "--lr", "0.05", "--seed", "3",
                 "--labels", str(labels_path), "--output", str(out)]) == 0
    trained = fileio.load_model(str(out))
    assert trained.num_layers == 2
    # seeded rerun is bit-identical
    out2 = tmp_path / "trained2.json"
    main(["train", "--graph", GRAPH, "--model", MODEL,
          "--local", "1", "--global", "1", "--loss", "hinge",
          "--steps", "2", "--lr", "0.05", "--seed", "3",
          "--labels", str(labels_path), "--output", str(out2)])
    assert out.read_text() == out2.read_text()


@pytest.mark.parametrize("batch", [[], ["--batch-size", "1"]], ids=["full batch", "batch 1"])
def test_train_never_imports_numpy_random(tmp_path, batch):
    # numpy.random adds about 6 MB to a process; training draws its batches without it
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps([1, -1]))
    argv = ["train", "--graph", GRAPH, "--model", MODEL, "--steps", "3", "--seed", "5",
            "--labels", str(labels_path), "--output", str(tmp_path / "trained.json")] + batch
    script = ("import sys; from gcncert.cli import main; code = main(sys.argv[1:]); "
              "print(code, 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", script] + argv, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def _never_train(*args, **kwargs):
    raise AssertionError("training must not start")


def test_train_requires_output(tmp_path, monkeypatch):
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps([1, 1]))
    monkeypatch.setattr("gcncert.training.train_robust", _never_train)
    assert main(["train", "--graph", GRAPH, "--model", MODEL, "--steps", "1",
                 "--labels", str(labels_path)]) == 1


@pytest.mark.parametrize("flags", [
    ["--steps", "-1"],
    ["--batch-size", "0"],
    ["--batch-size", "-1"],
])
def test_train_rejects_bad_flags_before_training(tmp_path, monkeypatch, flags):
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps([1, 1]))
    monkeypatch.setattr("gcncert.training.train_robust", _never_train)
    out = tmp_path / "trained.json"
    assert main(["train", "--graph", GRAPH, "--model", MODEL, "--labels", str(labels_path),
                 "--output", str(out)] + flags) == 1
    assert not out.exists()


def test_train_with_nan_learning_rate_writes_no_checkpoint(tmp_path):
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps([1, -1]))
    out = tmp_path / "trained.json"
    assert main(["train", "--graph", GRAPH, "--model", MODEL, "--steps", "2", "--lr", "nan",
                 "--labels", str(labels_path), "--output", str(out)]) != 0
    assert not out.exists()


def test_certify_rejects_non_finite_model(tmp_path):
    doc = json.loads(Path(MODEL).read_text())
    doc["layers"][0]["bias"][0] = float("nan")
    bad = tmp_path / "nan_model.json"
    bad.write_text(json.dumps(doc))
    assert "NaN" in bad.read_text()  # the bare literal that Python's JSON parser accepts
    out = tmp_path / "r.csv"
    assert main(["certify", "--graph", GRAPH, "--model", str(bad), "--output", str(out)]) == 2


@pytest.mark.parametrize("command", [
    ["certify"], ["certify", "--method", "interval-topk"], ["counterexample"],
    ["sweep", "--global-range", "0:1"],
    ["sweep", "--global-range", "0:1", "--method", "interval-max"],
    ["collective", "--cap", "2"], ["collective", "--cap", "2", "--method", "interval-topk"],
    ["oracle"], ["train", "--steps", "1", "--labels", "LABELS"],
])
def test_overflowing_model_is_data_error(tmp_path, capsys, command):
    # finite weights whose scores and bounds overflow float64
    doc = json.loads(Path(MODEL).read_text())
    for layer in doc["layers"]:
        layer["weight"] = [[w * 1e300 for w in row] for row in layer["weight"]]
        layer["bias"] = [b * 1e300 for b in layer["bias"]]
    model_path, labels_path = tmp_path / "m.json", tmp_path / "labels.json"
    model_path.write_text(json.dumps(doc))
    labels_path.write_text("[0, 1]")
    out = tmp_path / "out"
    out.write_text("earlier output\n")  # a failed run must leave it as it was
    argv = [str(labels_path) if a == "LABELS" else a for a in command]
    assert main(argv + ["--graph", GRAPH, "--model", str(model_path), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert "overflows float64" in captured.err and "Traceback" not in captured.err
    assert out.read_text() == "earlier output\n"
    assert "nan" not in captured.out.lower()


@pytest.mark.parametrize("args", [
    ["certify", "--threads", "0"],
    ["certify", "--threads", "-3"],
    ["counterexample", "--threads", "0"],
    ["oracle", "--cap", "0"],
    ["oracle", "--cap", "-1"],
    ["collective", "--cap", "-1"],
    ["certify", "--method", "interval-topk", "--mode", "add-only"],
    ["sweep", "--method", "interval-max", "--mode", "delete-only", "--global-range", "0:2"],
    ["collective", "--method", "interval-topk", "--mode", "add-only"],
    ["oracle", "--mode", "add-only"],
    ["oracle", "--mode", "delete-only"],
    ["oracle", "--method", "poly-max"],
    ["oracle", "--threads", "2"],
    ["sweep", "--threads", "2", "--global-range", "0:2"],
    ["collective", "--threads", "2"],
    ["certify", "--seed", "1"],
    ["collective", "--global", "2"],
    ["sweep", "--global", "0:3"],  # no prefix match for --global-range
    ["train", "--method", "interval-topk", "--labels", "l.json", "--output", "o.json"],
    ["counterexample", "--method", "interval-max"],
    ["certify", "--local", "-1"],
    ["certify", "--global", "-2"],
    ["sweep", "--global-range", "5:1"],
    ["sweep", "--global-range", "x"],
    ["train", "--lr", "-1", "--labels", "l.json", "--output", "o.json"],
    ["train", "--lr", "inf", "--labels", "l.json", "--output", "o.json"],
    ["train", "--lr", "nan", "--labels", "l.json", "--output", "o.json"],
    ["train", "--seed", "-1", "--labels", "l.json", "--output", "o.json"],
])
def test_ignored_flags_are_usage_errors(monkeypatch, args):
    def never_load(path):
        raise AssertionError("inputs must not be loaded")

    monkeypatch.setattr(fileio, "load_graph", never_load)
    assert main(args + ["--graph", GRAPH, "--model", MODEL]) == 1


def test_train_bad_labels_file(tmp_path):
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps([1, 2, 3]))
    assert main(["train", "--graph", GRAPH, "--model", MODEL, "--steps", "1",
                 "--labels", str(labels_path), "--output", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize("labels", [[0, -7], [True, False]])
def test_train_rejects_labels_that_are_not_indices(tmp_path, capsys, labels):
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(labels))
    out = tmp_path / "o.json"
    assert main(["train", "--graph", GRAPH, "--model", MODEL, "--steps", "1",
                 "--labels", str(labels_path), "--output", str(out)]) == 2
    assert f"{labels_path}: labels[" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, where", [
    ("num_nodes", True, "num_nodes"),
    ("num_features", True, "num_features"),
    ("edges", [[0, True]], "edges[0]"),
    ("features", [[1, 0, True, 1], [1, 0, 1, 0]], "features[0][2]"),
])
def test_graph_booleans_are_data_errors(tmp_path, capsys, key, value, where):
    doc = json.loads(Path(GRAPH).read_text())
    doc[key] = value
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(doc))
    assert main(["certify", "--graph", str(graph_path), "--model", MODEL]) == 2
    assert f"{graph_path}: {where}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["certify"], ["oracle"], ["collective"], ["counterexample"], ["sweep", "--global-range", "0:1"],
])
def test_model_that_does_not_fit_the_graph_names_both_files(tmp_path, capsys, command):
    doc = json.loads(Path(MODEL).read_text())
    doc["layers"][0]["weight"] = doc["layers"][0]["weight"][:2]
    model_path = tmp_path / "bad.json"
    model_path.write_text(json.dumps(doc))
    assert main(command + ["--graph", GRAPH, "--model", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert f"{model_path}: layers[0].weight has 2 rows, but {GRAPH} has num_features 4" in err
    assert "Traceback" not in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["certify", "--graph", GRAPH, "--model", MODEL, "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["explain", "--graph", GRAPH, "--model", MODEL]) == 1


def test_missing_file_is_data_error(tmp_path):
    assert main(["certify", "--graph", str(tmp_path / "nope.json"), "--model", MODEL]) == 2


def test_invalid_graph_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_nodes": 1, "num_features": 1,
                               "edges": [], "features": [[2]]}))
    assert main(["certify", "--graph", str(bad), "--model", MODEL]) == 2


def test_threads_do_not_change_bytes(tmp_path, rng):
    graph, model, _ = helpers.trained_instance(rng)
    gpath, mpath = tmp_path / "g.json", tmp_path / "m.json"
    fileio.save_graph(graph, str(gpath))
    fileio.save_model(model, str(mpath))
    outputs = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}.csv"
        assert main(["certify", "--graph", str(gpath), "--model", str(mpath),
                     "--local", "2", "--global", "2", "--threads", threads,
                     "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("layer, part, at", [
    (0, "weight", (1, 0)),
    (1, "bias", (1,)),
])
def test_model_integer_beyond_float_range_is_data_error(tmp_path, capsys, layer, part, at):
    doc = json.loads(Path(MODEL).read_text())
    cells = doc["layers"][layer][part]
    if len(at) == 2:
        cells = cells[at[0]]
    cells[at[-1]] = 10**400  # json writes it as a 401-digit integer
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(doc))
    assert main(["certify", "--graph", GRAPH, "--model", str(model_path)]) == 2
    where = f"layers[{layer}].{part}" + "".join(f"[{i}]" for i in at)
    assert f"{model_path}: {where}: expected a finite number" in capsys.readouterr().err


def test_train_label_beyond_int64_is_data_error(tmp_path, capsys):
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps([1, 10**30]))
    out = tmp_path / "o.json"
    assert main(["train", "--graph", GRAPH, "--model", MODEL, "--steps", "1",
                 "--labels", str(labels_path), "--output", str(out)]) == 2
    assert f"{labels_path}: labels[1]: expected -1 or a label index" in capsys.readouterr().err
    assert not out.exists()


# numpy refuses these sizes without allocating, so the parent fails fast too
@pytest.mark.parametrize("key, size, where", [
    ("num_nodes", 10**10, "features must be a list of 10000000000 rows"),
    ("num_nodes", 10**30, f"features must be a list of {10**30} rows"),
    ("num_features", 10**30, f"features[0] must be a list of {10**30} integers"),
], ids=["nodes-1e10", "nodes-1e30", "features-1e30"])
def test_graph_sizes_are_checked_before_allocating(tmp_path, capsys, key, size, where):
    doc = json.loads(Path(GRAPH).read_text())
    doc[key] = size
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(doc))
    assert main(["certify", "--graph", str(graph_path), "--model", MODEL]) == 2
    assert f"{graph_path}: {where}" in capsys.readouterr().err
