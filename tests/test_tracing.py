"""perfbench/tracing.py looks up gcncert functions by name when a traced run starts."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
FIXTURE = ["--graph", str(ROOT / "fixtures" / "two_node_loop.graph.json"),
           "--model", str(ROOT / "fixtures" / "two_node_loop.model.json")]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = [
        f"gcncert.{short}.{name}"
        for short, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"gcncert.{short}"), name, None))
    ]
    assert missing == []


@pytest.mark.parametrize("command, metric, count", [
    (["certify"], "certify.certify_sound_calls", 1),
    # a step runs the certification kernel without going through certify_sound
    (["train", "--steps", "1", "--labels", "LABELS"], "training.loss_evals", 0),
    # one certification pass per step: the interval bounds are computed once
    (["train", "--steps", "2", "--labels", "LABELS"], "intervals.input_abstraction_calls", 2),
])
def test_traced_cli_run_counts(tmp_path, command, metric, count):
    labels = tmp_path / "labels.json"
    labels.write_text("[0, 1]")
    spans = tmp_path / "spans.json"
    argv = [str(labels) if a == "LABELS" else a for a in command]
    argv += FIXTURE + ["--output", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(TRACING), str(spans)] + argv,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = _tracing().layer_metrics(json.loads(spans.read_text()))
    assert metrics[metric] == count
