"""perfbench/tracing.py looks up gcncert functions by name when a traced run starts."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"gcncert.{short}.{name}"
        for short, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"gcncert.{short}"), name, None))
    ]
    assert missing == []
