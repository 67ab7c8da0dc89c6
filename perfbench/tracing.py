"""Spans around gcncert's public functions, recorded from outside the program.

Run as a script, this wraps the functions in ``TRACED`` wherever a gcncert
module has bound them (so ``gcncert.certify.back_substitute`` and
``gcncert.polyhedra.back_substitute`` are both covered), runs the CLI, and
writes every span as JSON when the CLI returns:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json certify --graph ...

A span is [id, name, start_ns, end_ns, parent_id, thread_id, extra]. The
parent is the innermost open span of the same thread; a worker thread's first
span hangs under the main thread's innermost open span, which is the call
that fanned the work out. ``extra`` carries a count read from the return
value where one is needed (receptive-field size, unstable ReLUs, replay
outcome). Importing this module imports no part of gcncert.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

TRACED = {
    "cli": ("main",),
    "fileio": ("load_graph", "load_model", "save_model", "write_certify_csv",
               "write_interval_certify_csv", "write_counterexample_csv", "write_sweep_csv",
               "write_collective_csv", "write_oracle_csv"),
    "graph": ("normalize_adjacency", "forward", "predict"),
    "intervals": ("interval_input_abstraction", "gc_interval", "linear_interval",
                  "relu_interval", "interval_layer_bounds", "interval_certify"),
    "polyhedra": ("back_substitute",),
    "certify": ("certify_sound", "minimize_delta", "label_difference_transform",
                "generate_counterexample", "find_counterexamples"),
    "collective": ("compute_robust_limits",),
    "training": ("train_robust",),
}


def _unstable(bounds) -> int:
    return int(sum(((b.lower < 0) & (b.upper > 0)).sum() for b in bounds[:-1]))


EXTRA = {
    "polyhedra.back_substitute": lambda elem: len(elem.var_nodes),
    "intervals.interval_layer_bounds": _unstable,
    "certify.generate_counterexample": lambda ce: int(ce is not None),
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            with self._lock:
                span_id = len(self.spans)
                span = [span_id, name, 0, 0, parent, threading.get_ident(), None]
                self.spans.append(span)
            stack.append(span_id)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if extra is not None:
                span[6] = extra(result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Replace each traced function in every gcncert module that binds it."""
    import importlib

    modules = {short: importlib.import_module(f"gcncert.{short}") for short in TRACED}
    loaded = [m for name, m in sys.modules.items() if name == "gcncert" or name.startswith("gcncert.")]
    for short, names in TRACED.items():
        for fn_name in names:
            original = getattr(modules[short], fn_name)
            wrapper = recorder.wrap(f"{short}.{fn_name}", original)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    import gcncert.cli

    try:
        return gcncert.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(recorder.spans, f)


# ---- analysis (runs in the benchmark process; needs no gcncert) ----


def self_times(spans: list[list]) -> list[float]:
    """Seconds per span not covered by its child spans (children may overlap)."""
    children: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append(span)
    out = []
    for span in spans:
        start, end = span[2], span[3]
        covered = 0
        cursor = start
        for child in sorted(children.get(span[0], ()), key=lambda s: s[2]):
            lo, hi = max(child[2], cursor), min(child[3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start - covered) / 1e9)
    return out


def _under(spans: list[list], span: list, ancestor: str) -> bool:
    parent = span[4]
    while parent is not None:
        if spans[parent][1] == ancestor:
            return True
        parent = spans[parent][4]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-module counts and self times of one CLI process."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    extras: dict[str, list] = defaultdict(list)
    for span, t in zip(spans, own):
        calls[span[1]] += 1
        busy[span[1]] += t
        if span[6] is not None:
            extras[span[1]].append(span[6])

    def total(*names: str) -> float:
        return sum(busy[n] for n in names)

    fronts = extras["polyhedra.back_substitute"]
    unstable = extras["intervals.interval_layer_bounds"]
    tried = calls["certify.generate_counterexample"]
    verified = sum(extras["certify.generate_counterexample"])
    certifiers = ("certify.certify_sound", "intervals.interval_certify")
    return {
        "fileio.load_s": total("fileio.load_graph", "fileio.load_model"),
        "fileio.write_s": total(*(f"fileio.{n}" for n in TRACED["fileio"]
                                  if n.startswith(("write_", "save_")))),
        "graph.normalize_adjacency_calls": calls["graph.normalize_adjacency"],
        "graph.normalize_adjacency_s": busy["graph.normalize_adjacency"],
        "graph.forward_calls": calls["graph.forward"],
        "graph.forward_s": busy["graph.forward"],
        "intervals.input_abstraction_calls": calls["intervals.interval_input_abstraction"],
        "intervals.input_abstraction_s": busy["intervals.interval_input_abstraction"],
        "intervals.gc_s": busy["intervals.gc_interval"],
        "intervals.affine_s": busy["intervals.linear_interval"],
        "intervals.relu_s": busy["intervals.relu_interval"],
        "intervals.unstable_relu": sum(unstable) / len(unstable) if unstable else 0.0,
        "polyhedra.back_substitute_calls": calls["polyhedra.back_substitute"],
        "polyhedra.back_substitute_s": busy["polyhedra.back_substitute"],
        "polyhedra.front_nodes_mean": sum(fronts) / len(fronts) if fronts else 0.0,
        "polyhedra.front_nodes_max": max(fronts, default=0),
        "certify.certify_sound_calls": calls["certify.certify_sound"],
        "certify.certify_sound_s": busy["certify.certify_sound"],
        "certify.minimize_delta_calls": calls["certify.minimize_delta"],
        "certify.minimize_delta_s": busy["certify.minimize_delta"],
        "certify.label_difference_s": busy["certify.label_difference_transform"],
        "certify.replay_tried": tried,
        "certify.replay_verified": verified,
        "certify.replay_yield": verified / tried if tried else 0.0,
        "certify.find_counterexamples_s": busy["certify.find_counterexamples"]
        + busy["certify.generate_counterexample"],
        "collective.walk_steps": sum(1 for s in spans if s[1] in certifiers
                                     and _under(spans, s, "collective.compute_robust_limits")),
        "collective.compute_robust_limits_s": busy["collective.compute_robust_limits"],
        "training.loss_evals": sum(1 for s in spans if s[1] == "certify.certify_sound"
                                   and _under(spans, s, "training.train_robust")),
        "training.train_robust_s": busy["training.train_robust"],
        "cli.main_s": busy["cli.main"],
        "trace.spans": len(spans),
    }


if __name__ == "__main__":
    sys.exit(main())
