"""Benchmark of the gcncert CLI: end-to-end metrics, or per-module ones when traced.

    python3 perfbench/run.py --workload certify-sbm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. Each run generates its inputs from the seed,
measures set-up (import + load of the inputs in fresh processes), then starts
the workload's CLI subcommand in fresh processes, one after another, until
``--seconds`` have passed. Every output is checked against the benchmark's
own arithmetic (``checks.py``) and against the run's other outputs, which
must be byte-identical. Untimed companion CLI calls supply the quality
metrics a workload's own subcommand does not print.

With ``--trace 0`` the last stdout line is the JSON result with every
end-to-end metric; with ``--trace 1`` untraced and traced processes
alternate, and the result holds every per-module metric plus the tracing
overhead. Progress and a readable table go to stderr. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# The host's CPUs each flip between a fast and a ~45% slower state many times
# a second, in a mix that drifts over minutes (no steal time shows it), so raw
# wall times of one workload spread by 20-40% between runs. A probe thread
# times a fixed pure-Python loop in thread CPU time every PROBE_EVERY_S on the
# CPUs the child runs on, and wall times are rescaled to PROBE_REF_S, the
# loop's time in the fast state of the 2-core machine the bounds were set on.
PROBE_LOOPS = 30_000
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.0019
SETUP_CODE = (
    "import sys, gcncert\n"
    "from gcncert import fileio\n"
    "fileio.load_graph(sys.argv[1])\n"
    "fileio.load_model(sys.argv[2])\n"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "certified": "nodes",
    "decided": "nodes",
    "limit_sum": "flips",
}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count"}
PER_LAYER_SPECIAL = {
    "intervals.unstable_relu": "count",
    "polyhedra.front_nodes_mean": "nodes",
    "polyhedra.front_nodes_max": "nodes",
    "certify.replay_tried": "count",
    "certify.replay_verified": "count",
    "certify.replay_yield": "ratio",
    "collective.walk_steps": "count",
    "training.loss_evals": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_SPECIAL:
        return PER_LAYER_SPECIAL[name]
    return next(unit for suffix, unit in PER_LAYER_UNITS.items() if name.endswith(suffix))


class BenchError(Exception):
    """The benchmark cannot run here (no program, or an input step failed)."""


@dataclass
class Process:
    wall_s: float
    rss_mb: float
    code: int
    output: bytes
    stderr: str
    ref_s: float = 0.0  # wall_s rescaled to the reference CPU speed


class SpeedProbe:
    """Samples the speed of the given CPUs while a child process runs."""

    def __init__(self, cpus: tuple[int, ...]):
        self.cpus = cpus
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        k = 0
        while not self._stop.is_set():
            os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})  # this thread only
            k += 1
            start = time.thread_time()
            acc = 0
            for i in range(PROBE_LOOPS):
                acc += i * i % 7
            self.samples.append(time.thread_time() - start)
            self._stop.wait(PROBE_EVERY_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """Factor that rescales a wall time measured meanwhile to the reference speed."""
        return PROBE_REF_S / statistics.mean(self.samples)


@dataclass
class Run:
    """Everything one workload run measured and found."""

    processes: list[Process] = field(default_factory=list)
    traced: list[Process] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


class Cli:
    """Starts gcncert from the checkout's sources in fresh processes.

    Processes are started through ``launcher.py`` so that their peak RSS is
    their own. A single-threaded workload's processes are pinned to one CPU,
    so that the speed probe samples the CPU they run on; a multi-threaded
    one runs free and the probe samples every CPU in turn. Use as a context
    manager: leaving it stops the launcher and, on an error, every process
    it started.
    """

    def __init__(self, workdir: Path, threads: int):
        self.workdir = workdir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.count = 0
        allowed = tuple(sorted(os.sched_getaffinity(0)))
        self.cpus = allowed[:1] if threads == 1 else allowed
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=env, cwd=workdir, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True)

    def __enter__(self) -> "Cli":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.launcher.stdin.close()
            self.launcher.wait()
            return
        group = self.launcher.pid  # the launcher leads a session holding its children
        os.killpg(group, signal.SIGKILL)
        self.launcher.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)

    def spawn(self, argv: list[str], single_threaded: bool = False) -> Process:
        """Run one process to its end; wall time from spawn to exit, peak RSS from wait4."""
        cpus = self.cpus[:1] if single_threaded else self.cpus
        request = {"argv": [sys.executable] + argv, "cpus": cpus, "stderr": "child.stderr"}
        with SpeedProbe(cpus) as probe:
            self.launcher.stdin.write(json.dumps(request) + "\n")
            self.launcher.stdin.flush()
            answer = self.launcher.stdout.readline()
        if not answer:
            raise BenchError("the process launcher ended unexpectedly")
        result = json.loads(answer)
        stderr = (self.workdir / "child.stderr").read_text(encoding="utf-8", errors="replace")
        return Process(result["wall_s"], result["rss_kib"] / 1024.0, result["code"], b"", stderr,
                       result["wall_s"] * probe.scale())

    def gcncert(self, args: list[str], output: str, traced_spans: str | None = None) -> Process:
        """One CLI call whose result file is ``output``; the file is read and removed."""
        if traced_spans is None:
            argv = ["-m", "gcncert"] + args + ["--output", output]
        else:
            argv = [str(HERE / "tracing.py"), traced_spans] + args + ["--output", output]
        proc = self.spawn(argv)
        path = self.workdir / output
        if path.exists():
            proc.output = path.read_bytes()
            path.unlink()
        return proc

    def companion(self, args: list[str]) -> str:
        """An untimed call whose output feeds a quality metric or a check."""
        self.count += 1
        proc = self.gcncert(args, f"companion-{self.count}.out")
        if proc.code != 0:
            raise BenchError(f"gcncert {' '.join(args)} exited {proc.code}: {proc.stderr.strip()}")
        return proc.output.decode("utf-8")


# ---- workloads ----


@dataclass(frozen=True)
class Inputs:
    graph: str
    model: str
    labels: str
    graph_doc: dict
    model_doc: dict


def _poly(local: int, total: int, threads: int = 1) -> list[str]:
    return ["--method", "poly-topk", "--local", str(local), "--global", str(total),
            "--threads", str(threads)]


def _files(inp: Inputs) -> list[str]:
    return ["--graph", inp.graph, "--model", inp.model]


def _certify_counts(rows: list[checks.CertifyRow]) -> tuple[int, int]:
    certified = sum(r.certified for r in rows)
    return certified, certified + sum(bool(r.flips) for r in rows)


class CertifySbm:
    """certify --method poly-topk --threads 2 on a ~1000-node SBM graph at budget local 2, global 4."""

    local, total, threads = 2, 4, 2
    sample = 40

    def timed_args(self, inp: Inputs, seed: int) -> list[str]:
        return ["certify"] + _files(inp) + _poly(self.local, self.total, self.threads)

    def evaluate(self, cli: Cli, inp: Inputs, output: bytes, rng) -> tuple[dict, list[str]]:
        inst = checks.Instance.from_docs(inp.graph_doc, inp.model_doc, self.local, self.total)
        rows = checks.parse_certify_csv(output.decode("utf-8"))
        interval = checks.parse_certify_csv(cli.companion(
            ["certify"] + _files(inp) + ["--method", "interval-topk", "--local", str(self.local),
                                         "--global", str(self.total)]))
        failures = checks.check_rows(inst, rows) + checks.check_counterexamples(inst, rows)
        failures += checks.check_margins(inst, rows, interval, rng, self.sample)
        # limits capped at the workload budget: certified at every total 0..L
        certified_at = []
        for total in range(self.total):
            lower = checks.parse_certify_csv(cli.companion(
                ["certify"] + _files(inp) + _poly(self.local, total, self.threads)))
            budget_inst = checks.Instance.from_docs(inp.graph_doc, inp.model_doc, self.local, total)
            failures += checks.check_rows(budget_inst, lower)
            failures += checks.check_counterexamples(budget_inst, lower)
            certified_at.append([r.certified for r in lower])
        certified_at.append([r.certified for r in rows])
        limit_sum = _limit_sum(np.array(certified_at))
        certified, decided = _certify_counts(rows)
        return {"certified": certified, "decided": decided, "limit_sum": limit_sum}, failures


def _limit_sum(certified_at: np.ndarray) -> int:
    """Sum over nodes of the last budget before the first uncertified one (walk semantics)."""
    budgets, _ = certified_at.shape
    first_fail = np.where(certified_at.all(axis=0), budgets, np.argmin(certified_at, axis=0))
    return int(np.maximum(first_fail - 1, 0).sum())


class LimitsSbm:
    """collective --method poly-topk --cap 5 on a 120-node SBM graph at local budget 2."""

    local, cap, total, threads = 2, 5, 4, 1
    sample = 30

    def timed_args(self, inp: Inputs, seed: int) -> list[str]:
        return ["collective"] + _files(inp) + ["--method", "poly-topk", "--local",
                                               str(self.local), "--cap", str(self.cap)]

    def evaluate(self, cli: Cli, inp: Inputs, output: bytes, rng) -> tuple[dict, list[str]]:
        inst = checks.Instance.from_docs(inp.graph_doc, inp.model_doc, self.local, self.cap)
        limits, never = checks.parse_collective_csv(output.decode("utf-8"))
        interval_limits, _ = checks.parse_collective_csv(cli.companion(
            ["collective"] + _files(inp) + ["--method", "interval-topk", "--local",
                                            str(self.local), "--cap", str(self.cap)]))
        failures = checks.check_limits(inst, limits, never, self.cap, interval_limits, rng,
                                       self.sample)
        at_total = checks.Instance.from_docs(inp.graph_doc, inp.model_doc, self.local, self.total)
        rows = checks.parse_certify_csv(cli.companion(
            ["certify"] + _files(inp) + _poly(self.local, self.total)))
        failures += checks.check_rows(at_total, rows) + checks.check_counterexamples(at_total, rows)
        certified, decided = _certify_counts(rows)
        return {"certified": certified, "decided": decided,
                "limit_sum": int(limits.sum())}, failures


class TrainPlanted:
    """train on the 20-node planted-community graph: 6->4->2 model, budget 1/2, batch 8, lr 0.2."""

    local, total, steps, cap, threads = 1, 2, 20, 5, 1

    def timed_args(self, inp: Inputs, seed: int) -> list[str]:
        return ["train"] + _files(inp) + _poly(self.local, self.total) + [
            "--labels", inp.labels, "--batch-size", "8", "--lr", "0.2",
            "--steps", str(self.steps), "--seed", str(seed)]

    def evaluate(self, cli: Cli, inp: Inputs, output: bytes, rng) -> tuple[dict, list[str]]:
        trained_doc = json.loads(output)
        ckpt = cli.workdir / "checkpoint.json"
        ckpt.write_bytes(output)
        trained_files = ["--graph", inp.graph, "--model", ckpt.name]
        failures: list[str] = []
        counts = {}
        for role, files, doc in (("start", _files(inp), inp.model_doc),
                                 ("trained", trained_files, trained_doc)):
            inst = checks.Instance.from_docs(inp.graph_doc, doc, self.local, self.total)
            rows = checks.parse_certify_csv(cli.companion(
                ["certify"] + files + _poly(self.local, self.total)))
            failures += checks.check_rows(inst, rows) + checks.check_counterexamples(inst, rows)
            failures += checks.check_exhaustive(inst, rows)
            counts[role] = _certify_counts(rows)
        limits, never = checks.parse_collective_csv(cli.companion(
            ["collective"] + trained_files + ["--method", "poly-topk", "--local",
                                              str(self.local), "--cap", str(self.cap)]))
        inst = checks.Instance.from_docs(inp.graph_doc, trained_doc, self.local, self.cap)
        failures += checks.check_limits(inst, limits, never, self.cap, None, rng,
                                        inst.num_nodes)
        failures += checks.check_checkpoint(trained_doc)
        if counts["trained"][0] < counts["start"][0]:
            # not a fault: near saturation 20 FD steps move the count by one either way
            print(f"note: the checkpoint certifies {counts['trained'][0]} nodes, the start "
                  f"model {counts['start'][0]}", file=sys.stderr)
        certified, decided = counts["trained"]
        return {"certified": certified, "decided": decided,
                "limit_sum": int(limits.sum())}, failures


WORKLOADS = {"certify-sbm": CertifySbm(), "limits-sbm": LimitsSbm(),
             "train-planted": TrainPlanted()}


# ---- one run ----


def _median(values) -> float:
    return float(statistics.median(values))


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    workload = WORKLOADS[name]
    paths = gen.write_inputs(name, seed, str(workdir))
    with open(paths["graph"], encoding="utf-8") as f:
        graph_doc = json.load(f)
    with open(paths["model"], encoding="utf-8") as f:
        model_doc = json.load(f)
    inp = Inputs(*(os.path.basename(paths[r]) for r in ("graph", "model", "labels")),
                 graph_doc, model_doc)
    with Cli(workdir, workload.threads) as cli:
        return _measure(cli, workload, name, seed, seconds, trace, workdir, inp)


def _measure(cli: Cli, workload, name: str, seed: int, seconds: float, trace: bool,
             workdir: Path, inp: Inputs) -> dict:
    run = Run()

    setup = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            proc = cli.spawn(["-c", SETUP_CODE, inp.graph, inp.model], single_threaded=True)
            if proc.code != 0:
                raise BenchError(f"set-up process exited {proc.code}: {proc.stderr.strip()}")
            setup.append(proc.ref_s)

    args = workload.timed_args(inp, seed)
    output = "result.out"
    spans_file = "spans.json"
    start = time.perf_counter()
    while not run.processes or time.perf_counter() - start < seconds:
        run.processes.append(cli.gcncert(args, output))
        if trace:  # rounds are pairs: untraced, then traced
            proc = cli.gcncert(args, output, traced_spans=spans_file)
            run.traced.append(proc)
            if proc.code == 0:
                with open(workdir / spans_file, encoding="utf-8") as f:
                    spans = json.load(f)
                run.layers.append(tracing.layer_metrics(spans))
                shutil.copyfile(workdir / spans_file,
                                HERE / "runs" / f"spans-{name}-seed{seed}.json")

    done = [p for p in run.processes + run.traced if p.code == 0]
    failed = len(run.processes) + len(run.traced) - len(done)
    for p in run.processes + run.traced:
        if p.code != 0:
            print(f"gcncert exited {p.code}: {p.stderr.strip()[-400:]}", file=sys.stderr)
    if not done:
        raise BenchError("every timed process failed")
    if any(p.output != done[0].output for p in done):
        run.failures.append("outputs of one run's processes differ")
    quality, found = workload.evaluate(cli, inp, done[0].output, np.random.default_rng([seed, 1]))
    run.failures += found
    for message in run.failures:
        print(f"check failed: {message}", file=sys.stderr)

    attempted = len(run.processes) + len(run.traced)
    for label, procs in (("wall s", run.processes), ("traced wall s", run.traced)):
        if procs:
            print(f"{name}: {label} of each process, raw / at reference speed: "
                  + " ".join(f"{p.wall_s:.3f}/{p.ref_s:.3f}" for p in procs), file=sys.stderr)
    if trace:
        walls = [p.ref_s for p in run.processes if p.code == 0]
        traced_walls = [p.ref_s for p in run.traced if p.code == 0]
        names = run.layers[0].keys() if run.layers else tracing.layer_metrics([]).keys()
        values = {n: _median([m[n] for m in run.layers]) if run.layers else 0.0 for n in names}
        values["trace.overhead_s"] = (_median(traced_walls) - _median(walls)
                                      if walls and traced_walls else 0.0)
        metrics = {n: {"value": v, "unit": per_layer_unit(n)} for n, v in values.items()}
    else:
        values = {
            "setup_s": _median(setup),
            "wall_s": _median([p.ref_s for p in done]),
            "peak_rss_mb": _median([p.rss_mb for p in done]),
            **quality,
        }
        metrics = {n: {"value": values[n], "unit": unit} for n, unit in END_TO_END.items()}
    return {"correct": not run.failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _table(name: str, result: dict) -> str:
    lines = [f"{name}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}"]
    for metric, m in result["metrics"].items():
        lines.append(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)


def _terminate(signum, frame):
    # unwinds through Cli.spawn, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gcncert" / "__init__.py").is_file():
        print(f"run.py: no gcncert sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workdir = HERE / "runs" / f"{name}-seed{args.seed}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace), workdir)
        except BenchError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(_table(name, result), file=sys.stderr)
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
