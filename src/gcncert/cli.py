"""Command-line interface.

Subcommands: certify, counterexample, sweep, collective, train, oracle.
Exit codes: 0 success, 1 usage error, 2 data error, 3 oracle infeasible.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from typing import IO, Iterator

import numpy as np

from . import fileio
from .certify import certify_sound, find_counterexamples, generate_counterexample
from .collective import compute_robust_limits
from .errors import DataError, OracleInfeasibleError
from .graph import GcnModel, Graph
from .intervals import interval_certify
from .metrics import RobustnessSweep, graph_robustness_ratio
from .perturbation import DEFAULT_ORACLE_CAP, MODES, PerturbationBudget, exact_robust_nodes
from .training import train_robust

METHODS = ("poly-topk", "poly-max", "interval-topk", "interval-max")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no prefixes: --global must not pass for --global-range
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 1 on usage errors, with usage text
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" messages
    return parse


def _finite_float_at_least(minimum: float):
    """argparse type: a finite float no smaller than ``minimum`` (no nan, no infinity)."""

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value >= minimum):
            raise argparse.ArgumentTypeError(f"must be a finite number >= {minimum}, got {text}")
        return value

    parse.__name__ = "float"
    return parse


def _budget_range(spec: str) -> range:
    """argparse type: ``LO:HI`` with 0 <= LO <= HI, as the budgets LO, ..., HI."""
    try:
        lo, hi = map(int, spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects LO:HI, got {spec!r}")
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"invalid range {spec!r}")
    return range(lo, hi + 1)


def _check_mode(args) -> None:
    """Only the poly certifiers restrict flips by direction; reject a mode that would be ignored."""
    if "mode" in args and args.mode != "both" and args.method.startswith("interval-"):
        raise _UsageError(f"{args.command}: --mode {args.mode} is not supported by {args.method}, "
                          "which flips features in both directions")


@contextlib.contextmanager
def _open_output(path: str | None) -> Iterator[IO[str]]:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            yield f


def _load_inputs(args) -> tuple[Graph, GcnModel]:
    graph, model = fileio.load_graph(args.graph), fileio.load_model(args.model)
    if model.input_width != graph.num_features:
        raise DataError(f"{args.model}: layers[0].weight has {model.input_width} rows, "
                        f"but {args.graph} has num_features {graph.num_features}")
    return graph, model


def _budget(args) -> PerturbationBudget:
    return PerturbationBudget(per_node=args.local, total=args.global_budget)


def cmd_certify(args) -> int:
    graph, model = _load_inputs(args)
    budget = _budget(args)
    family, variant = args.method.split("-", 1)
    with _open_output(args.output) as out:
        if family == "interval":
            fileio.write_interval_certify_csv(out, interval_certify(model, graph, budget, variant))
        else:
            certificate = certify_sound(model, graph, budget, variant, mode=args.mode)
            counterexamples = find_counterexamples(model, graph, budget, certificate)
            fileio.write_certify_csv(out, certificate, counterexamples)
    return 0


def cmd_counterexample(args) -> int:
    graph, model = _load_inputs(args)
    budget = _budget(args)
    variant = args.method.split("-", 1)[1]
    certificate = certify_sound(model, graph, budget, variant, mode=args.mode)
    counterexamples = find_counterexamples(model, graph, budget, certificate)
    with _open_output(args.output) as out:
        fileio.write_counterexample_csv(out, counterexamples.values())
    return 0


def cmd_sweep(args) -> int:
    graph, model = _load_inputs(args)
    family, variant = args.method.split("-", 1)
    budgets = args.global_range
    lower, upper, runtime = [], [], []
    broken: set[int] = set()  # a counterexample stays valid at every larger budget
    for total in budgets:
        budget = PerturbationBudget(per_node=args.local, total=total)
        start = time.perf_counter()
        if family == "interval":
            margins = interval_certify(model, graph, budget, variant)
            lower.append(float((margins > 0).sum()) / graph.num_nodes)
            upper.append(1.0)
        else:
            certificate = certify_sound(model, graph, budget, variant, mode=args.mode)
            lower.append(graph_robustness_ratio(certificate))
            fresh = ~certificate.certified & ~np.isin(certificate.nodes, list(broken))
            found = (generate_counterexample(model, graph, budget, certificate, row)
                     for row in np.flatnonzero(fresh))
            broken.update(ce.node for ce in found if ce is not None)
            # (n - b) / n, not 1 - b / n: the latter can round one ulp below c / n
            upper.append((graph.num_nodes - len(broken)) / graph.num_nodes)
        runtime.append((time.perf_counter() - start) * 1000.0)
    sweep = RobustnessSweep(
        local_budget=args.local,
        global_budgets=tuple(budgets),
        lower=np.array(lower),
        upper=np.array(upper),
        runtime_ms=np.array(runtime),
    )
    with _open_output(args.output) as out:
        fileio.write_sweep_csv(out, sweep)
    return 0


def cmd_collective(args) -> int:
    graph, model = _load_inputs(args)
    family, variant = args.method.split("-", 1)
    limits = compute_robust_limits(model, graph, args.local, cap=args.cap, variant=variant,
                                   family=family, mode=args.mode)
    capped = np.nonzero(~limits.never_certified & (limits.limits == limits.search_cap))[0]
    if len(capped):
        print(
            f"note: nodes {capped.tolist()} are still certified at the search cap; "
            f"their true limit is >= {limits.search_cap}",
            file=sys.stderr,
        )
    with _open_output(args.output) as out:
        fileio.write_collective_csv(out, limits)
    return 0


def cmd_train(args) -> int:
    if args.output is None:
        raise _UsageError("train: --output is required (checkpoint destination)")
    graph, model = _load_inputs(args)
    budget = _budget(args)
    variant = args.method.split("-", 1)[1]
    labels = fileio.load_labels(args.labels, graph.num_nodes)
    trained = train_robust(
        model, graph, labels, budget,
        steps=args.steps, learning_rate=args.lr, seed=args.seed,
        loss=args.loss, variant=variant, mode=args.mode, batch_size=args.batch_size,
        progress=(lambda step, loss: print(f"step {step}: loss {loss:.6f}", file=sys.stderr))
        if args.verbose
        else None,
    )
    fileio.save_model(trained, args.output)
    return 0


def cmd_oracle(args) -> int:
    graph, model = _load_inputs(args)
    budget = _budget(args)
    robust = exact_robust_nodes(model, graph, budget, cap=args.cap)
    with _open_output(args.output) as out:
        fileio.write_oracle_csv(out, robust)
    return 0


def build_parser() -> _Parser:
    # each subcommand takes only the flags it reads, except --threads on certify
    # and train, which perfbench/run.py passes; certification runs on one thread
    inputs = _Parser(add_help=False)
    inputs.add_argument("--graph", required=True, help="graph JSON file")
    inputs.add_argument("--model", required=True, help="model JSON file")
    inputs.add_argument("--local", type=_int_at_least(0), default=1, help="max flips per node")
    inputs.add_argument("--output", help="output path (default: stdout)")
    total = _Parser(add_help=False)
    total.add_argument("--global", dest="global_budget", type=_int_at_least(0), default=1,
                       help="max flips overall")
    threads = _Parser(add_help=False)
    threads.add_argument("--threads", type=_int_at_least(1), default=1,
                         help="accepted for compatibility; certification runs on one thread")

    def method_flags(methods, note=None) -> _Parser:
        method = _Parser(add_help=False)
        method.add_argument("--method", choices=methods, default="poly-topk", help=note)
        method.add_argument("--mode", choices=MODES, default="both",
                            help="restrict flips to feature additions or deletions")
        return method

    method = method_flags(METHODS)
    poly = method_flags([m for m in METHODS if m.startswith("poly-")],
                        note="poly only: counterexamples and robust training need poly margins")

    parser = _Parser(prog="gcncert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", parents=[inputs, total, method, threads],
                       help="sound margins plus counterexamples")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("counterexample", parents=[inputs, total, poly],
                       help="verified counterexamples only")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("sweep", parents=[inputs, method],
                       help="lower/upper ratios over a budget range")
    p.add_argument("--global-range", type=_budget_range, required=True, metavar="LO:HI")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("collective", parents=[inputs, method],
                       help="maximum robust limit per node")
    p.add_argument("--cap", type=_int_at_least(0), default=100, help="largest budget to search")
    p.set_defaults(func=cmd_collective)

    p = sub.add_parser("train", parents=[inputs, total, poly, threads],
                       help="robust training, writes a checkpoint")
    p.add_argument("--labels", required=True, help="JSON list of labels, -1 = unlabeled")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--loss", choices=("hinge", "bce"), default="hinge",
                   help="loss on labeled nodes' margins; unlabeled nodes always use hinge")
    p.add_argument("--steps", type=_int_at_least(0), default=100)
    p.add_argument("--lr", type=_finite_float_at_least(0.0), default=0.05)
    p.add_argument("--batch-size", type=_int_at_least(1), default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("oracle", parents=[inputs, total], help="exhaustive exact robustness")
    p.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_ORACLE_CAP,
                   help="most flip sets to enumerate")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_mode(args)
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except OracleInfeasibleError as exc:
        print(f"gcncert: oracle infeasible: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"gcncert: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
