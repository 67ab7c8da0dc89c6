"""Acceptance suite: one test per criterion, one printed status line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
The 200-instance randomized suite is generated once (seed fixed a priori) and
shared by the criteria that quantify over it.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

import gcncert as gc
from gcncert import fileio
from gcncert.cli import main
from gcncert.polyhedra import forward_poly_propagation
import helpers

SUITE_SEED = 1234
SUITE_SIZE = 200


def _report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class InstanceResult:
    graph: object
    model: object
    budget: object
    judgments: list
    poly_certified: set
    counterexample_nodes: set
    interval_topk: np.ndarray
    interval_max: np.ndarray
    oracle_robust: np.ndarray


@pytest.fixture(scope="session")
def suite():
    rng = np.random.default_rng(SUITE_SEED)
    start = time.perf_counter()
    results = []
    for _ in range(SUITE_SIZE):
        graph, model, budget = helpers.trained_instance(rng)
        judgments = gc.certify_sound(model, graph, budget, "topk")
        counterexamples = gc.find_counterexamples(model, graph, budget, judgments)
        results.append(InstanceResult(
            graph=graph,
            model=model,
            budget=budget,
            judgments=judgments,
            poly_certified={j.node for j in judgments if j.certified},
            counterexample_nodes=set(counterexamples),
            interval_topk=gc.interval_certify(model, graph, budget, "topk"),
            interval_max=gc.interval_certify(model, graph, budget, "max"),
            oracle_robust=gc.exact_robust_nodes(model, graph, budget),
        ))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_worked_example_golden(two_node):
    graph, model = two_node
    budget = gc.PerturbationBudget(per_node=1, total=1)
    start = time.perf_counter()
    interval_margin = gc.interval_certify(model, graph, budget, "topk")[0]
    judgment = gc.certify_sound(model, graph, budget, "topk")[0]
    oracle = gc.exact_node_robustness(model, graph, budget, 0)
    elapsed = time.perf_counter() - start
    ok = (
        abs(interval_margin - (-0.5)) <= 1e-9
        and not interval_margin > 0
        and abs(judgment.margin - 0.5) <= 1e-9
        and judgment.certified
        and oracle
        and elapsed < 1.0
    )
    _report(1, ok, f"interval {interval_margin:+.10f}, poly {judgment.margin:+.10f}, "
                   f"oracle robust={oracle}, {elapsed * 1000:.0f} ms")


def test_criterion_2_soundness_completeness_sandwich(suite):
    results, elapsed = suite
    violations = 0
    for r in results:
        robust = {i for i in range(r.graph.num_nodes) if r.oracle_robust[i]}
        no_ce = {i for i in range(r.graph.num_nodes)} - r.counterexample_nodes
        violations += len(r.poly_certified - robust)
        violations += len(robust - no_ce)
        violations += sum(1 for i in range(r.graph.num_nodes)
                          if r.interval_topk[i] > 0 and i not in robust)
        violations += sum(1 for i in range(r.graph.num_nodes)
                          if r.interval_max[i] > 0 and i not in robust)
    ok = violations == 0 and len(results) >= 200 and elapsed < 300
    _report(2, ok, f"{len(results)} instances, {violations} sandwich violations, "
                   f"suite built in {elapsed:.1f} s")


def test_criterion_3_minimizer_exactness():
    rng = np.random.default_rng(SUITE_SEED + 3)
    worst = 0.0
    for _ in range(500):
        n_vars = int(rng.integers(1, 13))
        m = int(rng.integers(1, 4))
        n_sub = max(1, int(np.ceil(n_vars / m)))
        var_nodes = np.arange(n_sub)
        coef = rng.uniform(-3, 3, (1, n_sub * m))
        const = rng.uniform(-1, 1, 1)
        elem = gc.PolyNodeElement(var_nodes, m, coef, const, coef.copy(), const.copy())
        features = rng.integers(0, 2, (n_sub, m))
        budget = gc.PerturbationBudget(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        value, _ = gc.minimize_delta(elem, features, budget)
        expected = helpers.brute_force_form_minimum(elem, features, budget)
        worst = max(worst, abs(value - expected))
    ok = worst <= 1e-12
    _report(3, ok, f"500 forms, max |greedy - brute force| = {worst:.2e}")


def test_criterion_4_relu_minimum_area():
    rng = np.random.default_rng(SUITE_SEED + 4)
    grid = np.arange(0.0, 1.0001, 0.05)
    area = lambda lam, lo, up: 0.5 * (-lam * lo + up - lam * up) * (up - lo)
    worst = -np.inf
    for _ in range(100):
        lo = rng.uniform(-5, 0) or -1e-9
        up = rng.uniform(0, 5) or 1e-9
        chosen = 1.0 if abs(up) >= abs(lo) else 0.0
        gap = area(chosen, lo, up) - min(area(lam, lo, up) for lam in grid)
        worst = max(worst, gap)
    ok = worst <= 1e-9
    _report(4, ok, f"100 samples, max area excess over grid = {worst:.2e}")


def test_criterion_5_back_substitution_equivalence():
    rng = np.random.default_rng(SUITE_SEED + 5)
    worst = 0.0
    for _ in range(50):
        graph, model, budget = helpers.trained_instance(rng)
        bounds = gc.interval_layer_bounds(model, graph, budget, "topk")
        norm = gc.normalize_adjacency(graph)
        fwd = forward_poly_propagation(model, graph, norm, bounds)
        for node in range(graph.num_nodes):
            back = gc.back_substitute(model, graph, node, bounds)
            ref = fwd[node]
            assert back.var_nodes.tolist() == ref.var_nodes.tolist()
            for name in ("lower_coef", "lower_const", "upper_coef", "upper_const"):
                diff = np.abs(getattr(back, name) - getattr(ref, name)).max()
                worst = max(worst, float(diff))
    ok = worst <= 1e-9
    _report(5, ok, f"50 instances, max |backward - forward| = {worst:.2e}")


def test_criterion_6_tightness_ordering(suite):
    results, _ = suite
    violations = [
        (idx, len(r.poly_certified), int((r.interval_topk > 0).sum()))
        for idx, r in enumerate(results)
        if len(r.poly_certified) < int((r.interval_topk > 0).sum())
    ]
    strictly_greater = sum(
        1 for r in results if len(r.poly_certified) > int((r.interval_topk > 0).sum())
    )
    detail = (
        f"{len(results) - len(violations)}/{len(results)} instances satisfy the count "
        f"ordering (violations at {[v[0] for v in violations]}: poly vs interval counts "
        f"{[(v[1], v[2]) for v in violations]}); strictly greater on {strictly_greater} "
        f"({100 * strictly_greater / len(results):.0f}%)"
    )
    ok = not violations and strictly_greater >= 0.10 * len(results)
    _report(6, ok, detail)


def test_criterion_7_uncertainty_region_ordering(suite):
    results, _ = suite
    budgets = (1, 2, 3, 4, 5)
    violations = []
    for idx, r in enumerate(results):
        n = r.graph.num_nodes
        lowers_poly, uppers_poly, lowers_interval = [], [], []
        broken: set[int] = set()
        for total in budgets:
            budget = gc.PerturbationBudget(r.budget.per_node, total)
            judgments = gc.certify_sound(r.model, r.graph, budget, "topk")
            lowers_poly.append(sum(j.certified for j in judgments) / n)
            fresh = [j for j in judgments if not j.certified and j.node not in broken]
            broken |= set(gc.find_counterexamples(r.model, r.graph, budget, fresh))
            uppers_poly.append((n - len(broken)) / n)
            margins = gc.interval_certify(r.model, r.graph, budget, "topk")
            lowers_interval.append(float((margins > 0).sum()) / n)
        region_poly = gc.uncertainty_region(gc.RobustnessSweep(
            r.budget.per_node, budgets, np.array(lowers_poly), np.array(uppers_poly)))
        region_interval = gc.uncertainty_region(gc.RobustnessSweep(
            r.budget.per_node, budgets, np.array(lowers_interval), np.ones(len(budgets))))
        if region_poly > region_interval + 1e-12:
            violations.append((idx, region_poly, region_interval))
    # exact oracle as both bounds: region is identically zero (20-instance subset)
    oracle_zero_ok = True
    for r in results[:20]:
        limits = gc.oracle_max_robust_limits(r.model, r.graph, r.budget.per_node, max(budgets))
        ratios = np.array([(limits >= b).mean() for b in budgets])
        region = gc.uncertainty_region(gc.RobustnessSweep(
            r.budget.per_node, budgets, ratios, ratios.copy()))
        oracle_zero_ok = oracle_zero_ok and region == 0.0
    detail = (
        f"poly region <= interval-trivial region on {len(results) - len(violations)}"
        f"/{len(results)} instances (violations at {[v[0] for v in violations]}); "
        f"oracle-pair region == 0 on 20/20"
    )
    ok = not violations and oracle_zero_ok
    _report(7, ok, detail)


def test_criterion_8_collective_limits(suite):
    results, _ = suite
    cap = 6
    subset = [r for r in results if r.graph.num_nodes * r.graph.num_features <= 20][:40]
    above_oracle = 0
    below_interval = []
    for idx, r in enumerate(subset):
        poly = gc.compute_robust_limits(r.model, r.graph, 1, cap=cap, family="poly")
        interval = gc.compute_robust_limits(r.model, r.graph, 1, cap=cap, family="interval")
        true_limits = gc.oracle_max_robust_limits(r.model, r.graph, 1, cap)
        usable = ~poly.never_certified
        above_oracle += int((poly.limits[usable] > true_limits[usable]).sum())
        short = int((poly.limits < interval.limits).sum())
        if short:
            below_interval.append((idx, short))
    detail = (
        f"{len(subset)} instances: poly limits exceed the oracle {above_oracle} times; "
        f"poly < interval limits on instances {below_interval}"
    )
    ok = above_oracle == 0 and not below_interval
    _report(8, ok, detail)


def test_criterion_9_robust_training():
    start = time.perf_counter()
    graph, labels = helpers.planted_community_graph(np.random.default_rng(42), n=20, m0=6)
    w_rng = np.random.default_rng(7)
    baseline = gc.GcnModel((
        gc.GcnLayer(w_rng.uniform(-0.5, 0.5, (6, 4)), np.zeros(4)),
        gc.GcnLayer(w_rng.uniform(-0.5, 0.5, (4, 2)), np.zeros(2)),
    ))
    budget = gc.PerturbationBudget(per_node=1, total=2)

    def certified_ratio(model):
        judgments = gc.certify_sound(model, graph, budget, "topk")
        return gc.graph_robustness_ratio(judgments)

    def accuracy(model):
        return float((gc.predict(model, graph).labels == labels).mean())

    base_ratio, base_acc = certified_ratio(baseline), accuracy(baseline)
    config = gc.RobustLossConfig(kind="hinge")
    ratios, accuracies = [], []
    for seed in (0, 1, 2):
        trained = gc.train_robust(baseline, graph, labels, budget, config,
                                  steps=200, learning_rate=0.2, seed=seed, batch_size=8)
        ratios.append(certified_ratio(trained))
        accuracies.append(accuracy(trained))
    elapsed = time.perf_counter() - start
    mean_ratio = float(np.mean(ratios))
    mean_acc = float(np.mean(accuracies))
    ok = mean_ratio > base_ratio and (base_acc - mean_acc) <= 0.10 and elapsed < 600
    _report(9, ok, f"certified {base_ratio:.3f} -> {mean_ratio:.3f} (3 seeds), "
                   f"accuracy {base_acc:.3f} -> {mean_acc:.3f}, {elapsed:.0f} s")


def test_criterion_10_thread_determinism(suite, tmp_path):
    results, _ = suite
    mismatches = 0
    for idx, r in enumerate(results):
        gpath = tmp_path / f"g{idx}.json"
        mpath = tmp_path / f"m{idx}.json"
        fileio.save_graph(r.graph, str(gpath))
        fileio.save_model(r.model, str(mpath))
        payloads = []
        for threads in ("1", "8"):
            out = tmp_path / f"r{idx}_{threads}.csv"
            code = main(["certify", "--graph", str(gpath), "--model", str(mpath),
                         "--local", str(r.budget.per_node), "--global", str(r.budget.total),
                         "--threads", threads, "--output", str(out)])
            assert code == 0
            payloads.append(out.read_bytes())
            out.unlink()
        mismatches += payloads[0] != payloads[1]
        gpath.unlink()
        mpath.unlink()
    ok = mismatches == 0
    _report(10, ok, f"{len(results)} instances re-run with --threads 1 vs 8, "
                    f"{mismatches} byte mismatches")
