import numpy as np
import pytest

import gcncert as gc
import helpers


def _judgment(*certified):
    """A certificate with one row per flag: label 0 against rival 1, margin +1 or -1, no picks."""
    n = len(certified)
    margins = np.where(certified, 1.0, -1.0).reshape(n, 1)
    none = np.zeros(0, dtype=np.int64)
    labels, rivals = np.zeros(n, dtype=np.int64), np.ones((n, 1), dtype=np.int64)
    return gc.Certificate(np.arange(n), labels, rivals, margins, none, none, none, none)


def test_ratio_examples():
    assert gc.graph_robustness_ratio(_judgment(True, True, True)) == 1.0
    assert gc.graph_robustness_ratio(_judgment(False, False, False)) == 0.0
    assert gc.graph_robustness_ratio(_judgment(True, True, True, False)) == 0.75


def test_ratio_rejects_empty():
    with pytest.raises(gc.DataError):
        gc.graph_robustness_ratio(_judgment())


def test_uncertainty_region_exact_pair_is_zero():
    sweep = gc.RobustnessSweep(1, (1, 2, 3), np.array([0.5, 0.4, 0.2]), np.array([0.5, 0.4, 0.2]))
    assert gc.uncertainty_region(sweep) == 0.0


def test_uncertainty_region_maximal():
    budgets = tuple(range(1, 51))
    sweep = gc.RobustnessSweep(1, budgets, np.zeros(50), np.ones(50))
    assert gc.uncertainty_region(sweep) == pytest.approx(50.0)


def test_uncertainty_region_two_node_poly_pair(two_node):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    certificate = gc.certify_sound(model, graph, budget)
    lower = gc.graph_robustness_ratio(certificate)
    broken = gc.find_counterexamples(model, graph, budget, certificate)
    upper = (graph.num_nodes - len(broken)) / graph.num_nodes
    sweep = gc.RobustnessSweep(1, (1,), np.array([lower]), np.array([upper]))
    assert gc.uncertainty_region(sweep) == pytest.approx(0.0)


def test_uncertainty_region_rejects_inverted_bounds():
    sweep = gc.RobustnessSweep(1, (1,), np.array([0.8]), np.array([0.5]))
    with pytest.raises(gc.DataError):
        gc.uncertainty_region(sweep)


def test_sweep_shape_validation():
    with pytest.raises(gc.DataError):
        gc.RobustnessSweep(1, (1, 2), np.zeros(3), np.ones(3))
    # a short runtime column would make write_sweep_csv drop a budget's row
    with pytest.raises(gc.DataError):
        gc.RobustnessSweep(1, (1, 2), np.zeros(2), np.ones(2), runtime_ms=np.array([3.0]))


def test_oracle_pair_region_is_zero(rng):
    graph, model, _ = helpers.trained_instance(rng)
    budgets = (1, 2)
    ratios = []
    for total in budgets:
        robust = gc.exact_robust_nodes(model, graph, gc.PerturbationBudget(1, total))
        ratios.append(robust.mean())
    sweep = gc.RobustnessSweep(1, budgets, np.array(ratios), np.array(ratios))
    assert gc.uncertainty_region(sweep) == 0.0
