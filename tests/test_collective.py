import numpy as np
import pytest

import gcncert as gc
import gcncert.collective
import gcncert.graph
import helpers


def _per_node_walk(model, graph, node, cap, family):
    """Reference: walk one node's budgets up from zero with its own certifier calls."""
    for total in range(cap + 1):
        budget = gc.PerturbationBudget(1, total)
        if family == "poly":
            certified = gc.certify_sound(model, graph, budget, nodes=[node]).certified[0]
        else:
            certified = gc.interval_certify(model, graph, budget)[node] > 0
        if not certified:
            return max(total - 1, 0), total == 0
    return cap, False


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("family", ["poly", "interval"])
def test_limit_matches_direct_budget_walk(rng, family):
    # the budget-outer walk over the whole graph equals one walk per node
    for _ in range(3):
        graph, model, _ = helpers.trained_instance(rng)
        cap = 5
        limits = gc.compute_robust_limits(model, graph, 1, cap=cap, family=family)
        for node in range(graph.num_nodes):
            got = (int(limits.limits[node]), bool(limits.never_certified[node]))
            assert got == _per_node_walk(model, graph, node, cap, family)


def test_certified_at_every_budget_up_to_limit(rng):
    graph, model, _ = helpers.trained_instance(rng)
    limits = gc.compute_robust_limits(model, graph, 1, cap=4)
    for node in range(graph.num_nodes):
        if limits.never_certified[node]:
            continue
        for total in range(int(limits.limits[node]) + 1):
            budget = gc.PerturbationBudget(1, total)
            assert gc.certify_sound(model, graph, budget, nodes=[node]).certified[0]


def test_never_certified_flag_for_tied_scores(monkeypatch):
    graph = gc.Graph(adjacency=np.zeros((1, 1), dtype=int), features=np.array([[1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[1.0, 1.0]]), np.zeros(2)),))
    calls = _count_calls(monkeypatch, gcncert.collective, "certify_sound")
    limits = gc.compute_robust_limits(model, graph, 1, cap=3)
    assert limits.limits[0] == 0 and limits.never_certified[0]
    assert len(calls) == 1  # the walk stops once no node is left


def test_two_node_limit_at_least_one(two_node):
    graph, model = two_node
    limits = gc.compute_robust_limits(model, graph, 1, cap=4)
    assert not limits.never_certified[0] and limits.limits[0] >= 1


def test_limits_never_exceed_oracle(rng):
    for _ in range(6):
        graph, model, _ = helpers.trained_instance(rng)
        if graph.num_nodes * graph.num_features > 15:
            continue
        cap = 4
        limits = gc.compute_robust_limits(model, graph, 1, cap=cap)
        true_limits = gc.oracle_max_robust_limits(model, graph, 1, cap)
        never = limits.never_certified
        assert (limits.limits[~never] <= true_limits[~never]).all()


def test_cap_reported_for_permanently_robust_node():
    # constant positive margin that no flip can touch: the walk hits the cap
    graph = gc.Graph(adjacency=np.zeros((1, 1), dtype=int), features=np.array([[1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[0.0, 0.0]]), np.array([0.3, 0.0])),))
    limits = gc.compute_robust_limits(model, graph, 1, cap=7)
    assert limits.limits[0] == 7 and not limits.never_certified[0]


def test_interval_family_limits(rng):
    graph, model, _ = helpers.trained_instance(rng)
    limits = gc.compute_robust_limits(model, graph, 1, cap=3, family="interval")
    assert ((limits.limits >= 0) & (limits.limits <= 3)).all()
    with pytest.raises(gc.DataError):
        gc.compute_robust_limits(model, graph, 1, family="zonotope")
    with pytest.raises(gc.DataError):
        gc.compute_robust_limits(model, graph, 1, cap=-1)


@pytest.mark.parametrize("mode", ["add-only", "delete-only"])
def test_interval_family_rejects_a_direction_mode(two_node, mode):
    # interval_certify cannot restrict flip direction, so the mode would be ignored
    graph, model = two_node
    with pytest.raises(gc.DataError, match="mode"):
        gc.compute_robust_limits(model, graph, 1, cap=2, family="interval", mode=mode)
    assert gc.compute_robust_limits(model, graph, 1, cap=2, family="poly", mode=mode).search_cap == 2


@pytest.mark.parametrize("family", ["poly", "interval"])
def test_one_certifier_call_per_budget(monkeypatch, family):
    # ten nodes that stay certified up to the cap: one call per budget, not per node
    graph = gc.Graph(adjacency=np.zeros((10, 10), dtype=int),
                     features=np.ones((10, 1), dtype=int))
    model = gc.GcnModel((gc.GcnLayer(np.array([[0.0, 0.0]]), np.array([0.3, 0.0])),))
    poly_calls = _count_calls(monkeypatch, gcncert.collective, "certify_sound")
    interval_calls = _count_calls(monkeypatch, gcncert.collective, "interval_certify")
    cap = 3
    limits = gc.compute_robust_limits(model, graph, 1, cap=cap, family=family)
    assert (limits.limits == cap).all()
    assert len(poly_calls) + len(interval_calls) <= cap + 1


def test_graph_is_normalized_once(monkeypatch):
    graph, model, budget = helpers.flip_moves_label_example()
    calls = _count_calls(monkeypatch, gcncert.graph, "normalize_adjacency")
    certificate = gc.certify_sound(model, graph, budget)
    counterexamples = gc.find_counterexamples(model, graph, budget, certificate)
    assert counterexamples  # replay ran and read Ã
    gc.compute_robust_limits(model, graph, 1, cap=3)
    gc.compute_robust_limits(model, graph, 1, cap=3, family="interval")
    assert len(calls) == 1
