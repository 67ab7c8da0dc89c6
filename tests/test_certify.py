import numpy as np
import pytest

import gcncert as gc
import gcncert.certify
import helpers
from poly_oracle import per_node_judgments


def _delta_row(graph, model, budget, node, label, rival, variant="topk"):
    bounds = gc.interval_layer_bounds(model, graph, budget, variant)
    elem = gc.back_substitute(model, graph, node, bounds)
    return gc.label_difference_transform(elem, label, rival)


def test_label_difference_two_node(two_node):
    graph, model = two_node
    row = _delta_row(graph, model, gc.PerturbationBudget(1, 1), 0, 1, 0)
    assert row.rows == 1
    lo, up = gc.evaluate_bounds(row, graph.features)
    assert lo[0] == pytest.approx(1.0, abs=1e-9)  # 0.5 * (x[0,2] + x[1,2]) at X
    assert up[0] == pytest.approx(1.0, abs=1e-9)


def test_label_difference_equal_scores_is_zero():
    coef = np.array([[1.0, 2.0], [1.0, 2.0]])
    elem = gc.PolyNodeElement(np.array([0]), 2, coef, np.zeros(2), coef.copy(), np.zeros(2))
    row = gc.label_difference_transform(elem, 0, 1)
    assert np.allclose(row.lower_coef, 0) and np.allclose(row.upper_coef, 0)
    assert row.lower_const[0] == 0 and row.upper_const[0] == 0


def test_label_difference_swap_negates_and_swaps():
    coef = np.array([[1.0, 0.0], [0.0, 2.0]])
    elem = gc.PolyNodeElement(np.array([0]), 2, coef, np.array([0.1, 0.2]),
                              coef + 0.5, np.array([0.3, 0.4]))
    fwd = gc.label_difference_transform(elem, 0, 1)
    rev = gc.label_difference_transform(elem, 1, 0)
    assert np.allclose(rev.lower_coef, -fwd.upper_coef)
    assert np.allclose(rev.lower_const, -fwd.upper_const)
    assert np.allclose(rev.upper_coef, -fwd.lower_coef)
    assert np.allclose(rev.upper_const, -fwd.lower_const)


def test_label_difference_rejects_same_label():
    elem = gc.PolyNodeElement(np.array([0]), 1, np.zeros((2, 1)), np.zeros(2),
                              np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(gc.DataError):
        gc.label_difference_transform(elem, 1, 1)


def test_minimize_delta_two_node(two_node):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    row = _delta_row(graph, model, budget, 0, 1, 0)
    value, flips = gc.minimize_delta(row, graph.features, budget)
    assert value == pytest.approx(0.5, abs=1e-9)
    assert flips.flips == ((0, 2),)  # tie with (1, 2) broken toward the lower node


def test_minimize_delta_zero_budget(two_node):
    graph, model = two_node
    row = _delta_row(graph, model, gc.PerturbationBudget(1, 1), 0, 1, 0)
    value, flips = gc.minimize_delta(row, graph.features, gc.PerturbationBudget(1, 0))
    assert value == pytest.approx(1.0, abs=1e-9)
    assert len(flips) == 0


def test_minimize_delta_matches_bruteforce(rng):
    for _ in range(120):
        n_sub = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        var_nodes = np.sort(rng.choice(10, size=n_sub, replace=False))
        coef = rng.uniform(-2, 2, (1, n_sub * m))
        const = rng.uniform(-1, 1, 1)
        elem = gc.PolyNodeElement(var_nodes, m, coef, const, coef.copy(), const.copy())
        features = rng.integers(0, 2, (10, m))
        budget = gc.PerturbationBudget(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        value, flips = gc.minimize_delta(elem, features, budget)
        assert flips.within(budget)
        expected = helpers.brute_force_form_minimum(elem, features, budget)
        assert value == pytest.approx(expected, abs=1e-12)
        # the reported flip set realizes the reported value
        realized = elem.lower_coef[0] @ gc.apply_flips(features, flips)[var_nodes].ravel() + const[0]
        assert realized == pytest.approx(value, abs=1e-12)


def test_minimize_delta_direction_modes(rng):
    for _ in range(40):
        var_nodes = np.array([0, 1])
        coef = rng.uniform(-2, 2, (1, 4))
        elem = gc.PolyNodeElement(var_nodes, 2, coef, np.zeros(1), coef.copy(), np.zeros(1))
        features = rng.integers(0, 2, (2, 2))
        budget = gc.PerturbationBudget(1, 2)
        for mode in ("add-only", "delete-only"):
            value, flips = gc.minimize_delta(elem, features, budget, mode)
            assert value == pytest.approx(
                helpers.brute_force_form_minimum(elem, features, budget, mode), abs=1e-12
            )
            for i, j in flips:
                assert features[i, j] == (0 if mode == "add-only" else 1)


def test_minimize_delta_rejects_unknown_mode(two_node):
    graph, model = two_node
    row = _delta_row(graph, model, gc.PerturbationBudget(1, 1), 0, 1, 0)
    with pytest.raises(gc.DataError):
        gc.minimize_delta(row, graph.features, gc.PerturbationBudget(1, 1), "downhill")


def test_certify_sound_two_node(two_node):
    graph, model = two_node
    judgment = gc.certify_sound(model, graph, gc.PerturbationBudget(1, 1))[0]
    assert judgment.certified
    assert judgment.margin == pytest.approx(0.5, abs=1e-9)
    assert judgment.label == 1


def test_certify_sound_tied_scores_never_certified():
    # identical score columns keep the rival margin pinned at zero
    graph = gc.Graph(adjacency=np.zeros((1, 1), dtype=int), features=np.array([[1]]))
    model = gcn = gc.GcnModel((gc.GcnLayer(np.array([[1.0, 1.0]]), np.zeros(2)),))
    for total in (0, 1):
        judgment = gc.certify_sound(gcn, graph, gc.PerturbationBudget(1, total))[0]
        assert judgment.margin == pytest.approx(0.0)
        assert not judgment.certified


def test_certify_sound_subset_of_oracle(rng):
    for _ in range(10):
        graph, model, budget = helpers.trained_instance(rng)
        if graph.num_nodes * graph.num_features > 15:
            continue
        robust = helpers.brute_force_robust_nodes(model, graph, budget)
        for judgment in gc.certify_sound(model, graph, budget):
            if judgment.certified:
                assert robust[judgment.node]


def test_certify_sound_margin_monotone_in_total(rng):
    for _ in range(5):
        graph, model, _ = helpers.trained_instance(rng)
        previous = None
        for total in range(4):
            judgments = gc.certify_sound(model, graph, gc.PerturbationBudget(2, total))
            margins = np.array([j.margin for j in judgments])
            if previous is not None:
                assert (margins <= previous + 1e-12).all()
            previous = margins


def test_certify_sound_dominates_interval_box(rng):
    for _ in range(15):
        graph, model, budget = helpers.trained_instance(rng)
        out = gc.interval_layer_bounds(model, graph, budget, "topk")[-1]
        judgments = gc.certify_sound(model, graph, budget, "topk")
        for j in judgments:
            for rival, margin in j.rival_margins.items():
                assert margin >= out.lower[j.node, j.label] - out.upper[j.node, rival]
        certified = {j.node for j in judgments if j.certified}
        interval_certified = np.nonzero(gc.interval_certify(model, graph, budget, "topk") > 0)[0]
        assert set(interval_certified.tolist()) <= certified


def _chunks_of(monkeypatch, model, graph, size):
    """Make certify_sound cut its nodes into chunks of ``size``; returns the chunk lengths seen."""
    monkeypatch.setattr(
        gcncert.certify, "_CHUNK_ELEMENTS", size * gcncert.certify._target_elements(model, graph)
    )
    seen = []
    kernel = gcncert.certify.back_substitute_batch

    def spy(model, graph, nodes, *args, **kwargs):
        seen.append(len(nodes))
        return kernel(model, graph, nodes, *args, **kwargs)

    monkeypatch.setattr(gcncert.certify, "back_substitute_batch", spy)
    return seen


def test_certify_sound_thread_count_does_not_change_results(rng, monkeypatch):
    graph, model, budget = helpers.trained_instance(rng)
    seen = _chunks_of(monkeypatch, model, graph, 2)
    serial = gc.certify_sound(model, graph, budget, threads=1)
    threaded = gc.certify_sound(model, graph, budget, threads=4)
    assert len(seen) > 2  # several chunks, so the pool really shares them out
    assert serial == threaded


def _assert_same_judgments(got, expected, tol=1e-9):
    # flip sets and flags exactly, margins up to summation order
    assert [(j.node, j.label, j.certified, j.rival_flips) for j in got] == [
        (j.node, j.label, j.certified, j.rival_flips) for j in expected
    ]
    for a, b in zip(got, expected):
        assert list(a.rival_margins) == list(b.rival_margins)
        assert list(a.rival_margins.values()) == pytest.approx(list(b.rival_margins.values()), abs=tol)
        assert a.margin == pytest.approx(b.margin, abs=tol)


@pytest.mark.parametrize("mode", ["both", "add-only", "delete-only"])
def test_certify_sound_matches_per_node_reference(rng, mode):
    # forward propagation -> label_difference_transform -> plain greedy, node
    # by node, against the batched kernel; budgets include empty ones
    budgets = [None, gc.PerturbationBudget(0, 2), gc.PerturbationBudget(2, 0),
               gc.PerturbationBudget(1, 3), gc.PerturbationBudget(3, 1)]
    for trial in range(20):
        if trial % 2:
            graph, model, budget = helpers.trained_instance(rng)
        else:
            graph, model, budget = helpers.raw_instance(rng, num_layers=int(rng.integers(1, 4)))
        budget = budgets[trial % len(budgets)] or budget
        judgments = gc.certify_sound(model, graph, budget, mode=mode)
        _assert_same_judgments(judgments, per_node_judgments(model, graph, budget, mode=mode))


def test_chunk_boundary_does_not_change_judgments(rng, monkeypatch):
    for _ in range(5):
        graph, model, budget = helpers.trained_instance(rng)
        whole = gc.certify_sound(model, graph, budget)
        with monkeypatch.context() as patch:
            seen = _chunks_of(patch, model, graph, 3)
            chunked = gc.certify_sound(model, graph, budget)
        n = graph.num_nodes
        assert seen == [3] * (n // 3) + ([n % 3] if n % 3 else [])
        _assert_same_judgments(chunked, whole, tol=1e-12)


def test_output_follows_requested_node_order(rng, monkeypatch):
    graph, model, budget = helpers.trained_instance(rng)
    by_node = {j.node: j for j in gc.certify_sound(model, graph, budget)}
    n = graph.num_nodes
    order = [n - 1, 0, n - 1, n // 2, 0]
    _chunks_of(monkeypatch, model, graph, 2)
    assert gc.certify_sound(model, graph, budget, nodes=order) == [by_node[i] for i in order]
    assert gc.certify_sound(model, graph, budget, nodes=[]) == []


@pytest.mark.parametrize("case", ["node -1", "node n", "label -1", "label past the last",
                                  "unknown mode", "unknown mode, no nodes"])
def test_certify_sound_rejects_out_of_range_input(two_node, case):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    kwargs = {
        "node -1": {"nodes": [0, -1]},
        "node n": {"nodes": [graph.num_nodes]},
        "label -1": {"labels": np.array([-1, 0])},
        "label past the last": {"labels": np.array([0, model.num_labels])},
        "unknown mode": {"mode": "downhill"},
        "unknown mode, no nodes": {"mode": "downhill", "nodes": []},
    }[case]
    with pytest.raises(gc.DataError):
        gc.certify_sound(model, graph, budget, **kwargs)


def test_counterexample_skips_certified(two_node):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    judgment = gc.certify_sound(model, graph, budget)[0]
    assert gc.generate_counterexample(model, graph, budget, judgment) is None


def test_counterexample_on_exact_linear_model():
    graph, model, budget = helpers.flip_moves_label_example()
    judgment = gc.certify_sound(model, graph, budget)[0]
    assert judgment.label == 0
    assert judgment.margin == pytest.approx(-0.4, abs=1e-9)
    ce = gc.generate_counterexample(model, graph, budget, judgment)
    assert ce is not None
    assert ce.flips.flips == ((0, 0),)
    assert ce.flipped_label == 1


def test_counterexamples_always_verified(rng):
    for _ in range(15):
        graph, model, budget = helpers.trained_instance(rng)
        judgments = gc.certify_sound(model, graph, budget)
        norm = gc.normalize_adjacency(graph)
        base = gc.predict(model, graph).labels
        for node, ce in gc.find_counterexamples(model, graph, budget, judgments).items():
            assert ce.flips.within(budget)
            perturbed = gc.apply_flips(graph.features, ce.flips)
            new_label = np.argmax(gc.forward(model, norm, perturbed)[node])
            assert new_label != base[node]
            assert new_label == ce.flipped_label


def test_certify_complete_two_node(two_node):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    judgments = gc.certify_sound(model, graph, budget)
    assert gc.find_counterexamples(model, graph, budget, judgments) == {}


def test_certify_complete_flags_broken_node():
    graph, model, budget = helpers.flip_moves_label_example()
    judgments = gc.certify_sound(model, graph, budget)
    assert list(gc.find_counterexamples(model, graph, budget, judgments)) == [0]


def test_no_node_both_certified_and_broken(rng):
    for _ in range(10):
        graph, model, budget = helpers.trained_instance(rng)
        judgments = gc.certify_sound(model, graph, budget)
        counterexamples = gc.find_counterexamples(model, graph, budget, judgments)
        for judgment in judgments:
            assert not (judgment.certified and judgment.node in counterexamples)


def test_sound_and_complete_sandwich(rng):
    for _ in range(10):
        graph, model, budget = helpers.trained_instance(rng)
        if graph.num_nodes * graph.num_features > 15:
            continue
        robust = helpers.brute_force_robust_nodes(model, graph, budget)
        judgments = gc.certify_sound(model, graph, budget)
        broken = gc.find_counterexamples(model, graph, budget, judgments)
        for i, judgment in enumerate(judgments):
            assert not judgment.certified or robust[i]
            assert not robust[i] or i not in broken
