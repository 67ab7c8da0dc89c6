import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcncert as gc
import gcncert.perturbation
import helpers


def test_sign_matrix_examples():
    assert np.array_equal(gc.sign_matrix(np.array([[0, 1]])), [[1.0, -1.0]])
    assert np.array_equal(gc.sign_matrix(np.zeros((2, 3), dtype=int)), np.ones((2, 3)))
    assert np.array_equal(gc.sign_matrix(np.ones((2, 3), dtype=int)), -np.ones((2, 3)))


def test_apply_flips_examples():
    x = np.array([[0, 1]])
    assert np.array_equal(gc.apply_flips(x, gc.FlipSet(((0, 0),))), [[1, 1]])
    assert np.array_equal(gc.apply_flips(x, gc.EMPTY_FLIPSET), x)
    assert np.array_equal(gc.apply_flips(x, gc.FlipSet(((0, 0), (0, 1)))), [[1, 0]])


def test_apply_flips_out_of_range():
    with pytest.raises(gc.DataError):
        gc.apply_flips(np.array([[0, 1]]), gc.FlipSet(((1, 0),)))


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_apply_flips_involution(n, m, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m))
    x = np.array(bits).reshape(n, m)
    cells = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    flips = gc.FlipSet(tuple(cells))
    assert np.array_equal(gc.apply_flips(gc.apply_flips(x, flips), flips), x)


def test_flipset_rejects_duplicates():
    with pytest.raises(gc.DataError):
        gc.FlipSet(((0, 0), (0, 0)))


def test_enumerate_counting_examples():
    one = list(gc.enumerate_perturbations(np.zeros((1, 2), dtype=int), gc.PerturbationBudget(1, 1)))
    assert len(one) == 3
    two = list(gc.enumerate_perturbations(np.zeros((2, 1), dtype=int), gc.PerturbationBudget(1, 2)))
    assert len(two) == 4
    assert any(len(fs) == 2 for fs in two)
    null = list(gc.enumerate_perturbations(np.zeros((2, 2), dtype=int), gc.PerturbationBudget(1, 0)))
    assert null == [gc.EMPTY_FLIPSET]


def test_enumerate_unique_within_budget_and_complete(rng):
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        budget = gc.PerturbationBudget(int(rng.integers(0, 3)), int(rng.integers(0, 4)))
        x = rng.integers(0, 2, (n, m))
        got = list(gc.enumerate_perturbations(x, budget))
        assert len(set(fs.flips for fs in got)) == len(got)
        assert all(fs.within(budget) for fs in got)
        expected = set(helpers.iter_flip_combos(n, m, budget))
        assert set(fs.flips for fs in got) == {tuple(sorted(c)) for c in expected}


def test_enumerate_order_is_by_size_then_lexicographic():
    got = list(gc.enumerate_perturbations(np.zeros((2, 2), dtype=int), gc.PerturbationBudget(2, 2)))
    sizes = [len(fs) for fs in got]
    assert sizes == sorted(sizes)
    pairs_of_size_two = [fs.flips for fs in got if len(fs) == 2]
    assert pairs_of_size_two == sorted(pairs_of_size_two)


def test_enumerate_cap_exceeded():
    x = np.zeros((4, 5), dtype=int)
    with pytest.raises(gc.OracleInfeasibleError):
        list(gc.enumerate_perturbations(x, gc.PerturbationBudget(2, 3), cap=10))


def test_exact_robustness_zero_budget_always_true(rng):
    graph, model, _ = helpers.raw_instance(rng)
    budget = gc.PerturbationBudget(1, 0)
    assert gc.exact_robust_nodes(model, graph, budget).all()
    assert gc.exact_node_robustness(model, graph, budget, 0)


def test_exact_robustness_two_node_example(two_node):
    graph, model = two_node
    assert gc.exact_node_robustness(model, graph, gc.PerturbationBudget(1, 1), 0)


def test_exact_robustness_matches_independent_bruteforce(rng):
    for _ in range(8):
        graph, model, budget = helpers.raw_instance(rng)
        if graph.num_nodes * graph.num_features > 15:
            continue
        expected = helpers.brute_force_robust_nodes(model, graph, budget)
        assert np.array_equal(gc.exact_robust_nodes(model, graph, budget), expected)
        node = int(rng.integers(0, graph.num_nodes))
        assert gc.exact_node_robustness(model, graph, budget, node) == expected[node]


def test_exact_robustness_monotone_in_budget(rng):
    for _ in range(5):
        graph, model, _ = helpers.trained_instance(rng)
        previous = None
        for total in range(4):
            robust = gc.exact_robust_nodes(model, graph, gc.PerturbationBudget(2, total))
            if previous is not None:
                assert (robust <= previous).all()
            previous = robust


def test_oracle_max_limits_match_per_budget_enumeration(rng):
    graph, model, _ = helpers.trained_instance(rng)
    cap = 4
    limits = gc.oracle_max_robust_limits(model, graph, 1, cap)
    for node in range(graph.num_nodes):
        expected = cap
        for total in range(1, cap + 1):
            if not gc.exact_node_robustness(model, graph, gc.PerturbationBudget(1, total), node):
                expected = total - 1
                break
        assert limits[node] == expected


def _smallest_break_reference(model, graph, budget) -> np.ndarray:
    """Per node, the fewest flips that change its label; ``budget.total + 1`` if none do."""
    norm_adj = gc.normalize_adjacency(graph)
    base = np.argmax(gc.forward(model, norm_adj, graph.features), axis=1)
    smallest = np.full(graph.num_nodes, budget.total + 1)
    for combo in helpers.iter_flip_combos(graph.num_nodes, graph.num_features, budget):
        scores = gc.forward(model, norm_adj, helpers.flipped(graph.features, combo))
        broken = np.argmax(scores, axis=1) != base
        smallest[broken] = np.minimum(smallest[broken], len(combo))
    return smallest


def _tiny_instance(rng):
    """Random graph with n * m <= 12 cells and a 1- or 2-layer model over 1 to 3 labels."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 12 // n + 1))
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    graph = gc.Graph(adjacency=(upper | upper.T).astype(int),
                     features=(rng.random((n, m)) < 0.5).astype(int))
    widths = [m] + [int(rng.integers(1, 4))] * int(rng.integers(0, 2)) + [int(rng.integers(1, 4))]
    model = gc.GcnModel(tuple(
        gc.GcnLayer(rng.uniform(-1, 1, (a, b)), rng.uniform(-0.5, 0.5, b))
        for a, b in zip(widths, widths[1:])
    ))
    budget = gc.PerturbationBudget(per_node=int(rng.integers(0, 3)), total=int(rng.integers(0, 4)))
    return graph, model, budget


def test_oracle_functions_match_smallest_break_reference(rng):
    sizes = []
    for _ in range(60):
        graph, model, budget = _tiny_instance(rng)
        smallest = _smallest_break_reference(model, graph, budget)
        robust = smallest > budget.total
        assert np.array_equal(gc.exact_robust_nodes(model, graph, budget), robust)
        for node in range(graph.num_nodes):
            assert gc.exact_node_robustness(model, graph, budget, node) == robust[node]
        limits = gc.oracle_max_robust_limits(model, graph, budget.per_node, budget.total)
        assert np.array_equal(limits, smallest - 1)
        sizes.extend(smallest[~robust].tolist())
    assert {1, 2, 3} <= set(sizes)  # breaks of every size were compared


@pytest.fixture
def count_oracle_forward(monkeypatch):
    calls = []
    batched = gcncert.perturbation.forward

    def spy(*args, **kwargs):
        calls.append(1)
        return batched(*args, **kwargs)

    monkeypatch.setattr(gcncert.perturbation, "forward", spy)
    monkeypatch.setattr(gcncert.perturbation, "_FORWARD_CHUNK", 4)
    return calls


def test_oracle_stops_at_the_batch_that_breaks_every_watched_node(count_oracle_forward):
    # three isolated nodes with features [1, 0]: flipping (i, 0) moves node i
    # from label 0 to label 1, and flipping (i, 1) does nothing
    graph = gc.Graph(adjacency=np.zeros((3, 3), dtype=int), features=np.array([[1, 0]] * 3))
    model = gc.GcnModel((gc.GcnLayer(np.array([[0.5, 0.0], [0.0, 0.0]]), np.array([0.0, 0.4])),))
    budget = gc.PerturbationBudget(per_node=2, total=3)
    # 42 flip sets in 11 batches of 4; the first holds {}, (0,0), (0,1), (1,0)
    # and the second (1,1), (2,0), ...
    assert len(list(gc.enumerate_perturbations(graph.features, budget))) == 42
    assert np.array_equal(gc.oracle_max_robust_limits(model, graph, 2, 3), [0, 0, 0])
    assert len(count_oracle_forward) == 2
    count_oracle_forward.clear()
    assert not gc.exact_robust_nodes(model, graph, budget).any()
    assert len(count_oracle_forward) == 2
    for node, batches in ((0, 1), (1, 1), (2, 2)):
        count_oracle_forward.clear()
        assert not gc.exact_node_robustness(model, graph, budget, node)
        assert len(count_oracle_forward) == batches
    # a model no flip can move enumerates every batch
    steady = gc.GcnModel((gc.GcnLayer(np.array([[0.5, 0.0], [0.0, 0.0]]), np.array([0.0, 9.0])),))
    count_oracle_forward.clear()
    assert np.array_equal(gc.oracle_max_robust_limits(steady, graph, 2, 3), [3, 3, 3])
    assert len(count_oracle_forward) == 11
