import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcncert as gc
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
