import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcncert as gc
import gcncert.certify
import gcncert.graph
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
    # numpy integers serve as budgets and indices like Python ints
    budget = gc.PerturbationBudget(np.int64(1), np.int32(1))
    assert gc.exact_node_robustness(model, graph, budget, np.int64(0))


@pytest.mark.parametrize("case", [
    "budget per-node 1.5", "budget total 2.0", "budget per-node True", "certify node 0.7",
    "certify node True", "certify float node array", "oracle node 0.5", "oracle node numpy True",
    "margins node 0.7", "margins node True",
    "batch node 0.7", "batch node True", "back_substitute node 0.7", "fields node 0.9",
    "counterexample row True", "margins float labels", "margins bool labels",
    "train float labels", "flip node 0.7", "flip node True",
])
def test_non_integer_budget_or_index_rejected(two_node, case):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    bounds = gc.interval_layer_bounds(model, graph, budget, "topk")
    certificate = gc.certify_sound(model, graph, budget)
    margins = gcncert.certify.rival_margins
    call = {
        "budget per-node 1.5": lambda: gc.PerturbationBudget(1.5, 2),
        "budget total 2.0": lambda: gc.PerturbationBudget(1, 2.0),
        "budget per-node True": lambda: gc.PerturbationBudget(True, 1),
        "certify node 0.7": lambda: gc.certify_sound(model, graph, budget, nodes=[0.7]),
        "certify node True": lambda: gc.certify_sound(model, graph, budget, nodes=[True]),
        "certify float node array":
            lambda: gc.certify_sound(model, graph, budget, nodes=np.array([1.0])),
        "oracle node 0.5": lambda: gc.exact_node_robustness(model, graph, budget, 0.5),
        "oracle node numpy True": lambda: gc.exact_node_robustness(model, graph, budget, np.True_),
        # rival_margins shares certify_sound's node check
        "margins node 0.7": lambda: gcncert.certify.rival_margins(
            model, graph, budget, "topk", np.array([1, 1]), np.array([0.7])),
        "margins node True": lambda: gcncert.certify.rival_margins(
            model, graph, budget, "topk", np.array([1, 1]), [True]),
        # the batch kernel takes its targets as hops, which its chunker builds
        "batch node 0.7": lambda: list(gcncert.certify._chunks(model, graph, [0.7])),
        "batch node True": lambda: list(gcncert.certify._chunks(model, graph, [True])),
        "back_substitute node 0.7": lambda: gc.back_substitute(model, graph, 0.7, bounds),
        "fields node 0.9": lambda: gcncert.graph.receptive_fields(graph, [0.9], 1),
        "counterexample row True":
            lambda: gc.generate_counterexample(model, graph, budget, certificate, True),
        "margins float labels":
            lambda: margins(model, graph, budget, "topk", np.array([1.0, 1.0]), np.arange(2)),
        "margins bool labels":
            lambda: margins(model, graph, budget, "topk", np.array([True, True]), np.arange(2)),
        "train float labels":
            lambda: gc.train_robust(model, graph, np.array([0.7, 1.0]), budget, 1, 0.1, 0),
        "flip node 0.7": lambda: gc.FlipSet(((0.7, 1),)),
        "flip node True": lambda: gc.FlipSet(((True, 0),)),
    }[case]
    with pytest.raises(gc.DataError, match="must be an integer"):
        call()


@pytest.mark.parametrize("case, message", [
    ("train steps 1.5", "must be an integer"),
    ("train batch_size 1.5", "must be an integer"),
    ("train steps -1", "at least 0"),
    ("limits cap 2.5", "must be an integer"),
    ("oracle cap 2.5", "must be an integer"),
    ("oracle cap True", "must be an integer"),
    ("oracle cap -1", "at least 0"),
    ("oracle cap '9'", "must be an integer"),
    ("node oracle cap 2.5", "must be an integer"),
    ("oracle limits cap -1", "at least 0"),
    ("enumeration cap True", "must be an integer"),
    ("train seed -1", "at least 0"),
    ("train seed 1.5", "must be an integer"),
    ("train seed True", "must be an integer"),
])
def test_non_integer_or_negative_count_rejected(two_node, case, message):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    labels = np.array([0, 1])
    call = {
        "train steps 1.5": lambda: gc.train_robust(model, graph, labels, budget, 1.5, 0.1, 0),
        "train batch_size 1.5":
            lambda: gc.train_robust(model, graph, labels, budget, 1, 0.1, 0, batch_size=1.5),
        "train steps -1": lambda: gc.train_robust(model, graph, labels, budget, -1, 0.1, 0),
        "limits cap 2.5": lambda: gc.compute_robust_limits(model, graph, 1, cap=2.5),
        "oracle cap 2.5": lambda: gc.exact_robust_nodes(model, graph, budget, cap=2.5),
        "oracle cap True": lambda: gc.exact_robust_nodes(model, graph, budget, cap=True),
        "oracle cap -1": lambda: gc.exact_robust_nodes(model, graph, budget, cap=-1),
        "oracle cap '9'": lambda: gc.exact_robust_nodes(model, graph, budget, cap="9"),
        "node oracle cap 2.5": lambda: gc.exact_node_robustness(model, graph, budget, 0, cap=2.5),
        "oracle limits cap -1": lambda: gc.oracle_max_robust_limits(model, graph, 1, 1, cap=-1),
        "enumeration cap True":
            lambda: list(gc.enumerate_perturbations(graph.features, budget, cap=True)),
        "train seed -1": lambda: gc.train_robust(model, graph, labels, budget, 1, 0.1, -1),
        "train seed 1.5": lambda: gc.train_robust(model, graph, labels, budget, 1, 0.1, 1.5),
        "train seed True": lambda: gc.train_robust(model, graph, labels, budget, 1, 0.1, True),
    }[case]
    with pytest.raises(gc.DataError, match=message):
        call()


@pytest.mark.parametrize("case, message", [
    ("field node -1", "node index"),
    ("field node 2", "node index"),
    ("flip_set row -1", "certificate row"),
    ("flip_set rival 7", "rival column"),
    ("flip_set row 5", "certificate row"),
    ("counterexample row -1", "certificate row"),
    ("counterexample row 2", "certificate row"),
    ("margins short labels", "labels"),
])
def test_out_of_range_index_or_short_labels_rejected(two_node, case, message):
    # each of these used to answer for another node, or to fail inside numpy
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    certificate = gc.certify_sound(model, graph, budget)
    call = {
        "field node -1": lambda: gcncert.graph.receptive_fields(graph, [-1], 2),
        "field node 2": lambda: gcncert.graph.receptive_fields(graph, [2], 2),
        "flip_set row -1": lambda: certificate.flip_set(-1, 0),
        "flip_set rival 7": lambda: certificate.flip_set(0, 7),
        "flip_set row 5": lambda: certificate.flip_set(5, 0),
        "counterexample row -1":
            lambda: gc.generate_counterexample(model, graph, budget, certificate, -1),
        "counterexample row 2":
            lambda: gc.generate_counterexample(model, graph, budget, certificate, 2),
        "margins short labels": lambda: gcncert.certify.rival_margins(
            model, graph, budget, "topk", np.array([1]), np.arange(2)),
    }[case]
    with pytest.raises(gc.DataError, match=message):
        call()


def test_numpy_integers_give_the_same_results_as_python_ints(two_node):
    graph, model = two_node
    budget = gc.PerturbationBudget(np.int64(1), np.int64(1))
    assert budget == gc.PerturbationBudget(1, 1)
    assert type(budget.per_node) is int and type(budget.total) is int
    want = gc.certify_sound(model, graph, gc.PerturbationBudget(1, 1), nodes=[1, 0])
    labels = gc.predict(model, graph).labels
    want_margins, _ = gcncert.certify.rival_margins(model, graph, budget, "topk",
                                                    labels.tolist(), [1, 0])
    for dtype in (np.int32, np.uint8):
        nodes = np.array([1, 0], dtype=dtype)
        got = gc.certify_sound(model, graph, budget, nodes=nodes)
        assert got.nodes.dtype == np.int64 and got.nodes.tolist() == [1, 0]
        assert got.rival_margins.tobytes() == want.rival_margins.tobytes()
        margins, _ = gcncert.certify.rival_margins(model, graph, budget, "topk",
                                                   labels.astype(dtype), nodes)
        assert margins.tobytes() == want_margins.tobytes()
        fields = gcncert.graph.receptive_fields(graph, nodes, 2)
        assert [front.tolist() for front, _ in fields] == [
            front.tolist() for front, _ in gcncert.graph.receptive_fields(graph, [1, 0], 2)]
    for row in range(2):
        assert want.flip_set(np.int64(row), np.int64(0)) == want.flip_set(row, 0)
        assert (gc.generate_counterexample(model, graph, budget, want, np.int64(row))
                == gc.generate_counterexample(model, graph, budget, want, row))
    flips = gc.FlipSet(((np.int64(1), np.uint8(2)),))
    assert flips == gc.FlipSet(((1, 2),)) and all(type(c) is int for c in flips.flips[0])
    trained = [gc.train_robust(model, graph, given, budget, 1, 0.1, seed)
               for given, seed in ((np.array([1, -1], dtype=np.int32), np.int64(3)), ([1, -1], 3))]
    for a, b in zip(*(t.layers for t in trained)):
        assert a.weight.tobytes() == b.weight.tobytes() and a.bias.tobytes() == b.bias.tobytes()


@pytest.mark.parametrize("scalar", [1, np.int64(1)])
def test_a_bare_integer_is_not_a_node_sequence(two_node, scalar):
    # one rule for every entry point that takes a sequence of nodes or labels
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    labels = gc.predict(model, graph).labels
    calls = [
        lambda: gc.certify_sound(model, graph, budget, nodes=scalar),
        lambda: gcncert.certify.rival_margins(model, graph, budget, "topk", labels, scalar),
        lambda: gcncert.graph.receptive_fields(graph, scalar, 1),
        lambda: gc.train_robust(model, graph, scalar, budget, 1, 0.1, 0),
    ]
    for call in calls:
        with pytest.raises(gc.DataError, match="must be a sequence"):
            call()
    # one node goes in a list
    assert gc.certify_sound(model, graph, budget, nodes=[1]).nodes.tolist() == [1]


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
    norm_adj = helpers.dense_norm_adj(graph)
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
    graph = helpers.graph_from_dense((upper | upper.T).astype(int),
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
def count_oracle_batches(monkeypatch):
    """The number of flip sets in each ``field_labels`` batch the oracle evaluates."""
    batches = []
    evaluate = gcncert.perturbation.field_labels

    def spy(model, graph, hops, sets, cells):
        batches.append(sets)
        return evaluate(model, graph, hops, sets, cells)

    monkeypatch.setattr(gcncert.perturbation, "field_labels", spy)
    return batches


def test_oracle_stops_at_the_batch_that_breaks_every_watched_node(count_oracle_batches,
                                                                  monkeypatch):
    # three isolated nodes with features [1, 0]: flipping (i, 0) moves node i
    # from label 0 to label 1, and flipping (i, 1) does nothing
    monkeypatch.setattr(gcncert.perturbation, "_COMBO_BLOCK", 2)
    graph = gc.Graph([], np.array([[1, 0]] * 3))
    model = gc.GcnModel((gc.GcnLayer(np.array([[0.5, 0.0], [0.0, 0.0]]), np.array([0.0, 0.4])),))
    budget = gc.PerturbationBudget(per_node=2, total=3)
    # a node's field is itself: its flip sets (i,0), (i,1) come in one batch of
    # 2 and (i,0)+(i,1) in a second, which a node broken in the first never runs
    assert np.array_equal(gc.oracle_max_robust_limits(model, graph, 2, 3), [0, 0, 0])
    assert count_oracle_batches == [2, 2, 2]
    count_oracle_batches.clear()
    assert not gc.exact_robust_nodes(model, graph, budget).any()
    assert count_oracle_batches == [2, 2, 2]
    for node in range(3):
        count_oracle_batches.clear()
        assert not gc.exact_node_robustness(model, graph, budget, node)
        assert count_oracle_batches == [2]
    # a model no flip can move enumerates every batch of every node
    steady = gc.GcnModel((gc.GcnLayer(np.array([[0.5, 0.0], [0.0, 0.0]]), np.array([0.0, 9.0])),))
    count_oracle_batches.clear()
    assert np.array_equal(gc.oracle_max_robust_limits(steady, graph, 2, 3), [3, 3, 3])
    assert count_oracle_batches == [2, 1] * 3


def test_node_check_enumerates_only_its_receptive_field(monkeypatch):
    # path 0-1-2-3-4 and a one-layer model: node 0's field is nodes 0 and 1
    adjacency = np.diag(np.ones(4, dtype=int), 1) + np.diag(np.ones(4, dtype=int), -1)
    graph = helpers.graph_from_dense(adjacency, features=np.array([[1, 0]] * 5))
    steady = gc.GcnModel((gc.GcnLayer(np.array([[0.5, 0.0], [0.0, 0.0]]), np.array([0.0, 9.0])),))
    budget = gc.PerturbationBudget(per_node=1, total=2)
    stacked, flipped = [], set()
    evaluate = gcncert.perturbation.field_labels

    def spy(model, graph, hops, sets, cells):
        stacked.append(sets)
        flipped.update(hops[-1][0][0, cells[1]].tolist())  # the nodes at the cells' slots
        return evaluate(model, graph, hops, sets, cells)

    monkeypatch.setattr(gcncert.perturbation, "field_labels", spy)
    assert gc.exact_node_robustness(steady, graph, budget, 0)
    # the 4 single cells, then the 4 pairs across the two nodes; the empty set changes nothing
    assert stacked == [4, 4] and flipped == {0, 1}
    stacked.clear()
    assert gc.exact_robust_nodes(steady, graph, budget).all()
    # one batch per size and node: 4 and 4 at each end, and 6 single cells and
    # 12 pairs across nodes in each 3-node field between
    assert stacked == [4, 4] + [6, 12] * 3 + [4, 4]
    # the cap counts the field's 4 cells (11 candidates), not the graph's 10 (56)
    assert gc.exact_node_robustness(steady, graph, budget, 0, cap=11)
    # node 1's field has 6 cells (22 candidates)
    with pytest.raises(gc.OracleInfeasibleError, match="node 1's receptive field needs 22"):
        gc.exact_robust_nodes(steady, graph, budget, cap=11)
    # every field fits under 22, so the whole graph's 56 candidates do not count
    assert gc.exact_robust_nodes(steady, graph, budget, cap=22).all()
