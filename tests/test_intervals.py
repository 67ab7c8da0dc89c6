import itertools
import tracemalloc

import numpy as np
import pytest

import gcncert as gc
import helpers


def test_linear_interval_degenerate_is_exact():
    elem = gc.IntervalElement(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    out = gc.linear_interval(elem, np.array([[1.0], [-1.0]]), np.zeros(1))
    assert np.allclose(out.lower, [[-1.0]]) and np.allclose(out.upper, [[-1.0]])


def test_linear_interval_brackets_all_corners():
    elem = gc.IntervalElement(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
    weight = np.array([[1.0], [-1.0]])
    out = gc.linear_interval(elem, weight, np.zeros(1))
    corners = [np.array(c, dtype=float) @ weight for c in itertools.product([0, 1], repeat=2)]
    assert out.lower[0, 0] == pytest.approx(min(c[0] for c in corners))
    assert out.upper[0, 0] == pytest.approx(max(c[0] for c in corners))


def test_linear_interval_zero_weight_gives_bias():
    elem = gc.IntervalElement(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
    out = gc.linear_interval(elem, np.zeros((2, 2)), np.array([3.0, -1.0]))
    assert np.allclose(out.lower, [[3.0, -1.0]]) and np.allclose(out.upper, [[3.0, -1.0]])


def test_linear_interval_dimension_mismatch():
    elem = gc.IntervalElement(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(gc.DimensionError):
        gc.linear_interval(elem, np.zeros((3, 1)), np.zeros(1))


def test_gc_interval_identity_and_loop():
    elem = gc.IntervalElement(np.array([[0.0], [2.0]]), np.array([[1.0], [2.0]]))
    same = gc.gc_interval(elem, np.eye(2))
    assert np.allclose(same.lower, elem.lower) and np.allclose(same.upper, elem.upper)
    loop = gc.gc_interval(elem, np.full((2, 2), 0.5))
    assert np.allclose(loop.lower, [[1.0], [1.0]])
    assert np.allclose(loop.upper, [[1.5], [1.5]])


def test_gc_interval_degenerate_matches_product():
    elem = gc.IntervalElement(np.array([[1.0], [3.0]]), np.array([[1.0], [3.0]]))
    norm = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = gc.gc_interval(elem, norm)
    assert np.allclose(out.lower, norm @ elem.lower)
    assert np.allclose(out.upper, out.lower)


def test_gc_interval_rejects_negative_weights():
    elem = gc.IntervalElement(np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(gc.DataError):
        gc.gc_interval(elem, np.array([[1.0, -0.1], [-0.1, 1.0]]))


def test_relu_interval_cases():
    elem = gc.IntervalElement(np.array([[-1.0, 1.0, -3.0]]), np.array([[2.0, 2.0, -1.0]]))
    out = gc.relu_interval(elem)
    assert np.allclose(out.lower, [[0.0, 1.0, 0.0]])
    assert np.allclose(out.upper, [[2.0, 2.0, 0.0]])


def test_input_abstraction_two_node_values(two_node):
    graph, model = two_node
    elem = gc.interval_input_abstraction(model, graph, gc.PerturbationBudget(1, 1), "topk")
    assert elem.lower[0] == pytest.approx([0.5, 1.0])
    assert elem.upper[0] == pytest.approx([1.0, 2.0])


def test_input_abstraction_zero_budget_exact(two_node):
    graph, model = two_node
    for variant in ("topk", "max"):
        elem = gc.interval_input_abstraction(model, graph, gc.PerturbationBudget(0, 3), variant)
        base = (helpers.dense_norm_adj(graph) @ graph.features) @ model.layers[0].weight
        assert np.allclose(elem.lower, base) and np.allclose(elem.upper, base)


def _first_layer_extremes(model, graph, budget, mode="both"):
    norm = helpers.dense_norm_adj(graph)
    layer = model.layers[0]
    lo = np.full((graph.num_nodes, layer.weight.shape[1]), np.inf)
    hi = -lo.copy()
    for combo in helpers.iter_flip_combos(graph.num_nodes, graph.num_features, budget):
        if not helpers.mode_allows(graph.features, combo, mode):
            continue
        h = (norm @ helpers.flipped(graph.features, combo)) @ layer.weight + layer.bias
        lo = np.minimum(lo, h)
        hi = np.maximum(hi, h)
    return lo, hi


def test_input_abstraction_topk_exact_for_first_layer(rng):
    for _ in range(8):
        graph, model, budget = helpers.raw_instance(rng)
        if graph.num_nodes * graph.num_features > 12:
            continue
        elem = gc.interval_input_abstraction(model, graph, budget, "topk")
        lo, hi = _first_layer_extremes(model, graph, budget)
        assert np.allclose(elem.lower, lo, atol=1e-9)
        assert np.allclose(elem.upper, hi, atol=1e-9)


@pytest.mark.parametrize("mode", ["add-only", "delete-only"])
def test_input_abstraction_mode_box_inside_both_box(rng, mode):
    for _ in range(12):
        graph, model, budget = helpers.raw_instance(rng)
        for variant in ("topk", "max"):
            both = gc.interval_input_abstraction(model, graph, budget, variant)
            one_way = gc.interval_input_abstraction(model, graph, budget, variant, mode=mode)
            assert (one_way.lower >= both.lower).all() and (one_way.upper <= both.upper).all()
        if graph.num_nodes * graph.num_features <= 12:  # topk stays exact under the mode
            lo, hi = _first_layer_extremes(model, graph, budget, mode)
            topk = gc.interval_input_abstraction(model, graph, budget, "topk", mode=mode)
            assert np.allclose(topk.lower, lo, atol=1e-9)
            assert np.allclose(topk.upper, hi, atol=1e-9)


def test_input_abstraction_unknown_mode(two_node):
    graph, model = two_node
    with pytest.raises(gc.DataError):
        gc.interval_input_abstraction(model, graph, gc.PerturbationBudget(1, 1), mode="sideways")


def test_input_abstraction_max_sound_but_looser(rng):
    for _ in range(8):
        graph, model, budget = helpers.raw_instance(rng)
        topk = gc.interval_input_abstraction(model, graph, budget, "topk")
        coarse = gc.interval_input_abstraction(model, graph, budget, "max")
        assert (coarse.lower <= topk.lower + 1e-12).all()
        assert (coarse.upper >= topk.upper - 1e-12).all()


def _dense_input_abstraction(model, graph, budget, variant):
    """Reference first-layer bounds over dense (n, n·k, m1) tensors: every node pair of Ã.

    The unperturbed term takes Ã·X from the graph's table, like the code under
    test; the property tests hold that product against the dense one.
    """
    norm_adj = helpers.dense_norm_adj(graph)
    layer0 = model.layers[0]
    base = (graph.norm_adj @ graph.features) @ layer0.weight + layer0.bias
    if budget.per_node == 0 or budget.total == 0:
        return base, base
    n, m0 = graph.features.shape
    m1 = layer0.weight.shape[1]
    cand = gc.sign_matrix(graph.features)[:, :, None] * layer0.weight[None, :, :]
    if variant == "topk":
        k_local = min(budget.per_node, m0)
        ordered = np.sort(cand, axis=1)
        neg = np.minimum(ordered[:, :k_local, :], 0.0)
        pos = np.maximum(ordered[:, -k_local:, :], 0.0)
        scaled_neg = (norm_adj[:, :, None, None] * neg[None, :, :, :]).reshape(n, -1, m1)
        scaled_pos = (norm_adj[:, :, None, None] * pos[None, :, :, :]).reshape(n, -1, m1)
        k_global = min(budget.total, scaled_neg.shape[1])
        # a running sum adds the picks one by one, whatever the output width
        dev_min = np.cumsum(np.sort(scaled_neg, axis=1)[:, :k_global, :], axis=1)[:, -1]
        dev_max = np.cumsum(np.sort(scaled_pos, axis=1)[:, -k_global:, :], axis=1)[:, -1]
    else:
        best_neg = np.minimum(cand.min(axis=1), 0.0)
        best_pos = np.maximum(cand.max(axis=1), 0.0)
        dev_min = budget.total * (norm_adj[:, :, None] * best_neg[None, :, :]).min(axis=1)
        dev_max = budget.total * (norm_adj[:, :, None] * best_pos[None, :, :]).max(axis=1)
    return base + dev_min, base + dev_max


def _sparse_instances(rng, count, widths):
    """Sparse random graphs whose node 0 has itself as its only neighbour, with every
    budget from zero up to per_node above m0 and total above the candidate count."""
    for _ in range(count):
        n, m0 = int(rng.integers(1, 25)), int(rng.integers(1, 6))
        adj = np.triu(rng.random((n, n)) < 0.15, 1).astype(int)
        adj = adj + adj.T
        adj[0] = adj[:, 0] = 0
        graph = helpers.graph_from_dense(adj, features=(rng.random((n, m0)) < 0.5).astype(int))
        m1 = int(rng.choice(widths))
        model = gc.GcnModel((gc.GcnLayer(rng.uniform(-1, 1, (m0, m1)),
                                         rng.uniform(-0.5, 0.5, m1)),))
        for per_node in range(m0 + 2):
            for total in (0, 1, 3, min(per_node, m0) * n + 2):
                yield graph, model, gc.PerturbationBudget(per_node, total)


@pytest.mark.parametrize("variant, widths", [("topk", (2, 3, 4)), ("max", (1, 2, 3, 4))],
                         ids=["topk", "max"])
def test_input_abstraction_matches_dense_reference(rng, variant, widths):
    for graph, model, budget in _sparse_instances(rng, 40, widths):
        elem = gc.interval_input_abstraction(model, graph, budget, variant)
        lower, upper = _dense_input_abstraction(model, graph, budget, variant)
        assert np.array_equal(elem.lower, lower) and np.array_equal(elem.upper, upper)


def test_input_abstraction_single_output_matches_dense_reference(rng):
    # with one output column a row's picks lie contiguous, where a plain sum
    # would add them pairwise and regroup with the count of zeros padding the
    # pool; the running sum keeps each bound equal to the dense rows' anyway
    for graph, model, budget in _sparse_instances(rng, 40, widths=(1,)):
        elem = gc.interval_input_abstraction(model, graph, budget, "topk")
        lower, upper = _dense_input_abstraction(model, graph, budget, "topk")
        assert np.array_equal(elem.lower, lower) and np.array_equal(elem.upper, upper)


def test_input_abstraction_memory_follows_neighbourhoods(rng):
    n = 300
    ring = np.roll(np.eye(n, dtype=int), 1, axis=1)
    graph = helpers.graph_from_dense(ring + ring.T, features=(rng.random((n, 8)) < 0.5).astype(int))
    model = gc.GcnModel((gc.GcnLayer(rng.uniform(-1, 1, (8, 8)), rng.uniform(-0.5, 0.5, 8)),))
    budget = gc.PerturbationBudget(8, 40)
    gc.interval_input_abstraction(model, graph, budget, "topk")  # builds the graph's caches
    tracemalloc.start()
    try:
        gc.interval_input_abstraction(model, graph, budget, "topk")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # dense (n, n·k, m1) candidate tensors would need over 100 MB here
    assert peak < 16 * 2**20


@pytest.mark.parametrize("variant", ["topk", "max"])
def test_interval_bounds_working_memory_is_bounded_at_4000_nodes(variant):
    # mean degree 5 (table width 15), a 32-16-4 model, budget 2/4: the whole-graph
    # candidate tensors and pools peaked at 79.6 MB (topk) and 40.1 MB (max) here;
    # row blocks leave about 6 MB, mostly the bounds themselves
    rng = np.random.default_rng(0)
    n, m0, hidden, labels = 4000, 32, 16, 4
    graph = gc.Graph(rng.integers(0, n, (n * 5 // 2, 2)), (rng.random((n, m0)) < 0.1).astype(int))
    model = gc.GcnModel(tuple(
        gc.GcnLayer(rng.uniform(-1, 1, (a, b)), rng.uniform(-0.5, 0.5, b))
        for a, b in ((m0, hidden), (hidden, labels))))
    graph.norm_adj  # cached input, not working memory
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bounds = gc.interval_layer_bounds(model, graph, gc.PerturbationBudget(2, 4), variant)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert bounds[-1].lower.shape == (n, labels)
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_input_abstraction_unknown_variant(two_node):
    graph, model = two_node
    with pytest.raises(gc.DataError):
        gc.interval_input_abstraction(model, graph, gc.PerturbationBudget(1, 1), "zonotope")


def test_interval_certify_two_node_margin(two_node):
    graph, model = two_node
    margins = gc.interval_certify(model, graph, gc.PerturbationBudget(1, 1), "topk")
    assert margins[0] == pytest.approx(-0.5, abs=1e-9)


def test_interval_certify_zero_budget_equals_score_margin(rng):
    graph, model, _ = helpers.raw_instance(rng)
    margins = gc.interval_certify(model, graph, gc.PerturbationBudget(0, 0), "topk")
    pred = gc.predict(model, graph)
    for i in range(graph.num_nodes):
        c = pred.labels[i]
        rivals = np.delete(pred.scores[i], c)
        assert margins[i] == pytest.approx(pred.scores[i, c] - rivals.max(), abs=1e-9)


def test_interval_certify_sound_against_bruteforce(rng):
    for _ in range(10):
        graph, model, budget = helpers.trained_instance(rng)
        if graph.num_nodes * graph.num_features > 15:
            continue
        robust = helpers.brute_force_robust_nodes(model, graph, budget)
        for variant in ("topk", "max"):
            margins = gc.interval_certify(model, graph, budget, variant)
            assert all(robust[i] for i in range(graph.num_nodes) if margins[i] > 0)


def test_interval_bounds_contain_all_reachable_latents(rng):
    for _ in range(6):
        graph, model, budget = helpers.raw_instance(rng)
        if graph.num_nodes * graph.num_features > 12:
            continue
        bounds = gc.interval_layer_bounds(model, graph, budget, "topk")
        norm = helpers.dense_norm_adj(graph)
        for combo in helpers.iter_flip_combos(graph.num_nodes, graph.num_features, budget):
            h = helpers.flipped(graph.features, combo).astype(float)
            for l, layer in enumerate(model.layers):
                h = (norm @ h) @ layer.weight + layer.bias
                assert (h >= bounds[l].lower - 1e-9).all()
                assert (h <= bounds[l].upper + 1e-9).all()
                if l < model.num_layers - 1:
                    h = np.maximum(h, 0.0)


def _interval_certify_loop(model, graph, budget, variant):
    # the per-node loop interval_certify replaced, kept as its reference
    out = gc.interval_layer_bounds(model, graph, budget, variant)[-1]
    labels = gc.predict(model, graph).labels
    n, num_labels = out.lower.shape
    margins = np.full(n, np.inf)
    for i in range(n):
        rivals = [c for c in range(num_labels) if c != labels[i]]
        if rivals:
            margins[i] = out.lower[i, labels[i]] - max(out.upper[i, c] for c in rivals)
    return margins


def test_interval_certify_matches_per_node_loop(rng):
    for trial in range(30):
        graph, model, budget = helpers.raw_instance(rng, num_layers=int(rng.integers(1, 4)))
        if trial % 5 == 0:  # a single-label model: no rival, margin inf
            last = model.layers[-1]
            model = gc.GcnModel(model.layers[:-1] + (gc.GcnLayer(last.weight[:, :1], last.bias[:1]),))
        for variant in ("topk", "max"):
            expected = _interval_certify_loop(model, graph, budget, variant)
            got = gc.interval_certify(model, graph, budget, variant)
            assert np.array_equal(got, expected)
            if model.num_labels == 1:
                assert np.isinf(got).all() and (got > 0).all()
