import numpy as np
import pytest

import gcncert as gc
import helpers
from gcncert.graph import field_slots, receptive_fields


def test_normalize_two_node_loop(two_node):
    graph, _ = two_node
    assert np.allclose(helpers.densify(gc.normalize_adjacency(graph)), [[0.5, 0.5], [0.5, 0.5]])


def test_normalize_isolated_node():
    graph = gc.Graph([], np.array([[1]]))
    assert np.allclose(helpers.densify(gc.normalize_adjacency(graph)), [[1.0]])


def test_normalize_three_node_path():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    graph = helpers.graph_from_dense(adj, features=np.zeros((3, 1), dtype=int))
    norm = helpers.densify(gc.normalize_adjacency(graph))
    assert norm[0, 1] == pytest.approx(1 / np.sqrt(6))
    assert norm[1, 1] == pytest.approx(1 / 3)
    # independent reconstruction through the defining matrix product
    a_hat = adj + np.eye(3)
    d_inv_sqrt = np.diag(1 / np.sqrt(a_hat.sum(axis=1)))
    assert np.allclose(norm, d_inv_sqrt @ a_hat @ d_inv_sqrt)


def test_normalize_symmetric_and_unit_range(rng):
    for _ in range(20):
        graph, _, _ = helpers.raw_instance(rng)
        norm = helpers.densify(gc.normalize_adjacency(graph))
        assert np.allclose(norm, norm.T)
        assert (norm >= 0).all() and (norm <= 1).all()


def test_norm_adj_is_cached_and_read_only(two_node):
    graph, _ = two_node
    assert graph.norm_adj is graph.norm_adj
    fresh = gc.normalize_adjacency(graph)
    for name in ("cols", "weights", "starts"):
        table = getattr(graph.norm_adj, name)
        assert np.array_equal(table, getattr(fresh, name))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


def test_neighbor_table_lists_each_rows_nonzero_entries(rng):
    for _ in range(10):
        graph, _, _ = helpers.raw_instance(rng)
        table = graph.norm_adj
        cols, weights, starts = table.cols, table.weights, table.starts
        for array in (cols, weights, starts):
            assert array.ndim == 1 and not array.flags.writeable
        assert cols.dtype == starts.dtype == np.int64 and weights.dtype == np.float64
        assert starts[0] == 0 and starts[-1] == len(cols) == len(weights)
        assert len(starts) == graph.num_nodes + 1
        assert (weights > 0).all()  # nonzero entries only, no padding
        for row in range(graph.num_nodes):  # columns ascending, the diagonal among them
            row_cols = cols[starts[row] : starts[row + 1]]
            assert (np.diff(row_cols) > 0).all() and row in row_cols
        # the same floats as the dense D^{-1/2} (A + I) D^{-1/2}, bit for bit
        assert np.array_equal(helpers.densify(table), helpers.dense_norm_adj(graph))
        # the block between consecutive padded hops is the dense one, padding reading 0
        dense = helpers.dense_norm_adj(graph)
        hops = receptive_fields(graph, rng.integers(0, graph.num_nodes, 4), 3)
        for (front, live), (next_front, next_live) in zip(hops, hops[1:]):
            expected = np.where(live[:, :, None] & next_live[:, None, :],
                                dense[front[:, :, None], next_front[:, None, :]], 0.0)
            assert np.array_equal(table.between((front, live), (next_front, next_live)),
                                  expected)


def _random_graph(rng):
    """A small random graph with some isolated nodes and some explicit self-loops."""
    n = int(rng.integers(1, 10))
    upper = np.triu(rng.random((n, n)) < 0.3, k=1)
    adj = (upper | upper.T).astype(int)
    isolated = rng.random(n) < 0.25
    adj[isolated] = 0
    adj[:, isolated] = 0
    adj[np.diag_indices(n)] = rng.random(n) < 0.4
    return helpers.graph_from_dense(adj, features=np.zeros((n, 1), dtype=int))


def test_receptive_fields_match_dense_reachability(rng):
    for _ in range(60):
        graph = _random_graph(rng)
        n = graph.num_nodes
        nodes = rng.integers(0, n, size=int(rng.integers(1, 7)))  # repeats allowed
        depth = int(rng.integers(0, 4))
        hops = receptive_fields(graph, nodes, depth)
        assert len(hops) == depth + 1
        for d, (front, live) in enumerate(hops):
            # H_d of node i: the nodes j with ((A + I)^d)[i, j] > 0
            a_hat = helpers.dense_adjacency(graph) + np.eye(n, dtype=int)
            reach = np.linalg.matrix_power(a_hat, d)[nodes] > 0
            assert front.shape == live.shape and front.shape[0] == len(nodes)
            assert (live.sum(axis=1) == reach.sum(axis=1)).all()
            assert live.shape[1] == reach.sum(axis=1).max()  # cut at the widest live row
            assert (live[:, :-1] >= live[:, 1:]).all()  # padding only at the end
            assert (front[~live] == 0).all()
            # every node's slot in every row, -1 where the row lacks the node
            rows, query = np.repeat(np.arange(len(nodes)), n), np.tile(np.arange(n), len(nodes))
            slots = field_slots(front, live, rows, query, n).reshape(len(nodes), n)
            for t, node in enumerate(nodes):
                row = front[t, live[t]]
                assert row.tolist() == np.flatnonzero(reach[t]).tolist()  # ascending
                alone, alone_live = receptive_fields(graph, [node], depth)[d]
                assert np.array_equal(alone[0, alone_live[0]], row)  # the row of the node alone
                expected = np.full(n, -1)
                expected[row] = np.arange(len(row))
                assert slots[t].tolist() == expected.tolist()


def test_receptive_fields_of_no_nodes_are_empty(two_node):
    graph, _ = two_node
    hops = receptive_fields(graph, np.zeros(0, dtype=int), 2)
    assert [front.shape for front, _ in hops] == [(0, 1), (0, 0), (0, 0)]
    assert [live.shape for _, live in hops] == [(0, 1), (0, 0), (0, 0)]


def test_forward_two_node_scores(two_node):
    graph, model = two_node
    scores = gc.forward(model, gc.normalize_adjacency(graph), graph.features)
    assert np.allclose(scores[0], [1.5, 2.5])


def test_forward_zero_features_zero_bias(rng):
    graph, model, _ = helpers.raw_instance(rng)
    zeroed = gc.GcnModel(tuple(gc.GcnLayer(l.weight, np.zeros_like(l.bias)) for l in model.layers))
    scores = gc.forward(zeroed, gc.normalize_adjacency(graph), np.zeros_like(graph.features))
    assert np.allclose(scores, 0.0)


def test_forward_single_node_identity():
    graph = gc.Graph([], np.array([[1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[1.0]]), np.zeros(1)),))
    scores = gc.forward(model, gc.normalize_adjacency(graph), graph.features)
    assert scores[0, 0] == pytest.approx(1.0)


def test_forward_dimension_mismatch(two_node):
    graph, model = two_node
    with pytest.raises(gc.DimensionError):
        gc.forward(model, gc.normalize_adjacency(graph), graph.features[:, :2])
    for bad in (graph.features[0], np.stack([graph.features[:1]] * 3)):
        with pytest.raises(gc.DimensionError):
            gc.forward(model, gc.normalize_adjacency(graph), bad)


def test_forward_on_a_stack_matches_each_matrix(rng):
    for _ in range(10):
        graph, model, _ = helpers.raw_instance(rng)
        stack = (rng.random((2, 3, graph.num_nodes, graph.num_features)) < 0.5).astype(int)
        scores = gc.forward(model, graph.norm_adj, stack)
        assert scores.shape == (2, 3, graph.num_nodes, model.num_labels)
        for index in np.ndindex(2, 3):
            assert np.array_equal(scores[index], gc.forward(model, graph.norm_adj, stack[index]))


def test_forward_permutation_equivariance(rng):
    for _ in range(15):
        n = 4
        adj = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i, j] = adj[j, i] = 1
        feats = rng.integers(0, 2, (n, 3))
        model = gc.GcnModel((
            gc.GcnLayer(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3)),
            gc.GcnLayer(rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, 2)),
        ))
        perm = rng.permutation(n)
        g1 = helpers.graph_from_dense(adj, features=feats)
        g2 = helpers.graph_from_dense(adj[np.ix_(perm, perm)], features=feats[perm])
        s1 = gc.forward(model, gc.normalize_adjacency(g1), g1.features)
        s2 = gc.forward(model, gc.normalize_adjacency(g2), g2.features)
        assert np.allclose(s1[perm], s2)


def test_forward_positive_region_is_linear(rng):
    # all-positive weights and biases keep every pre-activation positive, so
    # the network must coincide with its ReLU-free linear composition
    for _ in range(10):
        graph, model, _ = helpers.raw_instance(rng)
        positive = gc.GcnModel(tuple(
            gc.GcnLayer(np.abs(l.weight) + 0.1, np.abs(l.bias) + 0.1) for l in model.layers
        ))
        norm = gc.normalize_adjacency(graph)
        h = graph.features.astype(float)
        for layer in positive.layers:
            h = (norm @ h) @ layer.weight + layer.bias
        assert np.allclose(gc.forward(positive, norm, graph.features), h)


def test_predict_two_node_label(two_node):
    graph, model = two_node
    assert gc.predict(model, graph).labels[0] == 1


def test_predict_tie_breaks_to_lowest_label():
    graph = gc.Graph([], np.array([[1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[0.0, 0.0]]), np.array([2.0, 2.0])),))
    assert gc.predict(model, graph).labels[0] == 0


def test_predict_rowwise_argmax():
    graph = gc.Graph([], np.array([[1], [0]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[3.0, -4.0]]), np.array([0.0, 5.0])),))
    pred = gc.predict(model, graph)
    assert np.allclose(pred.scores, [[3, 1], [0, 5]])
    assert pred.labels.tolist() == [0, 1]


def test_graph_rejects_broken_invariants():
    for edges in ([[0, 2]], [[-1, 0]], [[0, 1, 1]], [0, 1]):
        with pytest.raises(gc.DataError):
            gc.Graph(edges, np.zeros((2, 1), dtype=int))
    with pytest.raises(gc.DataError):
        gc.Graph([], np.zeros((0, 1), dtype=int))
    with pytest.raises(gc.DataError):
        gc.Graph([], np.array([[0], [2]]))


def test_model_rejects_broken_chain():
    with pytest.raises(gc.DimensionError):
        gc.GcnModel((
            gc.GcnLayer(np.zeros((3, 2)), np.zeros(2)),
            gc.GcnLayer(np.zeros((3, 2)), np.zeros(2)),
        ))
    with pytest.raises(gc.DimensionError):
        gc.GcnLayer(np.zeros((3, 2)), np.zeros(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["weight", "bias"])
def test_layer_rejects_non_finite_parameters(part, value):
    weight, bias = np.ones((2, 2)), np.zeros(2)
    (weight if part == "weight" else bias)[-1] = value
    with pytest.raises(gc.DataError):
        gc.GcnLayer(weight, bias)


@pytest.mark.parametrize("adjacency, features, message", [
    ([[0, 0.5]], [[1], [0]], "adjacency"),
    ([[0, 1]], [[1.7], [0.2]], "feature"),
    ([[0, np.nan]], [[1], [0]], "adjacency"),
    ([[0, 1]], [[np.nan], [0]], "feature"),
])
def test_graph_checks_values_before_casting(adjacency, features, message):
    # the adjacency is an edge list, and edge node 0.5 must not truncate to node 0
    expected = {"adjacency": "edge node must be an integer",
                "feature": "feature entries must be 0 or 1"}[message]
    with pytest.raises(gc.DataError, match=expected):
        gc.Graph(np.array(adjacency), np.array(features))


@pytest.mark.parametrize("value", [0, 1, 2, -1, 0.5, 1.0, np.nan, np.inf, True])
def test_graph_binary_check_matches_isin(value):
    features = np.array([[0], [value]])
    if np.isin(features, (0, 1)).all():
        assert gc.Graph([[0, 1]], features).features.dtype == np.uint8
    else:
        with pytest.raises(gc.DataError, match="feature entries must be 0 or 1"):
            gc.Graph([[0, 1]], features)
