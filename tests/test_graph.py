import numpy as np
import pytest

import gcncert as gc
import helpers
from gcncert.graph import receptive_field, receptive_fields


def test_normalize_two_node_loop(two_node):
    graph, _ = two_node
    assert np.allclose(gc.normalize_adjacency(graph), [[0.5, 0.5], [0.5, 0.5]])


def test_normalize_isolated_node():
    graph = gc.Graph(adjacency=np.zeros((1, 1), dtype=int), features=np.array([[1]]))
    assert np.allclose(gc.normalize_adjacency(graph), [[1.0]])


def test_normalize_three_node_path():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    graph = gc.Graph(adjacency=adj, features=np.zeros((3, 1), dtype=int))
    norm = gc.normalize_adjacency(graph)
    assert norm[0, 1] == pytest.approx(1 / np.sqrt(6))
    assert norm[1, 1] == pytest.approx(1 / 3)
    # independent reconstruction through the defining matrix product
    a_hat = adj + np.eye(3)
    d_inv_sqrt = np.diag(1 / np.sqrt(a_hat.sum(axis=1)))
    assert np.allclose(norm, d_inv_sqrt @ a_hat @ d_inv_sqrt)


def test_normalize_symmetric_and_unit_range(rng):
    for _ in range(20):
        graph, _, _ = helpers.raw_instance(rng)
        norm = gc.normalize_adjacency(graph)
        assert np.allclose(norm, norm.T)
        assert (norm >= 0).all() and (norm <= 1).all()


def test_norm_adj_is_cached_and_read_only(two_node):
    graph, _ = two_node
    assert graph.norm_adj is graph.norm_adj
    assert np.array_equal(graph.norm_adj, gc.normalize_adjacency(graph))
    assert not graph.norm_adj.flags.writeable
    with pytest.raises(ValueError):
        graph.norm_adj[0, 0] = 1.0


def test_neighbor_table_lists_each_rows_nonzero_entries(rng):
    for _ in range(10):
        graph, _, _ = helpers.raw_instance(rng)
        cols, weights = graph.neighbors
        assert graph.neighbors[0] is cols and graph.neighbors[1] is weights
        assert not cols.flags.writeable and not weights.flags.writeable
        live = weights > 0
        assert (live[:, :-1] >= live[:, 1:]).all()  # padding only at the end of a row
        assert live.all(axis=1).any()  # padded to the widest row, no wider
        assert (cols[~live] == 0).all()
        rebuilt = np.zeros_like(graph.norm_adj)
        rows = np.repeat(np.arange(graph.num_nodes), cols.shape[1])
        np.add.at(rebuilt, (rows, cols.ravel()), weights.ravel())
        assert np.array_equal(rebuilt, graph.norm_adj)


def _random_graph(rng):
    """A small random graph with some isolated nodes and some explicit self-loops."""
    n = int(rng.integers(1, 10))
    upper = np.triu(rng.random((n, n)) < 0.3, k=1)
    adj = (upper | upper.T).astype(int)
    isolated = rng.random(n) < 0.25
    adj[isolated] = 0
    adj[:, isolated] = 0
    adj[np.diag_indices(n)] = rng.random(n) < 0.4
    return gc.Graph(adjacency=adj, features=np.zeros((n, 1), dtype=int))


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
            reach = np.linalg.matrix_power(graph.adjacency + np.eye(n, dtype=int), d)[nodes] > 0
            assert front.shape == live.shape and front.shape[0] == len(nodes)
            assert (live.sum(axis=1) == reach.sum(axis=1)).all()
            assert live.shape[1] == reach.sum(axis=1).max()  # cut at the widest live row
            assert (live[:, :-1] >= live[:, 1:]).all()  # padding only at the end
            assert (front[~live] == 0).all()
            for t, node in enumerate(nodes):
                row = front[t, live[t]]
                assert row.tolist() == np.flatnonzero(reach[t]).tolist()  # ascending
                assert np.array_equal(receptive_field(graph, node, depth)[d], row)


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
    graph = gc.Graph(adjacency=np.zeros((1, 1), dtype=int), features=np.array([[1]]))
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
        g1 = gc.Graph(adjacency=adj, features=feats)
        g2 = gc.Graph(adjacency=adj[np.ix_(perm, perm)], features=feats[perm])
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
    graph = gc.Graph(adjacency=np.zeros((1, 1), dtype=int), features=np.array([[1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[0.0, 0.0]]), np.array([2.0, 2.0])),))
    assert gc.predict(model, graph).labels[0] == 0


def test_predict_rowwise_argmax():
    graph = gc.Graph(adjacency=np.zeros((2, 2), dtype=int), features=np.array([[1], [0]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[3.0, -4.0]]), np.array([0.0, 5.0])),))
    pred = gc.predict(model, graph)
    assert np.allclose(pred.scores, [[3, 1], [0, 5]])
    assert pred.labels.tolist() == [0, 1]


def test_graph_rejects_broken_invariants():
    with pytest.raises(gc.DataError):
        gc.Graph(adjacency=np.array([[0, 1], [0, 0]]), features=np.zeros((2, 1), dtype=int))
    with pytest.raises(gc.DataError):
        gc.Graph(adjacency=np.array([[0, 2], [2, 0]]), features=np.zeros((2, 1), dtype=int))
    with pytest.raises(gc.DataError):
        gc.Graph(adjacency=np.zeros((2, 2), dtype=int), features=np.array([[0], [2]]))


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
