"""Counterexample replay on the receptive field against the whole-graph reference."""

import numpy as np
import pytest

import gcncert as gc
import gcncert.graph
import helpers


def _with_isolated_node(graph: gc.Graph, node: int) -> gc.Graph:
    adj = helpers.dense_adjacency(graph)
    adj[node, :] = adj[:, node] = 0
    return helpers.graph_from_dense(adj, features=graph.features)


def _single_label(model: gc.GcnModel) -> gc.GcnModel:
    last = model.layers[-1]
    return gc.GcnModel(model.layers[:-1] + (gc.GcnLayer(last.weight[:, :1], last.bias[:1]),))


def _instances(rng, count: int):
    """Random 1-, 2- and 3-layer instances, some with an isolated node or a single label."""
    for trial in range(count):
        graph, model, budget = helpers.raw_instance(rng, num_layers=1 + trial % 3)
        if trial % 4 == 1:
            graph = _with_isolated_node(graph, int(rng.integers(graph.num_nodes)))
        if trial % 10 == 9:
            model = _single_label(model)
        yield graph, model, budget


@pytest.fixture
def count_forward(monkeypatch):
    """Count whole-graph forward passes made from gcncert.graph, where replay's evaluator runs."""
    calls = []
    dense = gcncert.graph.forward

    def spy(*args, **kwargs):
        calls.append(1)
        return dense(*args, **kwargs)

    monkeypatch.setattr(gcncert.graph, "forward", spy)
    return calls


@pytest.fixture
def count_chunks_and_calls(monkeypatch):
    """The chunks that replay's ``_chunks`` yields and its ``field_labels`` calls, one entry each."""
    chunks, calls = [], []
    chunker, evaluate = gcncert.certify._chunks, gcncert.certify.field_labels

    def spy_chunks(*args):
        for chunk in chunker(*args):
            chunks.append(len(chunk[0]))
            yield chunk

    def spy_calls(*args):
        calls.append(args[3])
        return evaluate(*args)

    monkeypatch.setattr(gcncert.certify, "_chunks", spy_chunks)
    monkeypatch.setattr(gcncert.certify, "field_labels", spy_calls)
    return chunks, calls


def test_local_replay_matches_dense_reference(rng, monkeypatch, count_chunks_and_calls):
    chunks, calls = count_chunks_and_calls
    default, picker = gcncert.certify._CHUNK_ELEMENTS, np.random.default_rng(0)
    found = split = repeated = 0
    for graph, model, budget in _instances(rng, 60):
        repeats = picker.integers(0, graph.num_nodes, 2 * graph.num_nodes)
        for mode in ("both", "add-only", "delete-only"):
            # as certified, with one row per chunk, and for a node list with repeats
            for elements, nodes in ((default, None), (1, None), (default, repeats)):
                monkeypatch.setattr(gcncert.certify, "_CHUNK_ELEMENTS", elements)
                certificate = gc.certify_sound(model, graph, budget, nodes=nodes, mode=mode)
                expected = {}
                for row in range(len(certificate.nodes)):
                    ce = helpers.dense_counterexample(model, graph, budget, certificate, row)
                    if ce is not None:
                        expected[ce.node] = ce
                chunks.clear()
                calls.clear()
                got = gc.find_counterexamples(model, graph, budget, certificate)
                assert list(got.items()) == list(expected.items())  # in row order
                assert len(calls) == len(chunks)  # one field_labels call per chunk
                if nodes is None:
                    found += len(expected) if elements == default else 0
                    split += elements != default and len(chunks) > 1
                else:
                    repeated += len(expected) > 0
    assert found > 50  # the comparison is not vacuous
    assert split > 50 and repeated > 50  # nor are its other two inputs


def test_replay_runs_no_whole_graph_forward(rng, count_forward):
    graph, model, budget = helpers.flip_moves_label_example()
    certificate = gc.certify_sound(model, graph, budget)
    count_forward.clear()
    assert list(gc.find_counterexamples(model, graph, budget, certificate)) == [0]
    assert count_forward == []
    found = 0
    for graph, model, budget in _instances(rng, 30):
        certificate = gc.certify_sound(model, graph, budget)
        count_forward.clear()
        found += len(gc.find_counterexamples(model, graph, budget, certificate))
        assert count_forward == []
    assert found > 0


def test_near_tie_is_settled_by_the_dense_forward(count_forward):
    # flipping x[0,0] to 0 leaves scores (0, 0.5, 0.5): rivals 1 and 2 tie exactly
    graph = gc.Graph([], np.array([[1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[1.0, 0.0, 0.0]]), np.array([0.0, 0.5, 0.5])),))
    budget = gc.PerturbationBudget(1, 1)
    certificate = gc.certify_sound(model, graph, budget)
    assert certificate.labels[0] == 0 and not certificate.certified[0]
    count_forward.clear()
    ce = gc.generate_counterexample(model, graph, budget, certificate, 0)
    assert count_forward == []  # the local scores are the whole-graph ones, tie and all
    assert ce.flips.flips == ((0, 0),)
    flipped = gc.apply_flips(graph.features, ce.flips)
    dense = gc.forward(model, helpers.dense_norm_adj(graph), flipped)[0]
    assert ce.flipped_label == int(np.argmax(dense)) == 1


def test_a_tie_is_settled_at_the_rows_own_node(count_forward):
    # a star around node 0; output columns 0 and 1 are equal, and so are 2 and 3
    graph = gc.Graph([[0, 1], [0, 2], [0, 3]], np.array([[0, 1], [1, 0], [0, 1], [0, 1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]),
                                     np.zeros(4)),))
    hops = gcncert.graph.receptive_fields(graph, [1], 1)
    assert hops[-1][0].tolist() == [[0, 1]]  # node 1's field starts at node 0
    flipped = graph.features.copy()
    flipped[0, 0] = 1
    dense = gc.forward(model, helpers.dense_norm_adj(graph), flipped)
    assert np.argmax(dense[1]) == 0 and np.argmax(dense[0]) == 2
    count_forward.clear()
    # the set flips feature 0 of slot 0, node 0; node 1's labels 0 and 1 tie
    labels = gcncert.graph.field_labels(model, graph, hops, 1, (np.array([0]),) * 3)
    assert labels.tolist() == [[0]] and count_forward == []


def _path_graph_judgment(flips, margin=-1.0):
    """Nodes 0-1 joined, node 2 isolated; a 1-layer model whose label 0 falls if x[0,0] flips.

    The certificate holds node 0 alone, defending label 0 against rival 1
    with ``margin``, and ``flips`` as the minimizer's picks.
    """
    graph = helpers.graph_from_dense(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
                                     features=np.array([[1, 0], [0, 0], [1, 1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[2.0, 0.0], [0.0, 0.0]]), np.array([0.0, 0.5])),))
    cells = np.array(sorted(flips), dtype=np.int64).reshape(-1, 2)
    zeros = np.zeros(len(cells), dtype=np.int64)
    certificate = gc.Certificate(np.array([0]), np.array([0]), np.array([[1]]),
                                 np.array([[margin]]), zeros, zeros, cells[:, 0], cells[:, 1])
    return graph, model, certificate


def test_flips_outside_the_field_are_ignored(count_forward):
    budget = gc.PerturbationBudget(2, 2)
    # node 2 lies outside node 0's field; flipping x[1,0] only raises node 0's lead
    cases = {((0, 0), (2, 1)): 1, ((2, 0), (2, 1)): None, ((1, 0), (2, 0)): None}
    for flips, flipped_label in cases.items():
        graph, model, certificate = _path_graph_judgment(flips)
        ce = gc.generate_counterexample(model, graph, budget, certificate, 0)
        assert ce == helpers.dense_counterexample(model, graph, budget, certificate, 0)
        assert (None if ce is None else ce.flipped_label) == flipped_label
    assert count_forward == []


def test_invalid_flip_sets_are_rejected():
    graph, model, certificate = _path_graph_judgment(((0, 0), (1, 0)))
    with pytest.raises(AssertionError):
        gc.generate_counterexample(model, graph, gc.PerturbationBudget(1, 1), certificate, 0)
    graph, model, certificate = _path_graph_judgment(((0, 0), (0, 1)))  # two cells of node 0
    with pytest.raises(AssertionError):
        gc.generate_counterexample(model, graph, gc.PerturbationBudget(1, 2), certificate, 0)
    gc.generate_counterexample(model, graph, gc.PerturbationBudget(2, 2), certificate, 0)
    graph, model, certificate = _path_graph_judgment(((0, 0), (3, 0)))
    with pytest.raises(gc.DataError):
        gc.generate_counterexample(model, graph, gc.PerturbationBudget(1, 2), certificate, 0)


def test_ties_are_settled_in_blocks_of_at_most_sets(rng, monkeypatch, count_chunks_and_calls):
    chunks, calls = count_chunks_and_calls
    stacks, dense = [], gcncert.graph.forward

    def spy(model, norm_adj, features):
        stacks.append((len(features), calls[-1:]))  # a stack's depth and its call's sets
        return dense(model, norm_adj, features)

    monkeypatch.setattr(gcncert.graph, "forward", spy)
    broken = 0
    for _ in range(20):
        graph, model, _ = helpers.raw_instance(rng)
        # output columns 0 and 1 are equal, and so are 2 and 3: every candidate's top two tie
        last = model.layers[-1]
        model = gc.GcnModel(model.layers[:-1] + (
            gc.GcnLayer(last.weight[:, [0, 0, 1, 1]], last.bias[[0, 0, 1, 1]]),))
        budget = gc.PerturbationBudget(3, 6)
        certificate = gc.certify_sound(model, graph, budget)
        expected = {}
        for row in range(len(certificate.nodes)):
            ce = helpers.dense_counterexample(model, graph, budget, certificate, row)
            if ce is not None:
                expected[ce.node] = ce
        chunks.clear()
        calls.clear()
        stacks.clear()
        assert gc.find_counterexamples(model, graph, budget, certificate) == expected
        assert stacks == []  # every tie is settled on the rows' own fields
        broken += len(expected)
    assert broken > 10


def _far_apart_rows(second_row_flips):
    """A 2^16-node edgeless graph and a certificate of 2^16 + 1 rows of node 5, int32 picks.

    Only rows 0 and 2^16 are open; row 0 flips cell (5, 0) and row 2^16 the
    cells ``second_row_flips``. A cell's key row * n + node then reaches
    2^32 + 5, which int32 arithmetic wraps onto row 0's key 5.
    """
    n = rows = 1 << 16
    graph = gc.Graph(np.zeros((0, 2), dtype=np.int64), np.zeros((n, 2), dtype=np.uint8))
    model = gc.GcnModel((gc.GcnLayer(np.array([[-1.0, 1.0], [0.0, 0.0]]), np.array([0.5, 0.0])),))
    margins = np.ones((rows + 1, 1))
    margins[[0, rows]] = -1.0
    cells = [(0, 5, 0)] + [(rows, node, feature) for node, feature in second_row_flips]
    row, node, feature = np.array(cells, dtype=np.int32).T
    certificate = gc.Certificate(np.full(rows + 1, 5), np.zeros(rows + 1, dtype=np.int64),
                                 np.ones((rows + 1, 1), dtype=np.int64), margins,
                                 row, np.zeros_like(row), node, feature)
    return graph, model, certificate


def test_int32_pick_columns_form_budget_keys_in_int64():
    budget = gc.PerturbationBudget(1, 2)
    graph, model, certificate = _far_apart_rows([(5, 0)])
    found = gc.find_counterexamples(model, graph, budget, certificate)
    # flipping feature 0 of the isolated node 5 drops its label 0 score below label 1's
    assert found == {5: gc.Counterexample(5, gc.FlipSet(((5, 0),)), 1)}
    graph, model, certificate = _far_apart_rows([(5, 0), (5, 1)])  # two cells of one node
    with pytest.raises(AssertionError):
        gc.find_counterexamples(model, graph, budget, certificate)
