"""Counterexample replay on the receptive field against the whole-graph reference."""

import numpy as np
import pytest

import gcncert as gc
import gcncert.certify
import helpers


def _with_isolated_node(graph: gc.Graph, node: int) -> gc.Graph:
    adj = graph.adjacency.copy()
    adj[node, :] = adj[:, node] = 0
    return gc.Graph(adjacency=adj, features=graph.features)


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
    """Count whole-graph forward passes made from gcncert.certify."""
    calls = []
    dense = gcncert.certify.forward

    def spy(*args, **kwargs):
        calls.append(1)
        return dense(*args, **kwargs)

    monkeypatch.setattr(gcncert.certify, "forward", spy)
    return calls


def test_local_replay_matches_dense_reference(rng):
    found = 0
    for graph, model, budget in _instances(rng, 60):
        for mode in ("both", "add-only", "delete-only"):
            judgments = gc.certify_sound(model, graph, budget, mode=mode)
            expected = {}
            for j in judgments:
                ce = helpers.dense_counterexample(model, graph, budget, j)
                if ce is not None:
                    expected[ce.node] = ce
            assert gc.find_counterexamples(model, graph, budget, judgments) == expected
            found += len(expected)
    assert found > 50  # the comparison is not vacuous


def test_replay_runs_no_whole_graph_forward(rng, count_forward):
    graph, model, budget = helpers.flip_moves_label_example()
    judgments = gc.certify_sound(model, graph, budget)
    count_forward.clear()
    assert list(gc.find_counterexamples(model, graph, budget, judgments)) == [0]
    assert count_forward == []
    found = 0
    for graph, model, budget in _instances(rng, 30):
        judgments = gc.certify_sound(model, graph, budget)
        count_forward.clear()
        found += len(gc.find_counterexamples(model, graph, budget, judgments))
        assert count_forward == []
    assert found > 0


def test_near_tie_is_settled_by_the_dense_forward(count_forward):
    # flipping x[0,0] to 0 leaves scores (0, 0.5, 0.5): rivals 1 and 2 tie exactly
    graph = gc.Graph(adjacency=np.zeros((1, 1), dtype=int), features=np.array([[1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[1.0, 0.0, 0.0]]), np.array([0.0, 0.5, 0.5])),))
    budget = gc.PerturbationBudget(1, 1)
    judgment = gc.certify_sound(model, graph, budget)[0]
    assert judgment.label == 0 and not judgment.certified
    count_forward.clear()
    ce = gc.generate_counterexample(model, graph, budget, judgment)
    assert len(count_forward) == 1
    assert ce.flips.flips == ((0, 0),)
    dense = gc.forward(model, graph.norm_adj, gc.apply_flips(graph.features, ce.flips))[0]
    assert ce.flipped_label == int(np.argmax(dense)) == 1


def _path_graph_judgment(flips, margin=-1.0):
    """Nodes 0-1 joined, node 2 isolated; a 1-layer model whose label 0 falls if x[0,0] flips."""
    graph = gc.Graph(adjacency=np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
                     features=np.array([[1, 0], [0, 0], [1, 1]]))
    model = gc.GcnModel((gc.GcnLayer(np.array([[2.0, 0.0], [0.0, 0.0]]), np.array([0.0, 0.5])),))
    judgment = gc.NodeJudgment(node=0, label=0, margin=margin, certified=False,
                               rival_margins={1: margin}, rival_flips={1: gc.FlipSet(flips)})
    return graph, model, judgment


def test_flips_outside_the_field_are_ignored(count_forward):
    budget = gc.PerturbationBudget(2, 2)
    # node 2 lies outside node 0's field; flipping x[1,0] only raises node 0's lead
    cases = {((0, 0), (2, 1)): 1, ((2, 0), (2, 1)): None, ((1, 0), (2, 0)): None}
    for flips, flipped_label in cases.items():
        graph, model, judgment = _path_graph_judgment(flips)
        ce = gc.generate_counterexample(model, graph, budget, judgment)
        assert ce == helpers.dense_counterexample(model, graph, budget, judgment)
        assert (None if ce is None else ce.flipped_label) == flipped_label
    assert count_forward == []


def test_invalid_flip_sets_are_rejected():
    graph, model, judgment = _path_graph_judgment(((0, 0), (1, 0)))
    with pytest.raises(AssertionError):
        gc.generate_counterexample(model, graph, gc.PerturbationBudget(1, 1), judgment)
    graph, model, judgment = _path_graph_judgment(((0, 0), (3, 0)))
    with pytest.raises(gc.DataError):
        gc.generate_counterexample(model, graph, gc.PerturbationBudget(1, 2), judgment)
