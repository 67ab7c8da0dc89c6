import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcncert as gc
from gcncert import training
import helpers


def test_bce_loss_values():
    assert gc.bce_loss(np.array([0.0])) == pytest.approx(math.log(2))
    assert gc.bce_loss(np.array([1000.0])) == pytest.approx(0.0, abs=1e-12)
    # -log sigmoid(1) - log sigmoid(-1)
    expected = math.log(1 + math.exp(-1)) + math.log(1 + math.exp(1))
    assert gc.bce_loss(np.array([1.0, -1.0])) == pytest.approx(expected)
    assert gc.bce_loss(np.array([1.0, -1.0])) == pytest.approx(1.6265233750364456)


def test_bce_loss_is_overflow_free():
    assert np.isfinite(gc.bce_loss(np.array([-1e4, 1e4])))


def test_hinge_loss_values():
    assert gc.hinge_loss(np.array([2.0]), 1.0) == 0.0
    assert gc.hinge_loss(np.array([0.0]), 1.0) == 1.0
    assert gc.hinge_loss(np.array([0.5, -0.5]), 0.5) == pytest.approx(1.0)


def test_hinge_zero_iff_all_margins_reach_threshold(rng):
    for _ in range(30):
        margins = rng.uniform(-2, 2, size=int(rng.integers(1, 5)))
        t = rng.uniform(-1, 1)
        assert (gc.hinge_loss(margins, t) == 0.0) == bool((margins >= t).all())


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=5), st.integers(0, 4), st.floats(0.01, 5))
@example([29.0, -8.0, -8.0], 0, 2**-6)  # both float64 sums round to 16.000670812746044
@settings(max_examples=60, deadline=None)
def test_bce_strictly_decreases_when_a_margin_grows(margins, index, bump):
    margins = np.array(margins)
    index = index % len(margins)
    bumped = margins.copy()
    bumped[index] += bump
    # the bumped term drops strictly; in the sum that drop can be smaller than
    # half an ulp of the other terms, so the rounded sum is only sure not to rise
    term = slice(index, index + 1)
    assert gc.bce_loss(bumped[term]) < gc.bce_loss(margins[term])
    assert gc.bce_loss(bumped) <= gc.bce_loss(margins)


def test_loss_derivatives_match_closed_form(rng):
    h = 1e-6
    for _ in range(20):
        margins = rng.uniform(-3, 3, size=int(rng.integers(1, 6)))
        t = rng.uniform(-1, 1)
        for i in range(len(margins)):
            up, down = margins.copy(), margins.copy()
            up[i] += h
            down[i] -= h
            fd_bce = (gc.bce_loss(up) - gc.bce_loss(down)) / (2 * h)
            sigmoid = 1 / (1 + np.exp(-margins[i]))
            assert fd_bce == pytest.approx(sigmoid - 1.0, abs=1e-6)
            fd_hinge = (gc.hinge_loss(up, t) - gc.hinge_loss(down, t)) / (2 * h)
            if abs(margins[i] - t) > h:
                assert fd_hinge == pytest.approx(-1.0 if margins[i] < t else 0.0, abs=1e-6)


def test_loss_config_validation():
    with pytest.raises(gc.DataError):
        gc.RobustLossConfig(kind="l2")
    assert training.DEFAULT_LABELED_MARGIN == pytest.approx(math.log(9))
    assert training.DEFAULT_UNLABELED_MARGIN == pytest.approx(math.log(1.5))


def test_losses_on_a_matrix_equal_per_row_calls(rng):
    for rivals in (0, 1, 2, 5, 11):
        margins = rng.uniform(-3, 3, (7, rivals))
        thresholds = rng.uniform(-1, 1, 7)
        bce_rows = gc.bce_loss(margins)
        hinge_rows = gc.hinge_loss(margins, thresholds[:, None])
        assert bce_rows.shape == hinge_rows.shape == (7,)
        for r in range(7):
            assert bce_rows[r] == gc.bce_loss(margins[r])
            assert hinge_rows[r] == gc.hinge_loss(margins[r], thresholds[r])


def _small_setup(rng):
    graph, labels = helpers.planted_community_graph(rng, n=8, m0=4)
    model = gc.GcnModel((
        gc.GcnLayer(rng.uniform(-0.5, 0.5, (4, 3)), np.zeros(3)),
        gc.GcnLayer(rng.uniform(-0.5, 0.5, (3, 2)), np.zeros(2)),
    ))
    return graph, labels, model, gc.PerturbationBudget(1, 1)


def test_zero_steps_returns_equal_model(rng):
    graph, labels, model, budget = _small_setup(rng)
    out = gc.train_robust(model, graph, labels, budget, gc.RobustLossConfig(),
                          steps=0, learning_rate=0.1, seed=0)
    for a, b in zip(out.layers, model.layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def test_zero_learning_rate_keeps_model(rng):
    graph, labels, model, budget = _small_setup(rng)
    out = gc.train_robust(model, graph, labels, budget, gc.RobustLossConfig(),
                          steps=3, learning_rate=0.0, seed=0)
    for a, b in zip(out.layers, model.layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_non_positive_batch_size_rejected(rng, batch_size):
    graph, labels, model, budget = _small_setup(rng)
    with pytest.raises(gc.DataError, match="batch_size"):
        gc.train_robust(model, graph, labels, budget, gc.RobustLossConfig(),
                        steps=1, learning_rate=0.1, seed=0, batch_size=batch_size)


def test_parameter_cap_rejected(rng):
    graph, labels, model, budget = _small_setup(rng)
    big = gc.GcnModel((
        gc.GcnLayer(np.zeros((4, 600)), np.zeros(600)),
        gc.GcnLayer(np.zeros((600, 2)), np.zeros(2)),
    ))
    with pytest.raises(gc.DataError, match="shrink"):
        gc.train_robust(big, graph, labels, budget, gc.RobustLossConfig(),
                        steps=1, learning_rate=0.1, seed=0)


def test_label_vector_validation(rng):
    graph, labels, model, budget = _small_setup(rng)
    with pytest.raises(gc.DataError):
        gc.train_robust(model, graph, labels[:-1], budget, gc.RobustLossConfig(),
                        steps=1, learning_rate=0.1, seed=0)
    with pytest.raises(gc.DataError):
        gc.train_robust(model, graph, labels + 5, budget, gc.RobustLossConfig(),
                        steps=1, learning_rate=0.1, seed=0)
    below = labels.copy()
    below[1] = -7
    with pytest.raises(gc.DataError, match="-1"):
        gc.train_robust(model, graph, below, budget, gc.RobustLossConfig(),
                        steps=1, learning_rate=0.1, seed=0)


def test_training_reduces_loss(rng):
    graph, labels, model, budget = _small_setup(rng)
    trace = []
    gc.train_robust(model, graph, labels, budget, gc.RobustLossConfig(kind="hinge"),
                    steps=12, learning_rate=0.2, seed=0,
                    progress=lambda step, loss: trace.append(loss))
    assert trace[-1] < trace[0]


def test_training_is_seed_deterministic(rng):
    graph, labels, model, budget = _small_setup(rng)
    runs = [
        gc.train_robust(model, graph, labels, budget, gc.RobustLossConfig(),
                        steps=4, learning_rate=0.1, seed=9, batch_size=3)
        for _ in range(2)
    ]
    for a, b in zip(runs[0].layers, runs[1].layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def test_semi_supervised_uses_predictions(rng):
    graph, labels, model, budget = _small_setup(rng)
    half = labels.copy()
    half[::2] = -1
    out = gc.train_robust(model, graph, half, budget, gc.RobustLossConfig(kind="hinge"),
                          steps=2, learning_rate=0.1, seed=0)
    assert out.num_labels == model.num_labels
    out2 = gc.train_robust(model, graph, np.full(graph.num_nodes, -1), budget,
                           gc.RobustLossConfig(kind="hinge"), steps=1, learning_rate=0.1, seed=0)
    assert out2.num_labels == model.num_labels


def _model(rng, widths):
    return gc.GcnModel(tuple(
        gc.GcnLayer(rng.uniform(-0.7, 0.7, (a, b)), rng.uniform(-0.1, 0.1, b))
        for a, b in zip(widths, widths[1:])
    ))


@pytest.mark.parametrize("kind", ["hinge", "bce"])
@pytest.mark.parametrize("unlabeled", ["part", "all"])
@pytest.mark.parametrize("num_labels", [1, 2, 3])
def test_reported_loss_equals_per_node_reference(rng, kind, unlabeled, num_labels):
    graph, _ = helpers.planted_community_graph(rng, n=20, m0=4)
    model = _model(rng, [4, 3, num_labels])
    budget = gc.PerturbationBudget(1, 2)
    labels = rng.integers(0, num_labels, graph.num_nodes)
    labels[::2 if unlabeled == "part" else 1] = -1
    reported = []
    out = gc.train_robust(model, graph, labels, budget, gc.RobustLossConfig(kind=kind),
                          steps=1, learning_rate=0.3, seed=0,
                          progress=lambda step, loss: reported.append(loss))
    targets = np.where(labels >= 0, labels, gc.predict(model, graph).labels)
    judgments = gc.certify_sound(out, graph, budget, "max", labels=targets)
    assert reported == [helpers.reference_robust_loss(judgments, labels, kind)]
