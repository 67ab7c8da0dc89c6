import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcncert as gc
from gcncert import certify, intervals, training
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


def test_loss_config_validation(rng, monkeypatch):
    graph, labels, model, budget = _small_setup(rng)
    monkeypatch.setattr(training, "rival_margins", None)  # any step would call it
    with pytest.raises(gc.DataError, match="l2"):
        gc.train_robust(model, graph, labels, budget, steps=1, learning_rate=0.1, seed=0,
                        loss="l2")
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


def test_batch_draws_are_numpy_permutations_bit_for_bit():
    # tests may import numpy.random; training draws the same batches without it
    for seed in [*range(200), 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3]:  # the last: 5 words
        for n in (1, 2, 3, 20, 1000):
            numpy_rng, draws = np.random.default_rng(seed), training._permutations(seed, n)
            for draw in range(3):
                assert next(draws) == numpy_rng.permutation(n).tolist(), (seed, n, draw)


def test_zero_steps_returns_equal_model(rng):
    graph, labels, model, budget = _small_setup(rng)
    out = gc.train_robust(model, graph, labels, budget,
                          steps=0, learning_rate=0.1, seed=0)
    for a, b in zip(out.layers, model.layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def test_zero_learning_rate_keeps_model(rng):
    graph, labels, model, budget = _small_setup(rng)
    out = gc.train_robust(model, graph, labels, budget,
                          steps=3, learning_rate=0.0, seed=0)
    for a, b in zip(out.layers, model.layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_non_positive_batch_size_rejected(rng, batch_size):
    graph, labels, model, budget = _small_setup(rng)
    with pytest.raises(gc.DataError, match="batch_size"):
        gc.train_robust(model, graph, labels, budget,
                        steps=1, learning_rate=0.1, seed=0, batch_size=batch_size)


@pytest.mark.parametrize("learning_rate", [-1.0, float("inf"), float("nan")])
def test_nonsensical_learning_rate_rejected_before_training(rng, monkeypatch, learning_rate):
    graph, labels, model, budget = _small_setup(rng)
    monkeypatch.setattr(training, "rival_margins", None)  # any step would call it
    with pytest.raises(gc.DataError, match="learning rate"):
        gc.train_robust(model, graph, labels, budget,
                        steps=1, learning_rate=learning_rate, seed=0)


def test_model_beyond_two_thousand_parameters_trains(rng):
    graph, labels, _, budget = _small_setup(rng)
    wide = gc.GcnModel((
        gc.GcnLayer(rng.uniform(-0.5, 0.5, (4, 600)), np.zeros(600)),
        gc.GcnLayer(rng.uniform(-0.05, 0.05, (600, 2)), np.zeros(2)),
    ))
    assert sum(l.weight.size + l.bias.size for l in wide.layers) == 4202
    margins, _ = certify.rival_margins(wide, graph, budget, "max", labels, np.arange(len(labels)))
    start = helpers.reference_robust_loss(margins, labels, "hinge")
    reported = []
    gc.train_robust(wide, graph, labels, budget,
                    steps=2, learning_rate=0.01, seed=0,
                    progress=lambda step, loss: reported.append(loss))
    assert len(reported) == 2
    assert reported[1] < reported[0] < start


def test_label_vector_validation(rng):
    graph, labels, model, budget = _small_setup(rng)
    with pytest.raises(gc.DataError):
        gc.train_robust(model, graph, labels[:-1], budget,
                        steps=1, learning_rate=0.1, seed=0)
    with pytest.raises(gc.DataError):
        gc.train_robust(model, graph, labels + 5, budget,
                        steps=1, learning_rate=0.1, seed=0)
    below = labels.copy()
    below[1] = -7
    with pytest.raises(gc.DataError, match="-1"):
        gc.train_robust(model, graph, below, budget,
                        steps=1, learning_rate=0.1, seed=0)


def test_training_reduces_loss(rng):
    graph, labels, model, budget = _small_setup(rng)
    trace = []
    gc.train_robust(model, graph, labels, budget,
                    steps=12, learning_rate=0.2, seed=0,
                    progress=lambda step, loss: trace.append(loss))
    assert trace[-1] < trace[0]


def test_training_is_seed_deterministic(rng):
    graph, labels, model, budget = _small_setup(rng)
    runs = [
        gc.train_robust(model, graph, labels, budget,
                        steps=4, learning_rate=0.1, seed=9, batch_size=3)
        for _ in range(2)
    ]
    for a, b in zip(runs[0].layers, runs[1].layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def test_semi_supervised_uses_predictions(rng):
    graph, labels, model, budget = _small_setup(rng)
    half = labels.copy()
    half[::2] = -1
    out = gc.train_robust(model, graph, half, budget,
                          steps=2, learning_rate=0.1, seed=0)
    assert out.num_labels == model.num_labels
    out2 = gc.train_robust(model, graph, np.full(graph.num_nodes, -1), budget,
                           steps=1, learning_rate=0.1, seed=0)
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
    out = gc.train_robust(model, graph, labels, budget, loss=kind,
                          steps=1, learning_rate=0.3, seed=0,
                          progress=lambda step, loss: reported.append(loss))
    targets = np.where(labels >= 0, labels, gc.predict(model, graph).labels)
    margins, _ = certify.rival_margins(out, graph, budget, "max", targets, np.arange(len(labels)))
    assert reported == [helpers.reference_robust_loss(margins, labels, kind)]


def _gradient_instance(rng, num_layers: int, num_labels: int):
    """Random graph and model with ``num_layers`` layers and ``num_labels`` outputs."""
    graph, model, budget = helpers.raw_instance(rng, num_layers)
    widths = [l.weight.shape[0] for l in model.layers] + [num_labels]
    model = gc.GcnModel(tuple(
        gc.GcnLayer(rng.uniform(-1, 1, (a, b)), rng.uniform(-0.5, 0.5, b))
        for a, b in zip(widths, widths[1:])
    ))
    return graph, model, budget


def _choices(model, graph, budget, variant, mode, batch, targets, thresholds):
    """Every discrete choice the robust loss makes at ``model``, as comparable bytes.

    Weight signs, the ReLU case of every hidden bound, the input abstraction's
    selected candidates, the minimizing flips, which of the symbolic minimum
    and the output box wins each margin, and which hinges are active. Where
    the two bounds agree to rounding the winner is left out: they are then
    one function of the weights (one layer, one flip set realizing both), and
    the comparison with central differences still catches a true crossing.
    """
    bounds = gc.interval_layer_bounds(model, graph, budget, variant, mode=mode)
    parts = [layer.weight >= 0 for layer in model.layers]
    for b in bounds[:-1]:
        parts += [b.lower >= 0, b.lower > 0, b.upper <= 0, b.upper > 0,
                  np.abs(b.upper) >= np.abs(b.lower)]
    if budget.per_node and budget.total:
        # row blocks split axis 0 and the ranks run along axis 1, so the blocks'
        # bytes in order are the whole pools' bytes
        cand = intervals._candidates(model, graph, mode, slice(None))
        parts.append(np.argsort(cand, axis=1, kind="stable"))
        for _, *pools in intervals._scaled_pools(model, graph, budget, variant, mode):
            parts += [np.argsort(pool, axis=1, kind="stable") for pool in pools]
    for _, hops in certify._chunks(model, graph, batch):
        part = certify._chunk_margins(model, graph, budget, mode, bounds, targets, hops)
        tied = np.isclose(part.box_gap, part.poly_min, rtol=1e-12, atol=1e-12)
        parts += [np.stack(part.picks), ~tied & (part.box_gap > part.poly_min),
                  part.margins < thresholds[part.nodes, None]]
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("variant", ["topk", "max"])
def test_gradient_matches_central_differences(rng, num_layers, variant):
    compared, skipped = 0, 0
    for mode in ("both", "add-only", "delete-only"):
        for kind in ("hinge", "bce"):
            for num_labels, unlabeled in ((1, 0.0), (2, 0.0), (3, 0.4), (2, 0.4)):
                graph, model, budget = _gradient_instance(rng, num_layers, num_labels)
                n = graph.num_nodes
                labels = rng.integers(0, num_labels, n)
                labels[rng.random(n) < unlabeled] = -1
                targets = np.where(labels >= 0, labels, gc.predict(model, graph).labels)
                thresholds = np.where(labels >= 0, training.DEFAULT_LABELED_MARGIN,
                                      training.DEFAULT_UNLABELED_MARGIN)
                use_bce = (labels >= 0) & (kind == "bce")
                batch = np.sort(rng.permutation(n)[: int(rng.integers(1, n + 1))])
                setting = (graph, budget, variant, mode, batch, targets, use_bce, thresholds)
                at = (graph, budget, variant, mode, batch, targets, thresholds)
                choices = _choices(model, *at)
                moved = []

                def loss(shifted):
                    moved.append(_choices(shifted, *at) != choices)
                    return training._batch_loss(shifted, *setting)

                reference = helpers.central_fd_gradient(loss, model, step=1e-6)
                if any(moved):  # a choice flips within the step: no derivative to compare
                    skipped += 1
                    continue
                exact = training._batch_gradient(model, *setting)
                flat_exact = np.concatenate([np.r_[w.ravel(), b] for w, b in exact])
                flat_reference = np.concatenate([np.r_[w.ravel(), b] for w, b in reference])
                scale = np.abs(flat_reference).max()
                if num_labels == 1:  # no rival, no margin, no loss
                    assert scale == 0.0 and not flat_exact.any()
                else:
                    assert np.abs(flat_exact - flat_reference).max() <= 1e-6 * scale
                    compared += scale > 0
    assert skipped <= 4 and compared >= 12


def test_gradient_follows_the_output_box_where_it_wins():
    graph, model, budget = helpers.undershoot_example()
    # a non-zero weight on score[1], away from the kink of W+ and W- at 0
    second = gc.GcnLayer(np.array([[1.0, -0.2]]), np.array([0.1, 0.0]))
    model = gc.GcnModel((model.layers[0], second))
    batch, targets = np.array([0]), np.array([0])
    setting = (graph, budget, "topk", "both", batch, targets, np.array([False]),
               np.array([training.DEFAULT_LABELED_MARGIN]))
    bounds = gc.interval_layer_bounds(model, graph, budget, "topk")
    hops = gc.graph.receptive_fields(graph, batch, model.num_layers)
    part = certify._chunk_margins(model, graph, budget, "both", bounds, targets, hops)
    assert part.box_gap[0, 0] == pytest.approx(0.1) and part.poly_min[0, 0] == pytest.approx(-0.5)
    exact = training._batch_gradient(model, *setting)
    reference = helpers.central_fd_gradient(lambda m: training._batch_loss(m, *setting),
                                            model, step=1e-6)
    for (w, b), (w_ref, b_ref) in zip(exact, reference):
        assert np.allclose(w, w_ref, rtol=0, atol=1e-8) and np.allclose(b, b_ref, rtol=0, atol=1e-8)
    assert exact[1][1].tolist() == [-1.0, 1.0]  # the hinge pulls score[0] up, score[1] down


def test_gradient_is_the_same_over_chunks_of_the_batch(rng, monkeypatch):
    graph, model, budget = helpers.trained_instance(rng)
    labels = rng.integers(0, model.num_labels, graph.num_nodes)
    n = graph.num_nodes
    setting = (graph, budget, "topk", "both", np.arange(n), labels, np.zeros(n, dtype=bool),
               np.full(n, training.DEFAULT_LABELED_MARGIN))
    whole = training._batch_gradient(model, *setting)
    for size in (1, 3, None):
        with monkeypatch.context() as patch:
            seen = helpers.chunks_of(patch, model, graph, size)
            chunked = training._batch_gradient(model, *setting)
        assert sum(seen) == n and seen[0] == {1: 1, 3: min(3, n), None: n}[size]
        assert size != 1 or len(seen) == n
        for (w, b), (w_chunked, b_chunked) in zip(whole, chunked):
            assert np.allclose(w, w_chunked, rtol=1e-12, atol=1e-12)
            assert np.allclose(b, b_chunked, rtol=1e-12, atol=1e-12)


def test_two_full_batch_steps_keep_no_tape_and_match_the_whole_kernel_pullback():
    # a 1,000-node graph of mean degree 5 and 32 features, a 32-16-4 model, budget 2/4,
    # half the nodes labeled under bce: the two steps' peak beyond the inputs is 7.6 MB,
    # and 97.3 MB when every chunk's tape waits for one pullback after the kernel
    rng = np.random.default_rng(0)
    n, m0, hidden, num_labels = 1000, 32, 16, 4
    graph = gc.Graph(rng.integers(0, n, (5 * n // 2, 2)), (rng.random((n, m0)) < 0.1).astype(int))
    model = _model(rng, [m0, hidden, num_labels])
    labels = rng.integers(0, num_labels, n)
    labels[rng.random(n) < 0.5] = -1
    budget, lr = gc.PerturbationBudget(2, 4), 0.05
    graph.norm_adj  # cached input, not working memory
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trained = gc.train_robust(model, graph, labels, budget, steps=2, learning_rate=lr, seed=0,
                                  loss="bce", variant="topk")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
    # the same two steps, each gradient taken by the whole-kernel pullback
    thresholds = np.where(labels >= 0, training.DEFAULT_LABELED_MARGIN,
                          training.DEFAULT_UNLABELED_MARGIN)[:, None]
    use_bce, nodes = (labels >= 0)[:, None], np.arange(n)
    for _ in range(2):
        targets = np.where(labels >= 0, labels, gc.predict(model, graph).labels)
        margins, _ = certify.rival_margins(model, graph, budget, "topk", targets, nodes)
        slope = np.where(use_bce, -np.exp(-np.logaddexp(0.0, margins)),
                         np.where(margins < thresholds, -1.0, 0.0))
        grads = helpers.reference_pullback(model, graph, budget, "topk", targets, nodes, "both",
                                           slope / n)
        model = gc.GcnModel(tuple(gc.GcnLayer(layer.weight - lr * w, layer.bias - lr * b)
                                  for layer, (w, b) in zip(model.layers, grads)))
    for got, expected in zip(trained.layers, model.layers):
        assert got.weight.tobytes() == expected.weight.tobytes()
        assert got.bias.tobytes() == expected.bias.tobytes()
