import numpy as np
import pytest

import gcncert as gc
import gcncert.certify
import helpers
from poly_oracle import evaluate_bounds, label_difference, per_node_judgments


def _delta_row(graph, model, budget, node, label, rival, variant="topk"):
    bounds = gc.interval_layer_bounds(model, graph, budget, variant)
    elem = gc.back_substitute(model, graph, node, bounds)
    return gc.label_difference_transform(elem, label, rival)


def test_label_difference_two_node(two_node):
    graph, model = two_node
    row = _delta_row(graph, model, gc.PerturbationBudget(1, 1), 0, 1, 0)
    assert row.rows == 1
    lo, up = evaluate_bounds(row, graph.features)
    assert lo[0] == pytest.approx(1.0, abs=1e-9)  # 0.5 * (x[0,2] + x[1,2]) at X
    assert up[0] == pytest.approx(1.0, abs=1e-9)


def test_label_difference_equal_scores_is_zero():
    coef = np.array([[1.0, 2.0], [1.0, 2.0]])
    elem = gc.PolyNodeElement(np.array([0]), 2, coef, np.zeros(2), coef.copy(), np.zeros(2))
    row = gc.label_difference_transform(elem, 0, 1)
    assert np.allclose(row.lower_coef, 0) and np.allclose(row.upper_coef, 0)
    assert row.lower_const[0] == 0 and row.upper_const[0] == 0


def test_label_difference_swap_negates_and_swaps():
    coef = np.array([[1.0, 0.0], [0.0, 2.0]])
    elem = gc.PolyNodeElement(np.array([0]), 2, coef, np.array([0.1, 0.2]),
                              coef + 0.5, np.array([0.3, 0.4]))
    fwd = gc.label_difference_transform(elem, 0, 1)
    rev = gc.label_difference_transform(elem, 1, 0)
    assert np.allclose(rev.lower_coef, -fwd.upper_coef)
    assert np.allclose(rev.lower_const, -fwd.upper_const)
    assert np.allclose(rev.upper_coef, -fwd.lower_coef)
    assert np.allclose(rev.upper_const, -fwd.lower_const)


def test_label_difference_matches_slice_rule_and_affine_reference(rng):
    # the kernel's rule, lower[a] - upper[b] and upper[a] - lower[b], against
    # the reference's affine step through a +1/-1 column; == counts -0.0 as 0.0
    for _ in range(300):
        rows, field, m = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 3))

        def draw(*shape):
            zero = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
            return np.where(rng.random(shape) < 0.3, zero, rng.uniform(-2, 2, shape))

        elem = gc.PolyNodeElement(np.arange(field), m, draw(rows, field * m), draw(rows),
                                  draw(rows, field * m), draw(rows))
        a, b = (int(k) for k in rng.choice(rows, 2, replace=False))
        row = gc.label_difference_transform(elem, a, b)
        ref = label_difference(elem, a, b)
        assert row.var_nodes.tolist() == ref.var_nodes.tolist() and row.rows == 1
        for got, slices, affine in (
            (row.lower_coef, elem.lower_coef[[a]] - elem.upper_coef[[b]], ref.lower_coef),
            (row.lower_const, elem.lower_const[[a]] - elem.upper_const[[b]], ref.lower_const),
            (row.upper_coef, elem.upper_coef[[a]] - elem.lower_coef[[b]], ref.upper_coef),
            (row.upper_const, elem.upper_const[[a]] - elem.lower_const[[b]], ref.upper_const),
        ):
            assert got.shape == affine.shape
            assert (got == slices).all() and (got == affine).all()


def test_label_difference_rejects_same_label():
    elem = gc.PolyNodeElement(np.array([0]), 1, np.zeros((2, 1)), np.zeros(2),
                              np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(gc.DataError):
        gc.label_difference_transform(elem, 1, 1)


def test_minimize_delta_two_node(two_node):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    row = _delta_row(graph, model, budget, 0, 1, 0)
    value, flips = gc.minimize_delta(row, graph.features, budget)
    assert value == pytest.approx(0.5, abs=1e-9)
    assert flips.flips == ((0, 2),)  # tie with (1, 2) broken toward the lower node


def test_minimize_delta_zero_budget(two_node):
    graph, model = two_node
    row = _delta_row(graph, model, gc.PerturbationBudget(1, 1), 0, 1, 0)
    value, flips = gc.minimize_delta(row, graph.features, gc.PerturbationBudget(1, 0))
    assert value == pytest.approx(1.0, abs=1e-9)
    assert len(flips) == 0


def test_minimize_delta_matches_bruteforce(rng):
    for _ in range(120):
        n_sub = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        var_nodes = np.sort(rng.choice(10, size=n_sub, replace=False))
        coef = rng.uniform(-2, 2, (1, n_sub * m))
        const = rng.uniform(-1, 1, 1)
        elem = gc.PolyNodeElement(var_nodes, m, coef, const, coef.copy(), const.copy())
        features = rng.integers(0, 2, (10, m))
        budget = gc.PerturbationBudget(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        value, flips = gc.minimize_delta(elem, features, budget)
        assert flips.within(budget)
        expected = helpers.brute_force_form_minimum(elem, features, budget)
        assert value == pytest.approx(expected, abs=1e-12)
        # the reported flip set realizes the reported value
        realized = elem.lower_coef[0] @ gc.apply_flips(features, flips)[var_nodes].ravel() + const[0]
        assert realized == pytest.approx(value, abs=1e-12)


def test_minimize_delta_direction_modes(rng):
    for _ in range(40):
        var_nodes = np.array([0, 1])
        coef = rng.uniform(-2, 2, (1, 4))
        elem = gc.PolyNodeElement(var_nodes, 2, coef, np.zeros(1), coef.copy(), np.zeros(1))
        features = rng.integers(0, 2, (2, 2))
        budget = gc.PerturbationBudget(1, 2)
        for mode in ("add-only", "delete-only"):
            value, flips = gc.minimize_delta(elem, features, budget, mode)
            assert value == pytest.approx(
                helpers.brute_force_form_minimum(elem, features, budget, mode), abs=1e-12
            )
            for i, j in flips:
                assert features[i, j] == (0 if mode == "add-only" else 1)


def test_minimize_delta_rejects_unknown_mode(two_node):
    graph, model = two_node
    row = _delta_row(graph, model, gc.PerturbationBudget(1, 1), 0, 1, 0)
    with pytest.raises(gc.DataError):
        gc.minimize_delta(row, graph.features, gc.PerturbationBudget(1, 1), "downhill")


def test_certify_sound_two_node(two_node):
    graph, model = two_node
    certificate = gc.certify_sound(model, graph, gc.PerturbationBudget(1, 1))
    assert certificate.nodes.tolist() == [0, 1]
    assert certificate.certified[0]
    assert certificate.margin[0] == pytest.approx(0.5, abs=1e-9)
    assert certificate.labels[0] == 1


def test_certificate_margin_is_the_first_smallest_rival_margin():
    # the CSV prints repr(margin), so 0.0 and -0.0 must come out as Python's min gives them
    rows = [[0.0, -0.0], [-0.0, 0.0], [0.5, -2.0], [3.0, 1.5]]
    none = np.zeros(0, dtype=np.int64)
    certificate = gc.Certificate(np.arange(4), np.zeros(4, dtype=np.int64),
                                 np.array([[1, 2]] * 4), np.array(rows), none, none, none, none)
    assert [repr(m) for m in certificate.margin.tolist()] == [repr(min(row)) for row in rows]
    assert certificate.certified.tolist() == [False, False, False, True]
    one_label = gc.Certificate(np.arange(2), np.zeros(2, dtype=np.int64),
                               np.zeros((2, 0), dtype=np.int64), np.zeros((2, 0)),
                               none, none, none, none)
    assert one_label.margin.tolist() == [float("inf")] * 2
    assert one_label.certified.all()


def test_certify_sound_tied_scores_never_certified():
    # identical score columns keep the rival margin pinned at zero
    graph = gc.Graph(adjacency=np.zeros((1, 1), dtype=int), features=np.array([[1]]))
    model = gcn = gc.GcnModel((gc.GcnLayer(np.array([[1.0, 1.0]]), np.zeros(2)),))
    for total in (0, 1):
        certificate = gc.certify_sound(gcn, graph, gc.PerturbationBudget(1, total))
        assert certificate.margin[0] == pytest.approx(0.0)
        assert not certificate.certified[0]


def test_certify_sound_subset_of_oracle(rng):
    for _ in range(10):
        graph, model, budget = helpers.trained_instance(rng)
        if graph.num_nodes * graph.num_features > 15:
            continue
        robust = helpers.brute_force_robust_nodes(model, graph, budget)
        certificate = gc.certify_sound(model, graph, budget)
        assert robust[certificate.nodes[certificate.certified]].all()


def test_certify_sound_margin_monotone_in_total(rng):
    for _ in range(5):
        graph, model, _ = helpers.trained_instance(rng)
        previous = None
        for total in range(4):
            margins = gc.certify_sound(model, graph, gc.PerturbationBudget(2, total)).margin
            if previous is not None:
                assert (margins <= previous + 1e-12).all()
            previous = margins


def _box_gaps(out, certificate):
    """The output box's L[node, label] - U[node, rival], shaped like the rival margins."""
    nodes = certificate.nodes[:, None]
    return out.lower[nodes, certificate.labels[:, None]] - out.upper[nodes, certificate.rivals]


def test_certify_sound_dominates_interval_box(rng):
    for _ in range(15):
        graph, model, budget = helpers.trained_instance(rng)
        out = gc.interval_layer_bounds(model, graph, budget, "topk")[-1]
        certificate = gc.certify_sound(model, graph, budget, "topk")
        assert (certificate.rival_margins >= _box_gaps(out, certificate)).all()
        certified = set(certificate.nodes[certificate.certified].tolist())
        interval_certified = np.nonzero(gc.interval_certify(model, graph, budget, "topk") > 0)[0]
        assert set(interval_certified.tolist()) <= certified


@pytest.mark.parametrize("mode", ["add-only", "delete-only"])
def test_certify_sound_restricted_mode_sound_against_bruteforce(rng, mode):
    checked = 0
    for _ in range(20):
        graph, model, budget = helpers.trained_instance(rng)
        if graph.num_nodes * graph.num_features > 15:
            continue
        robust = helpers.brute_force_robust_nodes(model, graph, budget, mode)
        certificate = gc.certify_sound(model, graph, budget, mode=mode)
        assert robust[certificate.nodes[certificate.certified]].all()
        checked += certificate.certified.sum()
    assert checked > 0


@pytest.mark.parametrize("mode", ["add-only", "delete-only"])
def test_certify_sound_restricted_mode_dominates_interval(rng, mode):
    for _ in range(15):
        graph, model, budget = helpers.trained_instance(rng)
        out = gc.interval_layer_bounds(model, graph, budget, "topk", mode=mode)[-1]
        certificate = gc.certify_sound(model, graph, budget, "topk", mode=mode)
        assert (certificate.rival_margins >= _box_gaps(out, certificate)).all()
        assert (certificate.margin >= gc.interval_certify(model, graph, budget, "topk")).all()


def _chunks_of(monkeypatch, model, graph, size):
    """Make certify_sound cut its nodes into chunks of ``size``; returns the chunk lengths seen."""
    monkeypatch.setattr(
        gcncert.certify, "_CHUNK_ELEMENTS", size * gcncert.certify._target_elements(model, graph)
    )
    seen = []
    kernel = gcncert.certify.back_substitute_batch

    def spy(model, graph, nodes, *args, **kwargs):
        seen.append(len(nodes))
        return kernel(model, graph, nodes, *args, **kwargs)

    monkeypatch.setattr(gcncert.certify, "back_substitute_batch", spy)
    return seen


_EXACT = ["nodes", "labels", "rivals", "pick_row", "pick_rival", "pick_node", "pick_feature"]


def _flip_table(certificate):
    """Every (row, rival) flip set, read back one at a time."""
    rows, rivals = certificate.rivals.shape
    return [[certificate.flip_set(t, r) for r in range(rivals)] for t in range(rows)]


def _records(certificate):
    """Per row: node, label, rivals, rival margins, flip sets, margin and flag, compared exactly."""
    return [
        (node, label, tuple(rivals), tuple(margins), tuple(flips), margin, certified)
        for node, label, rivals, margins, flips, margin, certified in zip(
            certificate.nodes.tolist(), certificate.labels.tolist(),
            certificate.rivals.tolist(), certificate.rival_margins.tolist(),
            _flip_table(certificate), certificate.margin.tolist(),
            certificate.certified.tolist())
    ]


def _assert_same_judgments(got, expected, tol=1e-9):
    # flip sets and flags exactly, margins up to summation order
    for name in _EXACT:
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    assert _flip_table(got) == _flip_table(expected)
    # the reference's margin and flag come from its rows here, not from Certificate
    margins = [min(row, default=float("inf")) for row in expected.rival_margins.tolist()]
    assert got.certified.tolist() == [margin > 0.0 for margin in margins]
    assert got.rival_margins.shape == expected.rival_margins.shape
    assert got.rival_margins.ravel().tolist() == pytest.approx(
        expected.rival_margins.ravel().tolist(), abs=tol)
    assert got.margin.tolist() == pytest.approx(margins, abs=tol)


@pytest.mark.parametrize("mode", ["both", "add-only", "delete-only"])
def test_certify_sound_matches_per_node_reference(rng, mode):
    # forward propagation -> label_difference_transform -> plain greedy, node
    # by node, against the batched kernel; budgets include empty ones
    budgets = [None, gc.PerturbationBudget(0, 2), gc.PerturbationBudget(2, 0),
               gc.PerturbationBudget(1, 3), gc.PerturbationBudget(3, 1)]
    for trial in range(20):
        if trial % 2:
            graph, model, budget = helpers.trained_instance(rng)
        else:
            graph, model, budget = helpers.raw_instance(rng, num_layers=int(rng.integers(1, 4)))
        budget = budgets[trial % len(budgets)] or budget
        certificate = gc.certify_sound(model, graph, budget, mode=mode)
        _assert_same_judgments(certificate, per_node_judgments(model, graph, budget, mode=mode))


def test_chunk_boundary_does_not_change_judgments(rng, monkeypatch):
    for _ in range(5):
        graph, model, budget = helpers.trained_instance(rng)
        whole = gc.certify_sound(model, graph, budget)
        with monkeypatch.context() as patch:
            seen = _chunks_of(patch, model, graph, 3)
            chunked = gc.certify_sound(model, graph, budget)
        n = graph.num_nodes
        assert seen == [3] * (n // 3) + ([n % 3] if n % 3 else [])
        _assert_same_judgments(chunked, whole, tol=1e-12)


def test_output_follows_requested_node_order(rng, monkeypatch):
    graph, model, budget = helpers.trained_instance(rng)
    by_node = _records(gc.certify_sound(model, graph, budget))
    n = graph.num_nodes
    order = [n - 1, 0, n - 1, n // 2, 0]
    _chunks_of(monkeypatch, model, graph, 2)
    expected = [by_node[i] for i in order]
    assert _records(gc.certify_sound(model, graph, budget, nodes=order)) == expected
    assert _records(gc.certify_sound(model, graph, budget, nodes=np.array(order))) == expected
    empty = gc.certify_sound(model, graph, budget, nodes=[])
    assert _records(empty) == []
    assert empty.rival_margins.shape == (0, model.num_labels - 1)


@pytest.mark.parametrize("case", ["node -1", "node n", "unknown mode", "unknown mode, no nodes"])
def test_certify_sound_rejects_out_of_range_input(two_node, case):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    kwargs = {
        "node -1": {"nodes": [0, -1]},
        "node n": {"nodes": [graph.num_nodes]},
        "unknown mode": {"mode": "downhill"},
        "unknown mode, no nodes": {"mode": "downhill", "nodes": []},
    }[case]
    with pytest.raises(gc.DataError):
        gc.certify_sound(model, graph, budget, **kwargs)


@pytest.mark.parametrize("case", ["label -1", "label past the last"])
def test_rival_margins_rejects_out_of_range_label(two_node, case):
    graph, model = two_node
    labels = {
        "label -1": np.array([-1, 0]),
        "label past the last": np.array([0, model.num_labels]),
    }[case]
    with pytest.raises(gc.DataError, match="label index out of range"):
        gcncert.certify.rival_margins(model, graph, gc.PerturbationBudget(1, 1), "topk",
                                      labels, np.arange(graph.num_nodes))


def test_rival_margins_of_no_nodes(two_node):
    # like certify_sound(nodes=[]): an empty (0, labels - 1) block and zero gradients
    graph, model = two_node
    margins, pullback = gcncert.certify.rival_margins(
        model, graph, gc.PerturbationBudget(1, 1), "topk", gc.predict(model, graph).labels,
        np.zeros(0, dtype=int))
    assert margins.shape == (0, model.num_labels - 1)
    grads = pullback(np.zeros(margins.shape))
    assert len(grads) == model.num_layers
    for (weight, bias), layer in zip(grads, model.layers):
        assert weight.shape == layer.weight.shape and bias.shape == layer.bias.shape
        assert not weight.any() and not bias.any()


@pytest.mark.parametrize("mode", ["both", "add-only", "delete-only"])
@pytest.mark.parametrize("variant", ["topk", "max"])
def test_rival_margins_equal_judgment_margins_bit_for_bit(rng, monkeypatch, variant, mode):
    for trial in range(6):
        graph, model, budget = helpers.trained_instance(rng)
        n = graph.num_nodes
        nodes = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        labels = gc.predict(model, graph).labels
        with monkeypatch.context() as patch:
            if trial % 2:  # one node per chunk
                _chunks_of(patch, model, graph, 1)
            margins, _ = gcncert.certify.rival_margins(model, graph, budget, variant,
                                                       labels, nodes, mode)
            certificate = gc.certify_sound(model, graph, budget, variant,
                                           nodes=nodes.tolist(), mode=mode)
        assert margins.shape == (len(nodes), model.num_labels - 1)
        assert margins.tobytes() == certificate.rival_margins.tobytes()


def test_counterexample_skips_certified(two_node):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    certificate = gc.certify_sound(model, graph, budget)
    assert certificate.certified[0]
    assert gc.generate_counterexample(model, graph, budget, certificate, 0) is None


def test_counterexample_on_exact_linear_model():
    graph, model, budget = helpers.flip_moves_label_example()
    certificate = gc.certify_sound(model, graph, budget)
    assert certificate.labels[0] == 0
    assert certificate.margin[0] == pytest.approx(-0.4, abs=1e-9)
    ce = gc.generate_counterexample(model, graph, budget, certificate, 0)
    assert ce is not None
    assert ce.flips.flips == ((0, 0),)
    assert ce.flipped_label == 1


def test_counterexamples_always_verified(rng):
    for _ in range(15):
        graph, model, budget = helpers.trained_instance(rng)
        certificate = gc.certify_sound(model, graph, budget)
        norm = gc.normalize_adjacency(graph)
        base = gc.predict(model, graph).labels
        for node, ce in gc.find_counterexamples(model, graph, budget, certificate).items():
            assert ce.flips.within(budget)
            perturbed = gc.apply_flips(graph.features, ce.flips)
            new_label = np.argmax(gc.forward(model, norm, perturbed)[node])
            assert new_label != base[node]
            assert new_label == ce.flipped_label


def test_certify_complete_two_node(two_node):
    graph, model = two_node
    budget = gc.PerturbationBudget(1, 1)
    certificate = gc.certify_sound(model, graph, budget)
    assert gc.find_counterexamples(model, graph, budget, certificate) == {}


def test_certify_complete_flags_broken_node():
    graph, model, budget = helpers.flip_moves_label_example()
    certificate = gc.certify_sound(model, graph, budget)
    assert list(gc.find_counterexamples(model, graph, budget, certificate)) == [0]


def test_no_node_both_certified_and_broken(rng):
    for _ in range(10):
        graph, model, budget = helpers.trained_instance(rng)
        certificate = gc.certify_sound(model, graph, budget)
        counterexamples = gc.find_counterexamples(model, graph, budget, certificate)
        for node, certified in zip(certificate.nodes.tolist(), certificate.certified.tolist()):
            assert not (certified and node in counterexamples)


def test_sound_and_complete_sandwich(rng):
    for _ in range(10):
        graph, model, budget = helpers.trained_instance(rng)
        if graph.num_nodes * graph.num_features > 15:
            continue
        robust = helpers.brute_force_robust_nodes(model, graph, budget)
        certificate = gc.certify_sound(model, graph, budget)
        broken = gc.find_counterexamples(model, graph, budget, certificate)
        for i, certified in enumerate(certificate.certified.tolist()):
            assert not certified or robust[i]
            assert not robust[i] or i not in broken
