import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcncert as gc
import helpers
from poly_oracle import forward_poly_propagation, gc_poly, poly_input_abstraction, relu_poly


def _exact_element(coef, const=None, var_nodes=(0,), num_features=None):
    coef = np.asarray(coef, dtype=float)
    const = np.zeros(coef.shape[0]) if const is None else np.asarray(const, dtype=float)
    m = coef.shape[1] // len(var_nodes) if num_features is None else num_features
    return gc.PolyNodeElement(np.array(var_nodes), m, coef.copy(), const.copy(), coef.copy(), const.copy())


def test_input_abstraction_is_identity():
    graph = gc.Graph(adjacency=np.zeros((1, 1), dtype=int), features=np.array([[1, 0]]))
    elem = poly_input_abstraction(graph)[0]
    assert np.allclose(elem.lower_coef, np.eye(2))
    assert np.allclose(elem.upper_coef, np.eye(2))
    assert np.allclose(elem.lower_const, 0) and np.allclose(elem.upper_const, 0)
    assert elem.vars == [(0, 0), (0, 1)]


def test_input_abstraction_reproduces_features(rng):
    graph, _, _ = helpers.raw_instance(rng)
    for i, elem in enumerate(poly_input_abstraction(graph)):
        lo, up = gc.evaluate_bounds(elem, graph.features)
        assert np.array_equal(lo, graph.features[i])
        assert np.array_equal(up, graph.features[i])


def test_input_abstraction_vars_disjoint(rng):
    graph, _, _ = helpers.raw_instance(rng)
    elems = poly_input_abstraction(graph)
    for i, elem in enumerate(elems):
        assert elem.var_nodes.tolist() == [i]


def test_linear_poly_keeps_exactness():
    elem = _exact_element([[1.0, 1.0]])  # h = x0 + x1
    out = gc.linear_poly(elem, np.array([[2.0]]), np.array([1.0]))
    for coef, const in ((out.lower_coef, out.lower_const), (out.upper_coef, out.upper_const)):
        assert np.allclose(coef, [[2.0, 2.0]])
        assert np.allclose(const, [1.0])


def test_linear_poly_negative_weight_swaps_bounds():
    # x0 <= h <= x0 + 1 through weight -1 becomes -x0 - 1 <= h' <= -x0
    elem = gc.PolyNodeElement(
        np.array([0]), 1,
        np.array([[1.0]]), np.array([0.0]),
        np.array([[1.0]]), np.array([1.0]),
    )
    out = gc.linear_poly(elem, np.array([[-1.0]]), np.zeros(1))
    assert np.allclose(out.lower_coef, [[-1.0]]) and out.lower_const[0] == pytest.approx(-1.0)
    assert np.allclose(out.upper_coef, [[-1.0]]) and out.upper_const[0] == pytest.approx(0.0)
    for x0 in (0.0, 1.0):
        lo, up = gc.evaluate_bounds(out, np.array([[x0]]))
        for h in (x0, x0 + 1.0):  # anything the input bounds admitted
            assert lo[0] <= -h + 1e-12 <= up[0] + 1e-12


def test_linear_poly_zero_weight_gives_constant():
    elem = _exact_element([[1.0, -2.0]])
    out = gc.linear_poly(elem, np.zeros((1, 2)), np.array([4.0, -1.0]))
    assert np.allclose(out.lower_coef, 0) and np.allclose(out.upper_coef, 0)
    assert np.allclose(out.lower_const, [4.0, -1.0])
    assert np.allclose(out.upper_const, [4.0, -1.0])


def test_gc_poly_two_node_average(two_node):
    graph, _ = two_node
    elems = poly_input_abstraction(graph)
    norm = gc.normalize_adjacency(graph)
    merged = gc_poly(elems, norm[0], 0)
    assert merged.var_nodes.tolist() == [0, 1]
    assert np.allclose(merged.lower_coef, np.hstack([0.5 * np.eye(4), 0.5 * np.eye(4)]))
    assert np.allclose(merged.lower_coef, merged.upper_coef)


def test_gc_poly_isolated_self_loop_is_identity():
    graph = gc.Graph(adjacency=np.zeros((1, 1), dtype=int), features=np.array([[1, 0]]))
    elems = poly_input_abstraction(graph)
    out = gc_poly(elems, gc.normalize_adjacency(graph)[0], 0)
    assert np.allclose(out.lower_coef, elems[0].lower_coef)
    assert np.allclose(out.upper_const, elems[0].upper_const)


def test_gc_poly_merges_shared_variables(rng):
    # two neighbor elements over overlapping variable sets: the merged element
    # must evaluate exactly like the weighted sum of the unmerged ones
    a = gc.PolyNodeElement(np.array([0, 1]), 2,
                           np.array([[1.0, 2.0, -1.0, 0.5]]), np.array([0.3]),
                           np.array([[1.5, 2.0, -1.0, 1.0]]), np.array([0.6]))
    b = gc.PolyNodeElement(np.array([1, 2]), 2,
                           np.array([[0.5, -0.5, 2.0, 1.0]]), np.array([-0.2]),
                           np.array([[0.5, 0.0, 2.0, 1.5]]), np.array([0.0]))
    row = np.array([0.7, 0.3, 0.0])
    merged = gc_poly([a, b, b], row, 0)
    assert merged.var_nodes.tolist() == [0, 1, 2]
    for _ in range(10):
        x = rng.integers(0, 2, (3, 2))
        lo, up = gc.evaluate_bounds(merged, x)
        lo_ref = 0.7 * gc.evaluate_bounds(a, x)[0] + 0.3 * gc.evaluate_bounds(b, x)[0]
        up_ref = 0.7 * gc.evaluate_bounds(a, x)[1] + 0.3 * gc.evaluate_bounds(b, x)[1]
        assert lo[0] == pytest.approx(lo_ref[0])
        assert up[0] == pytest.approx(up_ref[0])


def test_gc_poly_rejects_negative_row(two_node):
    graph, _ = two_node
    elems = poly_input_abstraction(graph)
    with pytest.raises(gc.DataError):
        gc_poly(elems, np.array([0.5, -0.5]), 0)


def test_relu_poly_stable_active_is_identity():
    elem = _exact_element([[1.0, 0.0], [0.0, 1.0]])
    out = relu_poly(elem, np.array([1.0, 0.0]), np.array([3.0, 2.0]))
    assert np.allclose(out.lower_coef, elem.lower_coef)
    assert np.allclose(out.upper_coef, elem.upper_coef)


def test_relu_poly_stable_inactive_is_zero():
    elem = _exact_element([[1.0, 0.0]])
    out = relu_poly(elem, np.array([-3.0]), np.array([-1.0]))
    assert np.allclose(out.lower_coef, 0) and np.allclose(out.upper_coef, 0)
    assert np.allclose(out.lower_const, 0) and np.allclose(out.upper_const, 0)


def test_relu_poly_mixed_upper_dominant():
    # lo=-1, up=2: chord slope 2/3 and shift 2/3 on the upper, lower untouched
    elem = _exact_element([[1.0, 1.0]], const=[0.5])
    out = relu_poly(elem, np.array([-1.0]), np.array([2.0]))
    assert np.allclose(out.lower_coef, [[1.0, 1.0]]) and out.lower_const[0] == pytest.approx(0.5)
    assert np.allclose(out.upper_coef, [[2 / 3, 2 / 3]])
    assert out.upper_const[0] == pytest.approx(0.5 * 2 / 3 + 2 / 3)


def test_relu_poly_mixed_lower_dominant():
    # lo=-2, up=1: lower zeroed, chord slope 1/3 with shift 2/3
    elem = _exact_element([[1.0]])
    out = relu_poly(elem, np.array([-2.0]), np.array([1.0]))
    assert np.allclose(out.lower_coef, 0) and out.lower_const[0] == 0
    assert np.allclose(out.upper_coef, [[1 / 3]])
    assert out.upper_const[0] == pytest.approx(2 / 3)


@given(st.floats(-5, -1e-3), st.floats(1e-3, 5))
@settings(max_examples=60, deadline=None)
def test_relu_relaxation_pointwise_sound(lo, up):
    elem = _exact_element([[1.0]])
    out = relu_poly(elem, np.array([lo]), np.array([up]))
    for x in np.linspace(lo, up, 9):
        low, high = gc.evaluate_bounds(out, np.array([[x]]))
        assert low[0] <= max(x, 0.0) + 1e-9
        assert high[0] >= max(x, 0.0) - 1e-9


def _trapezoid_area(lam, lo, up):
    return 0.5 * (-lam * lo + up - lam * up) * (up - lo)


def test_relu_lower_slope_choice_minimizes_area(rng):
    for _ in range(100):
        lo = rng.uniform(-5, -1e-6)
        up = rng.uniform(1e-6, 5)
        chosen = 1.0 if abs(up) >= abs(lo) else 0.0
        best_grid = min(_trapezoid_area(lam, lo, up) for lam in np.arange(0, 1.0001, 0.05))
        assert _trapezoid_area(chosen, lo, up) <= best_grid + 1e-9


def test_back_substitute_matches_forward(rng):
    for _ in range(12):
        layers = int(rng.integers(1, 4))
        graph, model, budget = helpers.raw_instance(rng, num_layers=layers)
        bounds = gc.interval_layer_bounds(model, graph, budget, "topk")
        norm = gc.normalize_adjacency(graph)
        fwd = forward_poly_propagation(model, graph, norm, bounds)
        for node in range(graph.num_nodes):
            back = gc.back_substitute(model, graph, node, bounds)
            ref = fwd[node]
            assert back.var_nodes.tolist() == ref.var_nodes.tolist()
            assert np.allclose(back.lower_coef, ref.lower_coef, atol=1e-9)
            assert np.allclose(back.lower_const, ref.lower_const, atol=1e-9)
            assert np.allclose(back.upper_coef, ref.upper_coef, atol=1e-9)
            assert np.allclose(back.upper_const, ref.upper_const, atol=1e-9)


def test_two_node_score_difference_is_exact(two_node):
    graph, model = two_node
    bounds = gc.interval_layer_bounds(model, graph, gc.PerturbationBudget(1, 1))
    elem = gc.back_substitute(model, graph, 0, bounds)
    delta = gc.label_difference_transform(elem, 1, 0)
    expected = np.array([[0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0]])
    assert np.allclose(delta.lower_coef, expected, atol=1e-9)
    assert np.allclose(delta.upper_coef, expected, atol=1e-9)
    assert delta.lower_const[0] == pytest.approx(0.0, abs=1e-9)
    assert delta.upper_const[0] == pytest.approx(0.0, abs=1e-9)


def test_symbolic_bounds_contain_all_reachable_latents(rng):
    # walk the abstract pipeline layer by layer next to the concrete one
    for _ in range(6):
        graph, model, budget = helpers.raw_instance(rng)
        if graph.num_nodes * graph.num_features > 12:
            continue
        bounds = gc.interval_layer_bounds(model, graph, budget, "topk")
        norm = gc.normalize_adjacency(graph)
        elems = poly_input_abstraction(graph)
        stages = []
        for l, layer in enumerate(model.layers):
            elems = [gc_poly(elems, norm[i], i) for i in range(graph.num_nodes)]
            elems = [gc.linear_poly(e, layer.weight, layer.bias) for e in elems]
            stages.append((l, "pre", list(elems)))
            if l < model.num_layers - 1:
                elems = [relu_poly(e, bounds[l].lower[i], bounds[l].upper[i])
                         for i, e in enumerate(elems)]
                stages.append((l, "post", list(elems)))
        for combo in helpers.iter_flip_combos(graph.num_nodes, graph.num_features, budget):
            x = helpers.flipped(graph.features, combo)
            h = x.astype(float)
            concrete = {}
            for l, layer in enumerate(model.layers):
                h = (norm @ h) @ layer.weight + layer.bias
                concrete[(l, "pre")] = h.copy()
                if l < model.num_layers - 1:
                    h = np.maximum(h, 0.0)
                    concrete[(l, "post")] = h.copy()
            for l, stage, es in stages:
                for i, e in enumerate(es):
                    lo, up = gc.evaluate_bounds(e, x)
                    assert (concrete[(l, stage)][i] >= lo - 1e-9).all()
                    assert (concrete[(l, stage)][i] <= up + 1e-9).all()


def test_exact_when_all_relus_stable(rng):
    # big positive biases keep every pre-activation positive: the symbolic
    # bounds must collapse to one exact affine map of the inputs
    for _ in range(5):
        graph, model, budget = helpers.raw_instance(rng)
        lifted = gc.GcnModel(tuple(
            gc.GcnLayer(l.weight, l.bias + 10.0) for l in model.layers
        ))
        bounds = gc.interval_layer_bounds(lifted, graph, budget, "topk")
        assert all((b.lower >= 0).all() for b in bounds[:-1])
        norm = gc.normalize_adjacency(graph)
        for node in range(graph.num_nodes):
            elem = gc.back_substitute(lifted, graph, node, bounds)
            assert np.allclose(elem.lower_coef, elem.upper_coef)
            assert np.allclose(elem.lower_const, elem.upper_const)
            lo, _ = gc.evaluate_bounds(elem, graph.features)
            scores = gc.forward(lifted, norm, graph.features)
            assert np.allclose(lo, scores[node], atol=1e-9)


def test_mixed_relu_lower_bound_can_undershoot_interval_floor():
    # documents a real limit of the one-inequality relaxation: with a mixed
    # pre-activation in [-0.5, 1.0] the kept lower bound reaches -0.5 while
    # interval analysis clamps at 0, so here intervals certify (+0.1) and the
    # symbolic form's minimum stays negative (-0.4) although the node is robust
    graph, model, budget = helpers.undershoot_example()
    assert gc.exact_robust_nodes(model, graph, budget).all()
    interval_margin = gc.interval_certify(model, graph, budget, "topk")[0]
    assert interval_margin == pytest.approx(0.1, abs=1e-9)
    label = int(gc.predict(model, graph).labels[0])
    bounds = gc.interval_layer_bounds(model, graph, budget, "topk")
    elem = gc.back_substitute(model, graph, 0, bounds)
    row = gc.label_difference_transform(elem, label, 1 - label)
    form_min, _ = gc.minimize_delta(row, graph.features, budget)
    assert form_min == pytest.approx(-0.4, abs=1e-9)
    # certify_sound takes the better of the form and the interval box per
    # rival, so the judgment recovers the interval certificate
    judgment = gc.certify_sound(model, graph, budget, "topk")[0]
    assert judgment.margin == pytest.approx(0.1, abs=1e-9)
    assert judgment.certified
    # and a certified node is never given a counterexample
    assert gc.generate_counterexample(model, graph, budget, judgment) is None
