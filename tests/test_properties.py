"""Property tests: the JSON loaders against cell-by-cell references, the
certifiers' ordering invariants over small random graphs and models, the
neighbour table of Ã against the dense matrix, the field-local evaluator
against the whole-graph forward pass, the row-blocked flip-candidate pools
and hop routine against their whole-graph references, each row's bounds,
margins and flip-candidate gradient against a disjoint star joining its
graph, the minimizer's selection against two full stable sorts, and the
kernel's specification rows against its one-sided batches.

Every test runs derandomized, so a tier-1 run is reproducible.
"""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcncert as gc
from gcncert import fileio
from gcncert.certify import rival_margins
from gcncert.perturbation import MODES
import helpers

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

_NUMBER = st.one_of(st.integers(-10**6, 10**6),
                    st.floats(allow_nan=False, allow_infinity=False))
# Invalid in every integer table; tables add their own out-of-range values.
_NOT_AN_INDEX = [True, False, 0.5, 1.0, -2, 10**30, [0]]
# Invalid in every number table: JSON writes nan and inf as NaN and Infinity.
_NOT_A_NUMBER = [True, False, 10**400, math.nan, -math.inf, [0.5], "1"]


@st.composite
def documents(draw):
    """A valid graph, model and labels document for the same graph."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    bit = st.integers(0, 1)
    graph = {
        "num_nodes": n,
        "num_features": m,
        "edges": draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2),
                               max_size=8)),
        "features": draw(st.lists(st.lists(bit, min_size=m, max_size=m), min_size=n, max_size=n)),
    }
    widths = [m] + draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    model = {"layers": [
        {"weight": draw(st.lists(st.lists(_NUMBER, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows)),
         "bias": draw(st.lists(_NUMBER, min_size=cols, max_size=cols))}
        for rows, cols in zip(widths, widths[1:])
    ]}
    labels = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    return graph, model, labels


def _load_all(folder: Path, graph: dict, model: dict, labels: list):
    paths = [folder / name for name in ("graph.json", "model.json", "labels.json")]
    for path, doc in zip(paths, (graph, model, labels)):
        path.write_text(json.dumps(doc))
    loaded = fileio.load_graph(str(paths[0]))
    return (loaded, fileio.load_model(str(paths[1])),
            fileio.load_labels(str(paths[2]), loaded.num_nodes))


def _assert_same(actual: np.ndarray, expected: np.ndarray):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@given(documents())
@PROPERTY
def test_loaders_match_cell_by_cell_reference(docs):
    graph_doc, model_doc, labels_doc = docs
    with tempfile.TemporaryDirectory() as folder:
        graph, model, labels = _load_all(Path(folder), *docs)
    n, m = graph_doc["num_nodes"], graph_doc["num_features"]
    adjacency = np.zeros((n, n), dtype=np.int64)
    for i, j in graph_doc["edges"]:
        adjacency[i, j] = adjacency[j, i] = 1
    features = np.zeros((n, m), dtype=np.uint8)
    for i in range(n):
        for j in range(m):
            features[i, j] = graph_doc["features"][i][j]
    _assert_same(helpers.dense_adjacency(graph), adjacency)
    _assert_same(graph.features, features)
    for layer, layer_doc in zip(model.layers, model_doc["layers"], strict=True):
        weight = np.zeros((len(layer_doc["weight"]), len(layer_doc["bias"])))
        for r, row in enumerate(layer_doc["weight"]):
            for c, value in enumerate(row):
                weight[r, c] = float(value)
        bias = np.array([float(value) for value in layer_doc["bias"]])
        _assert_same(layer.weight, weight)
        _assert_same(layer.bias, bias)
    _assert_same(labels, np.array(labels_doc, dtype=np.int64))


def _cells(docs):
    """(document index, position text, container, key, bad values) of every table cell."""
    graph, model, labels = docs
    n = graph["num_nodes"]
    for k, edge in enumerate(graph["edges"]):
        for c in range(2):
            yield 0, f"edges[{k}][{c}]", edge, c, _NOT_AN_INDEX + [n]
    for i, row in enumerate(graph["features"]):
        for j in range(len(row)):
            yield 0, f"features[{i}][{j}]", row, j, _NOT_AN_INDEX + [2]
    for l, layer in enumerate(model["layers"]):
        for r, row in enumerate(layer["weight"]):
            for c in range(len(row)):
                yield 1, f"layers[{l}].weight[{r}][{c}]", row, c, _NOT_A_NUMBER
        for c in range(len(layer["bias"])):
            yield 1, f"layers[{l}].bias[{c}]", layer["bias"], c, _NOT_A_NUMBER
    for k in range(len(labels)):
        yield 2, f"labels[{k}]", labels, k, _NOT_AN_INDEX


@given(documents(), st.data())
@PROPERTY
def test_one_corrupt_cell_is_named(docs, data):
    docs = copy.deepcopy(docs)
    which, where, container, key, bad = data.draw(st.sampled_from(list(_cells(docs))))
    container[key] = data.draw(st.sampled_from(bad))
    name = ("graph.json", "model.json", "labels.json")[which]
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / name
        try:
            _load_all(Path(folder), *docs)
        except gc.DataError as exc:
            message = str(exc)
        else:
            raise AssertionError(f"{where} = {container[key]!r} was accepted")
    assert re.match(re.escape(f"{path}: {where}: expected "), message), message


_VARIANTS = st.sampled_from(["topk", "max"])


@given(st.integers(0, 2**32 - 1), _VARIANTS)
@settings(derandomize=True, deadline=None, max_examples=60)
def test_sound_oracle_complete_sandwich(seed, variant):
    graph, model, budget = helpers.trained_instance(np.random.default_rng(seed))
    certificate = gc.certify_sound(model, graph, budget, variant)
    robust = gc.exact_robust_nodes(model, graph, budget)
    broken = gc.find_counterexamples(model, graph, budget, certificate)
    assert robust[certificate.nodes[certificate.certified]].all()
    assert not any(robust[node] for node in broken)


@given(st.integers(0, 2**32 - 1), _VARIANTS)
@settings(derandomize=True, deadline=None, max_examples=60)
def test_poly_is_at_least_interval(seed, variant):
    graph, model, budget = helpers.raw_instance(np.random.default_rng(seed))
    certificate = gc.certify_sound(model, graph, budget, variant)
    assert (certificate.margin >= gc.interval_certify(model, graph, budget, variant)).all()
    limits = {family: gc.compute_robust_limits(model, graph, budget.per_node, cap=4,
                                               variant=variant, family=family).limits
              for family in ("poly", "interval")}
    assert (limits["poly"] >= limits["interval"]).all()


@given(st.integers(0, 2**32 - 1), _VARIANTS, st.sampled_from(MODES))
@settings(derandomize=True, deadline=None, max_examples=60)
def test_rival_margins_equal_certificate_bit_for_bit(seed, variant, mode):
    graph, model, budget = helpers.raw_instance(np.random.default_rng(seed), num_layers=3)
    certificate = gc.certify_sound(model, graph, budget, variant, mode=mode)
    labels = gc.predict(model, graph).labels
    margins, _ = rival_margins(model, graph, budget, variant, labels, np.arange(graph.num_nodes),
                               mode=mode)
    _assert_same(margins, certificate.rival_margins)


def _relabeled(rng, model, num_labels):
    """``model`` with a fresh output layer of ``num_labels`` labels."""
    last = model.layers[-1].weight.shape[0]
    return gc.GcnModel(model.layers[:-1] + (gc.GcnLayer(
        rng.uniform(-1, 1, (last, num_labels)), rng.uniform(-0.5, 0.5, num_labels)),))


def _one_sided(model, graph, hops, bounds, side):
    """The kernel's batch with the identity on ``side`` (0 lower, 1 upper): every label's form."""
    spec = np.zeros((len(hops[0][0]), 2, model.num_labels, model.num_labels))
    spec[:, side] = np.eye(model.num_labels)
    return gc.polyhedra.back_substitute_batch(model, graph, hops, bounds, spec)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([2, 3, 4, 5]), _VARIANTS)
@settings(derandomize=True, deadline=None, max_examples=60)
def test_kernel_rows_are_the_all_lower_or_all_upper_rows(seed, num_layers, num_labels, variant):
    rng = np.random.default_rng(seed)
    graph, model, budget = helpers.raw_instance(rng, num_layers)
    model = _relabeled(rng, model, num_labels)
    bounds = gc.interval_layer_bounds(model, graph, budget, variant)
    nodes = rng.permutation(graph.num_nodes)[: int(rng.integers(1, graph.num_nodes + 1))]
    hops = gc.graph.receptive_fields(graph, nodes, num_layers)
    # row q of each target is one-hot on label q, on a side drawn at random
    upper = rng.random((len(nodes), num_labels)) < 0.5
    spec = np.zeros((len(nodes), 2, num_labels, num_labels))
    spec[:, 0] = np.eye(num_labels) * ~upper[:, :, None]
    spec[:, 1] = np.eye(num_labels) * upper[:, :, None]
    mixed = gc.polyhedra.back_substitute_batch(model, graph, hops, bounds, spec)
    lower_only, upper_only = (_one_sided(model, graph, hops, bounds, side) for side in (0, 1))
    _assert_same(mixed.fronts, lower_only.fronts)
    side = upper[:, :, None, None]
    _assert_same(mixed.coef, np.where(side, upper_only.coef, lower_only.coef))
    _assert_same(mixed.const, np.where(upper, upper_only.const, lower_only.const))


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 5), _VARIANTS)
@settings(derandomize=True, deadline=None, max_examples=60)
def test_certificate_rows_are_label_lower_minus_rival_upper(seed, num_layers, num_labels, variant):
    rng = np.random.default_rng(seed)
    graph, model, budget = helpers.raw_instance(rng, num_layers)
    model = _relabeled(rng, model, num_labels)
    bounds = gc.interval_layer_bounds(model, graph, budget, variant)
    labels = rng.integers(0, num_labels, graph.num_nodes)
    nodes = rng.permutation(graph.num_nodes)[: int(rng.integers(1, graph.num_nodes + 1))]
    hops = gc.graph.receptive_fields(graph, nodes, num_layers)
    # the certificate's specification: +1 on the label's lower row, -1 on each rival's upper row
    at, own, v = np.arange(len(nodes))[:, None], labels[nodes][:, None], num_labels - 1
    rivals = np.arange(v) + (np.arange(v) >= own)
    spec = np.zeros((len(nodes), 2, v, num_labels))
    spec[at, 0, np.arange(v), own] = 1.0
    spec[at, 1, np.arange(v), rivals] = -1.0
    batch = gc.polyhedra.back_substitute_batch(model, graph, hops, bounds, spec)
    part = gc.certify._chunk_margins(model, graph, budget, "both", bounds, labels, hops)
    _assert_same(part.rivals, rivals)
    minima, _ = gc.certify._minimize_forms(batch.coef.copy(), batch.const,
                                           graph.features[batch.fronts], budget, "both")
    _assert_same(part.poly_min, minima)  # the certificate minimizes these rows
    lower, upper = (_one_sided(model, graph, hops, bounds, side) for side in (0, 1))
    assert batch.coef.shape == (len(nodes), v) + lower.coef.shape[2:]
    _close(batch.coef, lower.coef[at, own] - upper.coef[at, rivals])
    _close(batch.const, lower.const[at, own] - upper.const[at, rivals])


@st.composite
def sparse_instances(draw):
    """A sparse random graph of 10 to 40 nodes, a model of 1 to 3 layers and a budget.

    Receptive fields differ widely in width, so a node's chunk, and how far
    its field is padded, depends on which other nodes are certified with it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m0 = draw(st.integers(10, 40)), draw(st.integers(2, 8))
    edges = rng.integers(0, n, (int(n * draw(st.floats(0.5, 1.5))), 2))
    graph = gc.Graph(edges, (rng.random((n, m0)) < 0.4).astype(int))
    widths = [m0] + [int(rng.integers(2, 7)) for _ in range(draw(st.integers(0, 2)))]
    widths.append(draw(st.integers(2, 4)))
    model = gc.GcnModel(tuple(
        gc.GcnLayer(rng.uniform(-1, 1, (a, b)), rng.uniform(-0.5, 0.5, b))
        for a, b in zip(widths, widths[1:])))
    budget = gc.PerturbationBudget(draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    return graph, model, budget


@given(sparse_instances(), _VARIANTS, st.sampled_from(MODES), st.data())
@PROPERTY
def test_subset_rows_match_the_full_run_up_to_rounding(instance, variant, mode, data):
    # a row's chunk sets how far its field is padded, and the padding regroups
    # sums over the field (the layer-0 product with Ã, the minimizer's base and
    # the constants), so a row certified in a subset may differ from the full
    # run's in its last bits, but by no more, and no judgment away from 0 moves
    graph, model, budget = instance
    n = graph.num_nodes
    full = gc.certify_sound(model, graph, budget, variant, mode=mode)
    nodes = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    with pytest.MonkeyPatch.context() as patch:
        helpers.chunks_of(patch, model, graph, data.draw(st.sampled_from([1, 2, 3, None])))
        subset = gc.certify_sound(model, graph, budget, variant, nodes=nodes, mode=mode)
    _assert_same(subset.nodes, full.nodes[nodes])
    _close(subset.rival_margins, full.rival_margins[nodes])
    decided = np.abs(full.margin[nodes]) > 1e-9
    _assert_same(subset.certified[decided], full.certified[nodes][decided])


@st.composite
def edge_list_instances(draw):
    """A graph from a raw edge list, a 2-layer model and a budget.

    The edges come in both orientations and always include a repeated pair
    (the first edge reversed), a self-loop, and an isolated last node.
    """
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.lists(node, min_size=2, max_size=2), min_size=1, max_size=12))
    edges += [edges[0][::-1], [draw(node)] * 2]
    features = draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                             min_size=n + 1, max_size=n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = [m, int(rng.integers(1, 4)), int(rng.integers(2, 4))]
    model = gc.GcnModel(tuple(
        gc.GcnLayer(rng.uniform(-1, 1, (a, b)), rng.uniform(-0.5, 0.5, b))
        for a, b in zip(widths, widths[1:])))
    budget = gc.PerturbationBudget(draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    return gc.Graph(edges, np.array(features)), model, budget


def _close(actual: np.ndarray, expected: np.ndarray):
    assert actual.shape == expected.shape
    assert np.allclose(actual, expected, rtol=1e-12, atol=1e-12)


@given(edge_list_instances(), _VARIANTS)
@PROPERTY
def test_neighbor_table_matches_dense_adjacency(instance, variant):
    graph, model, budget = instance
    dense = helpers.dense_graph(graph)
    assert graph.num_nodes - 1 not in graph.edges  # the isolated node
    _assert_same(helpers.densify(graph.norm_adj), helpers.dense_norm_adj(graph))
    _close(gc.forward(model, graph.norm_adj, graph.features),
           gc.forward(model, dense.norm_adj, graph.features))
    for sparse_bounds, dense_bounds in zip(
            gc.interval_layer_bounds(model, graph, budget, variant),
            gc.interval_layer_bounds(model, dense, budget, variant), strict=True):
        _close(sparse_bounds.lower, dense_bounds.lower)
        _close(sparse_bounds.upper, dense_bounds.upper)
    certificate = gc.certify_sound(model, graph, budget, variant)
    reference = gc.certify_sound(model, dense, budget, variant)
    _close(certificate.rival_margins, reference.rival_margins)
    _assert_same(certificate.certified, reference.certified)
    for name in ("nodes", "labels", "rivals", "pick_row", "pick_rival", "pick_node",
                 "pick_feature"):
        _assert_same(getattr(certificate, name), getattr(reference, name))
    replayed, replayed_dense = (
        {node: (ce.flips, ce.flipped_label) for node, ce in
         gc.find_counterexamples(model, g, budget, cert).items()}
        for g, cert in ((graph, certificate), (dense, reference)))
    assert replayed == replayed_dense
    _assert_same(gc.exact_robust_nodes(model, graph, budget),
                 gc.exact_robust_nodes(model, dense, budget))


@st.composite
def scored_instances(draw):
    """A graph and model for the field-local scores: an edge-list, trained 2-layer, raw 3-layer or sparse instance.

    The output layer is redrawn to 1, 3 or 5 labels, or kept, so that a BLAS
    path chosen by the output width or the rows' alignment would show.
    """
    kind = draw(st.sampled_from(["edges", "trained", "raw", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph, model, _ = (draw(edge_list_instances()) if kind == "edges" else
                       draw(sparse_instances()) if kind == "sparse" else
                       helpers.trained_instance(rng) if kind == "trained" else
                       helpers.raw_instance(rng, num_layers=3))
    width = draw(st.sampled_from([None, 1, 3, 5]))
    return graph, model if width is None else _relabeled(rng, model, width)


@given(scored_instances(), st.booleans(), st.data())
@PROPERTY
def test_field_labels_match_whole_graph_forward(instance, tie, data):
    graph, model = instance
    if tie and model.num_labels > 1:  # labels 0 and 1 score alike, so they tie whenever they lead
        last = model.layers[-1]
        weight, bias = last.weight.copy(), last.bias.copy()
        weight[:, 1], bias[1] = weight[:, 0], bias[0]
        model = gc.GcnModel(model.layers[:-1] + (gc.GcnLayer(weight, bias),))
    n, m = graph.features.shape
    nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))  # repeats allowed
    hops = gc.graph.receptive_fields(graph, nodes, model.num_layers)
    field, live = hops[-1]
    # each row's flip sets, as cells slot * m + feature of the row's own field
    per_row = [data.draw(st.lists(st.sets(st.integers(0, live[t].sum() * m - 1), min_size=1),
                                  min_size=1, max_size=4)) for t in range(len(nodes))]
    sets = max(map(len, per_row))
    # every set's features in one stack; a padding set flips nothing and is labelled -1
    which, cells, expected = [], [], np.full((len(nodes), sets), -1)
    stack = np.repeat(graph.features[None], len(nodes) * sets, axis=0)
    for t, chosen_sets in enumerate(per_row):
        for k, chosen in enumerate(chosen_sets):
            which += [t * sets + k] * len(chosen)
            cells += sorted(chosen)
            for cell in chosen:
                slot, feature = divmod(cell, m)
                stack[t * sets + k, field[t, slot], feature] ^= 1
    whole = gc.forward(model, graph.norm_adj, stack).reshape(len(nodes), sets, n, -1)
    whole = whole[np.arange(len(nodes)), :, nodes]  # (rows, sets, labels)
    which, cells = np.array(which, dtype=np.int64), np.array(cells, dtype=np.int64)
    flips = (which, cells // m, cells % m)
    scores = gc.graph.field_scores(model, graph, hops, sets, flips)
    assert scores.shape == whole.shape and np.array_equal(scores, whole)
    for t, chosen_sets in enumerate(per_row):
        expected[t, : len(chosen_sets)] = np.argmax(whole[t, : len(chosen_sets)], axis=1)
    _assert_same(gc.graph.field_labels(model, graph, hops, sets, flips), expected)


@st.composite
def hub_instances(draw):
    """A graph with one hub row far wider than the rest, a model of 2 or 3 layers and a budget.

    The hub joins every node but the last, which stays isolated, and has a
    self-loop. ``per_node`` is 1, m0 or beyond m0, and ``total`` reaches past
    the widest row's pool of scaled candidates.
    """
    n, m0, m1 = draw(st.integers(4, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    node = st.integers(0, n - 2)
    hub = draw(node)
    edges = draw(st.lists(st.lists(node, min_size=2, max_size=2), max_size=n // 2))
    edges += [[hub, other] for other in range(n - 1)] + [[draw(node)] * 2]
    features = draw(st.lists(st.lists(st.integers(0, 1), min_size=m0, max_size=m0),
                             min_size=n, max_size=n))
    graph = gc.Graph(edges, np.array(features))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = [m0, m1] + [int(rng.integers(1, 4)) for _ in range(draw(st.integers(1, 2)))]
    model = gc.GcnModel(tuple(
        gc.GcnLayer(rng.uniform(-1, 1, (a, b)), rng.uniform(-0.5, 0.5, b))
        for a, b in zip(widths, widths[1:])))
    per_node = draw(st.sampled_from([1, m0, m0 + draw(st.integers(1, 2))]))
    pool = int(np.diff(graph.norm_adj.starts).max()) * min(per_node, m0)
    budget = gc.PerturbationBudget(per_node, draw(st.integers(1, pool + 2)))
    return graph, model, budget, rng


def _bounds_and_gradients(model, graph, budget, variant, mode, rng):
    """``interval_layer_bounds`` and its backward pass's parameter gradients for random seeds."""
    bounds = gc.interval_layer_bounds(model, graph, budget, variant, mode=mode)
    bound_grads = [(rng.standard_normal(b.lower.shape), rng.standard_normal(b.upper.shape))
                   for b in bounds]
    param_grads = [(np.zeros_like(layer.weight), np.zeros_like(layer.bias))
                   for layer in model.layers]
    gc.intervals.interval_layer_bounds_backward(model, graph, budget, variant, mode, bounds,
                                                bound_grads, param_grads)
    return [x for b in bounds for x in (b.lower, b.upper)] + [x for p in param_grads for x in p]


@given(hub_instances(), _VARIANTS, st.sampled_from(MODES), st.data())
@PROPERTY
def test_row_blocks_match_whole_graph_reference(instance, variant, mode, data):
    graph, model, budget, rng = instance
    n, m0 = graph.features.shape
    widest, m1 = int(np.diff(graph.norm_adj.starts).max()), model.layers[0].weight.shape[1]
    seed = int(rng.integers(2**32))
    nodes = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=3 * n)))
    depth = data.draw(st.integers(1, 3))
    with pytest.MonkeyPatch.context() as patch:  # blocks of 1 to 3 source rows, few node rows
        patch.setattr(gc.intervals, "_POOL_ELEMENTS", data.draw(st.integers(1, 3 * m0 * m1)))
        patch.setattr(gc.graph, "_HOP_ELEMENTS", data.draw(st.integers(1, 3 * widest)))
        blocked = _bounds_and_gradients(model, graph, budget, variant, mode,
                                        np.random.default_rng(seed))
        hops = gc.graph.receptive_fields(graph, nodes, depth)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gc.intervals, "_flip_deviations",
                      lambda *args: helpers.reference_flip_deviations(*args)[:2])
        patch.setattr(gc.intervals, "_flip_deviations_backward",
                      helpers.reference_flip_deviations_backward)
        reference = _bounds_and_gradients(model, graph, budget, variant, mode,
                                          np.random.default_rng(seed))
    for actual, expected in zip(blocked, reference, strict=True):
        _assert_same(actual, expected)
    for (front, live), (ref_front, ref_live) in zip(
            hops, helpers.reference_receptive_fields(graph, nodes, depth), strict=True):
        _assert_same(front, ref_front)
        _assert_same(live, ref_live)


@given(hub_instances(), st.data())
@PROPERTY
def test_blocked_table_product_and_chunk_hops_match_references(instance, data):
    graph, model, _, rng = instance
    n, table = graph.num_nodes, graph.norm_adj
    widest = int(np.diff(table.starts).max())
    sets, m = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 4))
    # (n, m) as in ``forward`` and the interval bounds, (sets, n, m) as in a tie settlement
    for h in (rng.standard_normal((n, m)), rng.standard_normal((sets, n, m))):
        with pytest.MonkeyPatch.context() as patch:  # blocks of 1 to 3 of the widest rows
            patch.setattr(gc.graph, "_HOP_ELEMENTS",
                          data.draw(st.integers(1, 3 * widest * h.size // n)))
            _assert_same(table @ h, helpers.reference_table_product(table, h))
    nodes = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n)))
    with pytest.MonkeyPatch.context() as patch:  # hop blocks of 1 to 3 rows, small chunks
        patch.setattr(gc.graph, "_HOP_ELEMENTS", data.draw(st.integers(1, 3 * n * widest)))
        helpers.chunks_of(patch, model, graph, data.draw(st.sampled_from([1, 2, 3, None])))
        chunks = list(gc.certify._chunks(model, graph, nodes))
    assert sorted(np.concatenate([rows for rows, _ in chunks]).tolist()) == list(range(len(nodes)))
    for rows, hops in chunks:
        reference = helpers.reference_receptive_fields(graph, nodes[rows], model.num_layers)
        for (front, live), (ref_front, ref_live) in zip(hops, reference, strict=True):
            _assert_same(front, ref_front)
            _assert_same(live, ref_live)


@given(hub_instances(), st.data())
@PROPERTY
def test_table_product_reads_features_in_their_own_dtype(instance, data):
    graph, _, _, rng = instance
    n, table = graph.num_nodes, graph.norm_adj
    sets, m = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 4))
    # the graph's own uint8 features, plain and stacked like the oracle's flipped copies
    for h in (graph.features, (rng.random((sets, n, m)) < 0.5).astype(np.uint8)):
        with pytest.MonkeyPatch.context() as patch:  # blocks of 1 row up to the whole table
            patch.setattr(gc.graph, "_HOP_ELEMENTS", data.draw(st.integers(1, h.size * n)))
            _assert_same(table @ h, table @ h.astype(np.float64))


@st.composite
def narrow_instances(draw):
    """A small graph, a model whose first layer has one output, and a budget of 8 to 12 flips.

    With one output a row's ``topk`` picks lie next to each other, where a
    plain sum adds 8 or more of them pairwise.
    """
    n, m0 = draw(st.integers(3, 10)), draw(st.integers(1, 4))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.lists(node, min_size=2, max_size=2), max_size=2 * n))
    features = draw(st.lists(st.lists(st.integers(0, 1), min_size=m0, max_size=m0),
                             min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = [m0, 1] + [int(rng.integers(1, 4)) for _ in range(draw(st.integers(1, 2)))]
    model = gc.GcnModel(tuple(
        gc.GcnLayer(rng.uniform(-1, 1, (a, b)), rng.uniform(-0.5, 0.5, b))
        for a, b in zip(widths, widths[1:])))
    budget = gc.PerturbationBudget(draw(st.integers(1, m0)), draw(st.integers(8, 12)))
    return gc.Graph(np.array(edges).reshape(-1, 2), np.array(features)), model, budget, rng


@given(narrow_instances(), _VARIANTS, st.sampled_from(MODES))
@PROPERTY
def test_rows_keep_their_bits_when_a_disjoint_star_joins(instance, variant, mode):
    # the star's centre is the graph's widest row by far; every row of the
    # graph is computed as it would be alone, so none of its bits may move
    graph, model, budget, rng = instance
    (n, m0), leaves = graph.features.shape, 40
    spokes = np.stack([np.full(leaves, n), n + 1 + np.arange(leaves)], axis=1)
    joined = gc.Graph(np.concatenate([graph.edges, spokes]),
                      np.vstack([graph.features, rng.integers(0, 2, (leaves + 1, m0))]))
    for alone, with_star in zip(gc.interval_layer_bounds(model, graph, budget, variant, mode=mode),
                                gc.interval_layer_bounds(model, joined, budget, variant, mode=mode),
                                strict=True):
        _assert_same(with_star.lower[:n], alone.lower)
        _assert_same(with_star.upper[:n], alone.upper)
    alone, with_star = (gc.certify_sound(model, g, budget, variant, nodes=np.arange(n), mode=mode)
                        for g in (graph, joined))
    _assert_same(with_star.rival_margins, alone.rival_margins)


@st.composite
def tied_instances(draw):
    """A small graph, a model whose first-layer weights take 4 values, and a budget.

    Flip candidates of different features then often tie, within one node's
    pool and across neighbours of one degree.
    """
    n, m0, m1 = draw(st.integers(3, 10)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.lists(node, min_size=2, max_size=2), max_size=2 * n))
    features = draw(st.lists(st.lists(st.integers(0, 1), min_size=m0, max_size=m0),
                             min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = gc.GcnLayer(rng.choice([-1.0, -0.5, 0.5, 1.0], (m0, m1)), rng.uniform(-0.5, 0.5, m1))
    model = gc.GcnModel((first, gc.GcnLayer(rng.uniform(-1, 1, (m1, 2)), rng.uniform(-0.5, 0.5, 2))))
    budget = gc.PerturbationBudget(draw(st.integers(1, m0)), draw(st.integers(1, 3 * m0)))
    return gc.Graph(np.array(edges).reshape(-1, 2), np.array(features)), model, budget, rng


@given(tied_instances(), _VARIANTS, st.sampled_from(MODES))
@PROPERTY
def test_first_layer_gradient_keeps_its_bits_when_a_disjoint_star_joins(instance, variant, mode):
    # the star's centre pads the pools of the graph's rows to its 41 entries, and
    # its rows' slopes are 0, so the tied candidates each bound takes must not move
    graph, model, budget, rng = instance
    (n, m0), leaves = graph.features.shape, 40
    spokes = np.stack([np.full(leaves, n), n + 1 + np.arange(leaves)], axis=1)
    joined = gc.Graph(np.concatenate([graph.edges, spokes]),
                      np.vstack([graph.features, rng.integers(0, 2, (leaves + 1, m0))]))
    slopes = rng.standard_normal((2, n, model.layers[0].bias.size))
    alone = gc.intervals._flip_deviations_backward(model, graph, budget, variant, mode, *slopes)
    with_star = gc.intervals._flip_deviations_backward(
        model, joined, budget, variant, mode, *np.pad(slopes, ((0, 0), (0, leaves + 1), (0, 0))))
    _assert_same(with_star, alone)


# few coefficient values, both zeros among them: most rows hold ties, and
# -0.0 ranks level with 0.0
_TIED = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 1.0, 2.0])


@st.composite
def form_batches(draw):
    """Tie-heavy inputs of ``_minimize_forms``: coefficients, constants, features, budget."""
    t, v, f, m0 = (draw(st.integers(1, most)) for most in (3, 3, 4, 5))

    def array(values, *shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)

    budget = gc.PerturbationBudget(draw(st.integers(0, m0 + 1)), draw(st.integers(0, f * m0 + 2)))
    return array(_TIED, t, v, f, m0), array(_TIED, t, v), array(st.integers(0, 1), t, f, m0), budget


@given(form_batches(), st.sampled_from(MODES))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_minimizer_matches_two_stable_sorts(batch, mode):
    coef, *rest = batch  # the kernel consumes its coefficients
    minima, picks = gc.certify._minimize_forms(coef.copy(), *rest, mode)
    expected_minima, expected_picks = helpers.reference_minimize_forms(coef, *rest, mode)
    _assert_same(minima, expected_minima)
    for pick, expected in zip(picks, expected_picks, strict=True):
        _assert_same(pick, expected)


@given(form_batches(), st.sampled_from(MODES), st.data())
@PROPERTY
def test_minimizer_keeps_non_finite_forms_non_finite(batch, mode, data):
    # the kernel raises DataError on any minimum that is not finite, so the
    # selection may pick otherwise than the sorts only where both minima are not finite
    coef, const, features, budget = batch
    for _ in range(data.draw(st.integers(1, 3))):
        cell = tuple(data.draw(st.integers(0, size - 1)) for size in coef.shape)
        coef[cell] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    with np.errstate(invalid="ignore"):
        minima, _ = gc.certify._minimize_forms(coef.copy(), const, features, budget, mode)
        expected, _ = helpers.reference_minimize_forms(coef, const, features, budget, mode)
    finite = np.isfinite(coef).all(axis=(2, 3))
    _assert_same(np.isfinite(minima), finite)
    _assert_same(np.isfinite(expected), finite)
    _assert_same(minima[finite], expected[finite])
