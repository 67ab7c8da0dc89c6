"""The benchmark's checks reject planted wrong answers and accept honest ones.

Run with ``python3 -m pytest perfbench``; needs numpy and pytest, not gcncert.
"""

from __future__ import annotations

import numpy as np
import pytest

import checks
import gen
import reference

SMALL = gen.SbmShape(nodes=40, classes=3, signature=4, hidden=6, in_degree=3.0,
                     out_degree=1.0, p_signature=0.4, p_noise=0.05, fit_nodes=40, fit_steps=150, fit_lr=2.0, fit_decay=0.0)


@pytest.fixture(scope="module")
def inst():
    graph, model, _ = gen.sbm_instance(5, SMALL)
    return checks.Instance.from_docs(graph, model, per_node=2, total=3)


def _broken(inst):
    """(node, flips): a greedy attack within the budget that changes the node's label."""
    for node in range(inst.num_nodes):
        view = checks.LocalView(inst, node)
        flips = view.greedy_attack(inst.per_node, inst.total)
        if view.gap_of(flips) < -1e-6:
            return node, flips
    raise AssertionError("no breakable node in the test instance")


def _rows(inst, margin=-1e9, flips=None):
    rows = [checks.CertifyRow(i, margin, margin > 0, ()) for i in range(inst.num_nodes)]
    if flips is not None:
        node, fs = flips
        rows[node] = checks.CertifyRow(node, -1.0, False, tuple(fs))
    return rows


def test_true_counterexample_passes(inst):
    node, flips = _broken(inst)
    assert checks.check_counterexamples(inst, _rows(inst, flips=(node, flips))) == []


def test_forged_counterexample_that_keeps_the_label_is_rejected(inst):
    node, _ = _broken(inst)
    view = checks.LocalView(inst, node)
    harmless = next(((int(view.field[r]), f),) for r in range(len(view.field))
                    for f in range(inst.features.shape[1])
                    if view.gap_of(((int(view.field[r]), f),)) > 1e-6)
    failures = checks.check_counterexamples(inst, _rows(inst, flips=(node, harmless)))
    assert len(failures) == 1 and "keeps label" in failures[0]


def test_counterexample_beyond_the_budget_is_rejected(inst):
    too_many = tuple((k, 0) for k in range(inst.total + 1))
    failures = checks.check_counterexamples(inst, _rows(inst, flips=(0, too_many)))
    assert len(failures) == 1 and "exceeds the budget" in failures[0]


def test_certified_and_broken_is_rejected(inst):
    node, flips = _broken(inst)
    rows = _rows(inst)
    rows[node] = checks.CertifyRow(node, 0.5, True, tuple(flips))
    assert any("both certified and broken" in f for f in checks.check_counterexamples(inst, rows))


def test_sound_margins_pass(inst):
    rng = np.random.default_rng(0)
    assert checks.check_margins(inst, _rows(inst), None, rng, sample=inst.num_nodes) == []


def test_margin_above_a_reachable_gap_is_rejected(inst):
    node, flips = _broken(inst)
    reachable = checks.LocalView(inst, node).gap_of(flips)
    rows = _rows(inst)
    rows[node] = checks.CertifyRow(node, reachable + 1e-3, reachable + 1e-3 > 0, ())
    failures = checks.check_margins(inst, rows, None, np.random.default_rng(0),
                                    sample=inst.num_nodes)
    assert len(failures) == 1 and f"node {node}:" in failures[0]


def test_poly_margin_below_interval_margin_is_rejected(inst):
    poly = _rows(inst, margin=-2.0)
    interval = _rows(inst, margin=-1.0)
    failures = checks.check_margins(inst, poly, interval, np.random.default_rng(0), sample=0)
    assert len(failures) == inst.num_nodes


def test_zero_limits_pass(inst):
    zeros = np.zeros(inst.num_nodes, dtype=np.int64)
    assert checks.check_limits(inst, zeros, zeros.astype(bool), 5, zeros,
                               np.random.default_rng(0), inst.num_nodes) == []


def test_limit_past_a_breaking_flip_set_is_rejected(inst):
    node, flips = _broken(inst)
    limits = np.zeros(inst.num_nodes, dtype=np.int64)
    limits[node] = len(flips)
    failures = checks.check_limits(inst, limits, np.zeros(inst.num_nodes, bool), 5, None,
                                   np.random.default_rng(0), inst.num_nodes)
    assert len(failures) == 1 and f"node {node}:" in failures[0]


def test_poly_limit_below_interval_limit_is_rejected(inst):
    zeros = np.zeros(inst.num_nodes, dtype=np.int64)
    failures = checks.check_limits(inst, zeros, zeros.astype(bool), 5, zeros + 1,
                                   np.random.default_rng(0), 0)
    assert len(failures) == inst.num_nodes


def test_exhaustive_check_rejects_a_certified_breakable_node():
    graph, model, _ = gen.planted_instance(1)
    inst = checks.Instance.from_docs(graph, model, per_node=1, total=2)
    robust, count = checks.robust_nodes(inst)
    assert count == 1 + 120 + (120 * 119 // 2 - 20 * 15)
    assert not robust.all()
    weak = int(np.nonzero(~robust)[0][0])
    rows = [checks.CertifyRow(i, 1.0 if robust[i] else -1.0, bool(robust[i]), ())
            for i in range(inst.num_nodes)]
    assert checks.check_exhaustive(inst, rows) == []
    rows[weak] = checks.CertifyRow(weak, 1.0, True, ())
    assert checks.check_exhaustive(inst, rows) == [
        f"node {weak}: certified but an admissible flip set changes its label"]


def test_checkpoint_check_rejects_non_finite_weights():
    _, model, _ = gen.planted_instance(1)
    assert checks.check_checkpoint(model) == []
    model["layers"][0]["bias"][0] = float("nan")
    assert checks.check_checkpoint(model) == ["checkpoint layer 0 has non-finite parameters"]


def test_local_view_matches_the_whole_graph_forward_pass(inst):
    full = reference.scores(inst.layers, inst.norm_adj, inst.features)
    for node in range(0, inst.num_nodes, 7):
        view = checks.LocalView(inst, node)
        label = inst.base_labels[node]
        expected = full[node, label] - np.delete(full[node], label).max()
        assert view.gap_of(()) == pytest.approx(expected, abs=1e-12)
