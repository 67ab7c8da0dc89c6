import gcncert

# Every public name of the package, submodules included: a change that adds or
# drops one edits this list on purpose.
PUBLIC = [
    "Counterexample", "DataError", "DimensionError", "EMPTY_FLIPSET", "FlipSet", "GcnCertError",
    "GcnLayer", "GcnModel", "Graph", "IntervalElement", "NodeJudgment", "OracleInfeasibleError",
    "PerturbationBudget", "PolyNodeElement", "Prediction", "RobustLimitVector", "RobustnessSweep",
    "apply_flips", "back_substitute", "bce_loss", "certify", "certify_sound", "collective",
    "compute_robust_limits", "enumerate_perturbations", "errors", "exact_node_robustness",
    "exact_robust_nodes", "find_counterexamples", "forward", "gc_interval",
    "generate_counterexample", "graph", "graph_robustness_ratio", "hinge_loss",
    "interval_certify", "interval_input_abstraction", "interval_layer_bounds", "intervals",
    "label_difference_transform", "linear_interval", "metrics", "minimize_delta",
    "normalize_adjacency", "oracle_max_robust_limits", "perturbation", "polyhedra", "predict",
    "relu_interval", "sign_matrix", "train_robust", "training", "uncertainty_region",
]


def test_public_api_is_the_reviewed_list():
    assert sorted(gcncert.__all__) == sorted(PUBLIC)
