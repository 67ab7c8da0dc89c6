import gcncert

# Every public name of the package; submodules are not exported. A change
# that adds or drops one edits this list on purpose.
PUBLIC = [
    "Certificate", "Counterexample", "DataError", "DimensionError", "EMPTY_FLIPSET", "FlipSet",
    "GcnCertError", "GcnLayer", "GcnModel", "Graph", "IntervalElement", "OracleInfeasibleError",
    "PerturbationBudget", "PolyNodeElement", "Prediction", "RobustLimitVector", "RobustnessSweep",
    "apply_flips", "back_substitute", "bce_loss", "certify_sound", "compute_robust_limits",
    "enumerate_perturbations", "exact_node_robustness", "exact_robust_nodes",
    "find_counterexamples", "forward", "gc_interval", "generate_counterexample",
    "graph_robustness_ratio", "hinge_loss", "interval_certify", "interval_input_abstraction",
    "interval_layer_bounds", "label_difference_transform", "linear_interval", "minimize_delta",
    "normalize_adjacency", "oracle_max_robust_limits", "predict", "relu_interval",
    "sign_matrix", "train_robust", "uncertainty_region",
]


def test_public_api_is_the_reviewed_list():
    assert sorted(gcncert.__all__) == sorted(PUBLIC)
