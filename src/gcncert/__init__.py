"""Robustness certification for GCN node classifiers under bounded feature flips.

Sound lower bounds come from symbolic per-node linear bounds (with an interval
baseline); complete upper bounds come from verified counterexamples extracted
from the same bounds. Extras: per-node maximum robust limits, the
uncertainty-region tightness metric, and certification-guided robust training.
"""

from .certify import (Certificate, Counterexample, certify_sound, find_counterexamples,
                      generate_counterexample, label_difference_transform, minimize_delta)
from .collective import RobustLimitVector, compute_robust_limits
from .errors import DataError, DimensionError, GcnCertError, OracleInfeasibleError
from .graph import GcnLayer, GcnModel, Graph, Prediction, forward, normalize_adjacency, predict
from .intervals import (IntervalElement, gc_interval, interval_certify, interval_input_abstraction,
                        interval_layer_bounds, linear_interval, relu_interval)
from .metrics import RobustnessSweep, graph_robustness_ratio, uncertainty_region
from .perturbation import (EMPTY_FLIPSET, FlipSet, PerturbationBudget, apply_flips,
                           enumerate_perturbations, exact_node_robustness, exact_robust_nodes,
                           oracle_max_robust_limits, sign_matrix)
from .polyhedra import PolyNodeElement, back_substitute
from .training import bce_loss, hinge_loss, train_robust

__version__ = "0.1.0"

__all__ = [
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
