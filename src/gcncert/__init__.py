"""Robustness certification for GCN node classifiers under bounded feature flips.

Sound lower bounds come from symbolic per-node linear bounds (with an interval
baseline); complete upper bounds come from verified counterexamples extracted
from the same bounds. Extras: per-node maximum robust limits, the
uncertainty-region tightness metric, and certification-guided robust training.

Each public name is imported from its module on first use, so a process
compiles only the modules it reaches.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "certify": ("Certificate", "Counterexample", "certify_sound", "find_counterexamples",
                "generate_counterexample", "label_difference_transform", "minimize_delta"),
    "collective": ("RobustLimitVector", "compute_robust_limits"),
    "errors": ("DataError", "DimensionError", "GcnCertError", "OracleInfeasibleError"),
    "graph": ("GcnLayer", "GcnModel", "Graph", "Prediction", "forward", "normalize_adjacency",
              "predict"),
    "intervals": ("IntervalElement", "gc_interval", "interval_certify",
                  "interval_input_abstraction", "interval_layer_bounds", "linear_interval",
                  "relu_interval"),
    "metrics": ("RobustnessSweep", "graph_robustness_ratio", "uncertainty_region"),
    "perturbation": ("EMPTY_FLIPSET", "FlipSet", "PerturbationBudget", "apply_flips",
                     "enumerate_perturbations", "exact_node_robustness", "exact_robust_nodes",
                     "oracle_max_robust_limits", "sign_matrix"),
    "polyhedra": ("PolyNodeElement", "back_substitute"),
    "training": ("bce_loss", "hinge_loss", "train_robust"),
}
# public name -> the module that defines it
_HOME = {name: module for module, names in _MODULES.items() for name in names}
_SUBMODULES = {*_MODULES, "cli", "fileio"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, or a submodule, imported on first use and then kept."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
