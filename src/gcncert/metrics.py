"""Graph-level robustness ratios and the uncertainty-region metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import Certificate
from .errors import DataError


@dataclass(frozen=True)
class RobustnessSweep:
    """Lower/upper robustness ratios over a range of total flip budgets."""

    local_budget: int
    global_budgets: tuple[int, ...]
    lower: np.ndarray
    upper: np.ndarray
    runtime_ms: np.ndarray | None = None

    def __post_init__(self):
        k = len(self.global_budgets)
        if self.lower.shape != (k,) or self.upper.shape != (k,):
            raise DataError("sweep bounds must have one entry per budget")


def graph_robustness_ratio(certificate: Certificate) -> float:
    """Fraction of the certificate's rows that are certified."""
    if len(certificate.nodes) == 0:
        raise DataError("cannot compute a robustness ratio over zero nodes")
    return int(certificate.certified.sum()) / len(certificate.nodes)


def uncertainty_region(sweep: RobustnessSweep) -> float:
    """Total gap between upper and lower ratios over the swept budgets.

    Zero means the certifier pair decides every node at every budget; the
    bounds must already sandwich (upper >= lower everywhere).
    """
    gap = sweep.upper - sweep.lower
    if (gap < 0).any():
        raise DataError("sweep has upper < lower; not a valid certifier pair")
    return float(gap.sum())
