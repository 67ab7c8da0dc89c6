"""Maximum robust global limits per node, the input to collective certification.

The limit for a node is the largest total flip budget at which the sound
certifier still certifies it. The search is a plain incremental walk: the
certifier's judgment is not proven monotone in the budget, so walking up from
zero and stopping at the first failure is the faithful reading and guarantees
certification at every budget up to the returned limit. The walk runs budget
by budget over the whole graph: each total budget makes one certifier call on
the nodes still certified at every smaller budget, so the interval bounds of
a budget are computed once for all of its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import certify_sound
from .errors import DataError, check_index
from .graph import GcnModel, Graph
from .intervals import interval_certify
from .perturbation import PerturbationBudget

FAMILIES = ("poly", "interval")


@dataclass(frozen=True)
class RobustLimitVector:
    """Per-node maximum robust limits; a limit equal to ``search_cap`` means "at least cap"."""

    limits: np.ndarray  # (n,) int
    never_certified: np.ndarray  # (n,) bool; limit forced to 0, node uncertifiable even unperturbed
    search_cap: int


def compute_robust_limits(
    model: GcnModel,
    graph: Graph,
    local_budget: int,
    cap: int = 100,
    variant: str = "topk",
    family: str = "poly",
    mode: str = "both",
) -> RobustLimitVector:
    """Limit vector over all nodes; certification holds at every budget up to each limit.

    Walks total budgets 0, 1, ..., ``cap``. A node's limit is the last budget
    before its first failure; a node not certified even at budget 0 reports
    limit 0 with the never-certified flag, and one that never fails reports
    ``cap`` (an integer >= 0). The walk stops once every node has failed. ``mode``
    restricts flip direction for the poly family only; the interval takes "both".
    """
    if family not in FAMILIES:
        raise DataError(f"unknown certifier family {family!r}, expected one of {FAMILIES}")
    if family == "interval" and mode != "both":
        raise DataError("the interval certifier cannot restrict flip direction: mode must be 'both'")
    cap = check_index(cap, "search cap")
    limits = np.full(graph.num_nodes, cap, dtype=np.int64)
    never = np.zeros(graph.num_nodes, dtype=bool)
    surviving = np.arange(graph.num_nodes)
    for total in range(cap + 1):
        if len(surviving) == 0:
            break
        budget = PerturbationBudget(per_node=local_budget, total=total)
        if family == "poly":
            certified = certify_sound(model, graph, budget, variant, nodes=surviving,
                                      mode=mode).certified
        else:
            certified = interval_certify(model, graph, budget, variant)[surviving] > 0
        failed = surviving[~certified]
        limits[failed] = max(total - 1, 0)
        never[failed] = total == 0
        surviving = surviving[certified]
    return RobustLimitVector(limits=limits, never_certified=never, search_cap=cap)
