"""Lower bounds, expected-length upper bounds, and per-trace certificates.

The two policy guarantees reduce to a single pair of inequalities on
closed forms: with ``floor = 2S`` and
``radial = (2/Q) * sum_i d(0,i) * E[demand_i]``,

* expected split cost   <= floor + radial   <= 2 * max(floor, radial),
* expected unsplit cost <= floor + 2*radial <= 3 * max(floor, radial),

and both ``floor`` and ``radial`` lower-bound the optimum.  Under the
uniform initial load the expected costs are affine in the two
(:func:`~treevrpsd.evaluator.exact_expected_cost`), which sharpens the
guarantees to ``2 - 1/Q`` and, for Q >= 2, ``3 - 2/Q``.  The trace
certificate is the per-realization counterpart of ``radial`` computed
from an actual tour decomposition, and ``clairvoyant_edge_lb`` is the
edge-crossing bound that holds for every policy even with demands known
in advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .demand import DemandModel
from .errors import ValidationError, describe_int
from .policy import RunTrace
from .tree import TreeInstance


@dataclass(frozen=True)
class BoundSet:
    """The five standing bound values of one instance."""

    tour_floor: float
    bertsimas: float
    combined_lb: float
    split_ub: float
    unsplit_ub: float


def tour_floor(tree: TreeInstance) -> float:
    """2S: every customer has demand >= 1, so the full DFS walk is a floor."""
    return 2.0 * tree.total_edge_length


def capacity_scale(capacity: int) -> float:
    """``2^-k`` with ``k = min(bit_length(Q), 1022)``, a normal float.

    A length times a demand can pass the largest float where its quotient
    by Q cannot; scaling the demand and Q by this power of two first is
    exact, so the quotient keeps its unscaled bits.
    """
    return math.ldexp(1.0, -min(capacity.bit_length(), 1022))


def check_model(tree: TreeInstance, model: DemandModel) -> None:
    """Refuse a demand model built for another tree: one pmf per customer,
    and the tree's capacity."""
    if model.n_customers != tree.n_customers:
        raise ValidationError(
            f"{model.n_customers} demand pmfs for {tree.n_customers} customers"
        )
    if model.capacity != tree.capacity:
        raise ValidationError(
            f"demand model capacity {describe_int(model.capacity)} "
            f"for a tree of capacity {describe_int(tree.capacity)}"
        )


def bertsimas_lb(tree: TreeInstance, model: DemandModel) -> float:
    """Demand-weighted radial bound (2/Q) * sum_i d(0,i) * E[demand_i], with
    :func:`capacity_scale` (a term can reach Q*S, while R is at most 2nS)."""
    check_model(tree, model)
    scale = capacity_scale(tree.capacity)
    return (2.0 / (tree.capacity * scale)) * math.fsum(
        tree.depot_dist[i] * (pmf.mean * scale)
        for i, pmf in enumerate(model.pmfs, 1)
    )


def bound_set(tree: TreeInstance, model: DemandModel) -> BoundSet:
    floor = tour_floor(tree)
    radial = bertsimas_lb(tree, model)
    return BoundSet(
        tour_floor=floor,
        bertsimas=radial,
        combined_lb=max(floor, radial),
        split_ub=floor + radial,
        unsplit_ub=floor + 2.0 * radial,
    )


def trace_certificate(trace: RunTrace, tree: TreeInstance) -> float:
    """Per-realization certificate (2/Q) * sum_j d(0, farthest_j) * units_j.

    A tour is a maximal depot-to-depot segment of the trace's moves.
    Each tour dispatches at most Q units and is at least twice as long
    as its farthest served customer's depot distance, so the sum never
    exceeds the trace's total length.  Tours that serve no one add
    nothing.  A distance times Q units can pass the largest float, so
    the units and Q are scaled by :func:`capacity_scale`.
    """
    depot_dist = tree.depot_dist
    scale = capacity_scale(tree.capacity)
    terms = []
    farthest = 0.0
    units = 0
    for ev in trace.events:
        if ev[0] == "serve":
            farthest = max(farthest, depot_dist[ev[1]])
            units += ev[2]
        elif ev[0] == "move" and ev[2] == 0:
            if units:
                terms.append(farthest * (units * scale))
            farthest = 0.0
            units = 0
    return (2.0 / (tree.capacity * scale)) * math.fsum(terms)


def edge_crossings(tree: TreeInstance, demands: Sequence[int]) -> list[int]:
    """``max(1, ceil(D/Q))`` at each vertex v, D the demand below it: the fewest
    tours serving ``demands`` that cross the edge above v (entry 0 is no edge)."""
    below = [0, *demands]
    for v in reversed(tree.preorder):  # every vertex after all of its descendants
        below[tree.parent[v]] += below[v]
    return [max(1, -(-d // tree.capacity)) for d in below]


def clairvoyant_edge_lb(tree: TreeInstance, demands: Sequence[int]) -> float:
    """Edge-crossing bound for a known demand vector.

    Every edge whose below-subtree holds total demand D must be crossed
    at least 2*max(1, ceil(D/Q)) times by any feasible set of tours, so
    the weighted sum lower-bounds every policy, adaptive or clairvoyant.
    Demands above Q are legal here; the bound still applies.
    """
    n = tree.n_customers
    if len(demands) != n:
        raise ValidationError(f"{len(demands)} demands for {n} customers")
    for v, q in enumerate(demands, 1):
        if not isinstance(q, int) or isinstance(q, bool) or q < 0:
            raise ValidationError(f"demand {q!r} of customer {v} is not a nonnegative integer")
    crossings = edge_crossings(tree, demands)
    return math.fsum(2.0 * crossings[v] * tree.edge_length[v] for v in range(1, tree.vertex_count))
