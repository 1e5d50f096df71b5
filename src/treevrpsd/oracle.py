"""Tiny-instance brute-force references for empirical ratio checks.

``optimal_unsplit_partition`` returns the cost of the cheapest way to
split the customers into capacity-feasible groups, each served by its
own tour along the minimal subtree spanning the group and the depot,
as a float; the groups themselves are not kept.  Any
unsplit execution induces such a partition, so its cost lower-bounds
every unsplit policy on that realization; averaging over realizations
gives a clairvoyant bound that already knows the demands.  The cheaper
``edge`` mode is the expectation of
:func:`~treevrpsd.bounds.clairvoyant_edge_lb`, valid for split
deliveries as well.  It has a closed form: with D_e >= 1 the demand
below edge e, ``ceil(D_e/Q) = (D_e + ((-D_e) mod Q)) / Q``, and
``E[(-D_e) mod Q]`` is a fixed linear function of the discrete Fourier
transform of D_e over Z_Q, ``phi_e(k) = E[w^(k * D_e)]`` with
``w = exp(2*pi*i/Q)``.  The demands are independent, so ``phi_e`` is the
pointwise product of the customers' transforms below e: one transform
per distinct pmf, then O(Q) per edge, O(n * Q) in all.  An edge whose
largest possible demand below is at most Q is crossed exactly twice
and needs no transform.  The transforms are capped at
``EDGE_LB_LIMIT`` entries, counted before any is built.  Only the
partition mode enumerates demand vectors.
"""

from __future__ import annotations

import cmath
import math
from operator import mul
from typing import Sequence

from .bounds import capacity_scale, check_model, edge_crossings
# The benchmark tracer (perfbench/tracing.py) wraps oracle.clairvoyant_edge_lb by name.
from .bounds import clairvoyant_edge_lb  # noqa: F401
from .demand import DemandModel, DemandPMF, enumerate_joint, format_count
from .errors import TooLargeError, ValidationError, describe_int
from .tree import TreeInstance, check_demands

PARTITION_MAX_CUSTOMERS = 10

# The expected edge bound builds Q // 2 transform entries per edge that
# needs one and per distinct pmf among those edges.  It is capped at 2^20
# entries, about 0.6 s and 40 MB in CPython, and raises TooLargeError above.
EDGE_LB_LIMIT = 2**20

EDGE = "edge"
PARTITION = "partition"


def optimal_unsplit_partition(tree: TreeInstance, demands: Sequence[int]) -> float:
    """Cost of the cheapest capacity-feasible partition, by exhaustive search.

    Partitions are enumerated as restricted-growth strings (each
    customer joins an existing group, in index order, or opens a new
    one) with groups over capacity pruned, up to the first one that
    crosses every edge as few times as any can (``bounds.edge_crossings``).
    Group cost is twice the total length of the edges on some member's
    depot path.
    """
    n = tree.n_customers
    if n > PARTITION_MAX_CUSTOMERS:
        raise TooLargeError(
            f"partition search supports at most {PARTITION_MAX_CUSTOMERS} customers, got {n}"
        )
    capacity = tree.capacity
    check_demands(tree, demands, 1, capacity)

    # Edge v is the edge above vertex v; path_bits[v] marks the depot
    # path of v as a bitmask over edges.
    path_bits = [0] * (n + 1)
    for v in tree.preorder:
        path_bits[v] = path_bits[tree.parent[v]] | 1 << (v - 1)

    edge_weight = tree.edge_length
    fewest = sum(edge_crossings(tree, demands)[1:])  # each group crosses each of its edges once

    def added_weight(mask: int, new_bits: int) -> float:
        extra = new_bits & ~mask
        total = 0.0
        while extra:
            low = extra & -extra
            total += edge_weight[low.bit_length()]
            extra ^= low
        return total

    best_weight = math.inf
    best_masks: list[int] = []
    loads: list[int] = []
    masks: list[int] = []

    def search(customer: int, running: float) -> None:
        nonlocal best_weight, best_masks
        if running >= best_weight:
            return
        if customer > n:
            best_masks = masks[:]
            # An incumbent that meets the edge bound is optimal: prune all the rest.
            met = sum(mask.bit_count() for mask in masks) == fewest
            best_weight = -math.inf if met else running
            return
        q = demands[customer - 1]
        bits = path_bits[customer]
        for g in range(len(masks)):
            if loads[g] + q > capacity:
                continue
            delta = added_weight(masks[g], bits)
            loads[g] += q
            saved = masks[g]
            masks[g] |= bits
            search(customer + 1, running + delta)
            masks[g] = saved
            loads[g] -= q
        loads.append(q)
        masks.append(bits)
        search(customer + 1, running + added_weight(0, bits))
        masks.pop()
        loads.pop()

    search(1, 0.0)
    return 2.0 * math.fsum(added_weight(0, mask) for mask in best_masks)


def _transform(pmf: DemandPMF, capacity: int) -> list[complex]:
    """``phi(k) = E[w^(k * D)]`` for k = 1..Q//2, ``w = exp(2*pi*i/Q)``.

    ``phi(Q - k)`` is the conjugate of ``phi(k)`` and ``phi(0) = 1``, so
    these entries determine the whole transform.
    """
    step = 2.0 * math.pi / capacity
    return [
        sum(p * cmath.rect(1.0, step * (k * d % capacity)) for d, p in pmf.mass)
        for k in range(1, capacity // 2 + 1)
    ]


def _shortfall_coefficients(capacity: int) -> list[complex]:
    """``c`` with ``E[(-D) mod Q] = (Q-1)/2 + Re sum_k phi(k) * c[k-1]``.

    Over all of Z_Q the weight of ``phi(k)`` is
    ``(1/Q) * sum_s s * w^(k*s) = 1/(w^k - 1) = -1/2 - (i/2) * cot(pi*k/Q)``
    for k != 0, and (Q-1)/2 for k = 0.  The terms of k and Q - k are
    conjugates and are folded into one; k = Q/2 (Q even) stands alone.
    """
    return [
        complex(-1.0, -1.0 / math.tan(math.pi * k / capacity)) if 2 * k < capacity else -0.5
        for k in range(1, capacity // 2 + 1)
    ]


def _expected_edge_lb(tree: TreeInstance, model: DemandModel) -> float:
    """Closed-form expectation of the edge-crossing bound.

    ``sum_e 2 * len_e * (E[D_e] + E[(-D_e) mod Q]) / Q``, or exactly
    ``2 * len_e`` when the largest possible ``D_e`` is at most Q.
    Vertices are folded into their parents in reverse preorder, so no
    recursion is needed and only the transforms of the open root path
    are alive at once.
    """
    capacity = tree.capacity
    parent = tree.parent
    upward = tree.preorder[::-1]  # every vertex after all of its descendants
    most = [0] * tree.vertex_count  # largest possible demand below each edge
    for v, pmf in enumerate(model.pmfs, 1):
        most[v] = pmf.max_value()
    for v in upward:
        most[parent[v]] += most[v]
    # An edge needs the transform below it when it, or an edge above it,
    # can carry more than Q.
    needed = [False] * tree.vertex_count
    for v in reversed(upward):
        needed[v] = most[v] > capacity or needed[parent[v]]
    distinct = {id(pmf) for v, pmf in enumerate(model.pmfs, 1) if needed[v]}
    entries = capacity // 2 * (sum(needed) + len(distinct))
    if entries > EDGE_LB_LIMIT:
        raise TooLargeError(
            f"expected edge bound needs {format_count(entries)} transform entries, "
            f"over the limit {format_count(EDGE_LB_LIMIT)}"
        )

    coefficients = _shortfall_coefficients(capacity) if any(needed) else []
    # 2*len*E[D + (-D) mod Q] can pass the largest float where the term,
    # 2*len*E[ceil(D/Q)], cannot: scale the expectation and Q alike.
    scale = capacity_scale(capacity)
    scaled_capacity = capacity * scale
    transforms: dict[int, list[complex]] = {}  # per distinct pmf object
    below: list[list[complex] | None] = [None] * tree.vertex_count
    mean = [0.0] * tree.vertex_count
    terms = []
    for v in upward:
        term = 2.0 * tree.edge_length[v]  # crossed exactly twice while D_v <= Q
        if needed[v]:
            pmf = model.pmfs[v - 1]
            own = transforms.get(id(pmf))
            if own is None:
                own = transforms[id(pmf)] = _transform(pmf, capacity)
            phi = own if below[v] is None else list(map(mul, below[v], own))
            below[v] = None
            mean[v] += pmf.mean
            if most[v] > capacity:
                shortfall = (capacity - 1) / 2.0 + sum(map(mul, phi, coefficients)).real
                term = term * ((mean[v] + shortfall) * scale) / scaled_capacity
            p = parent[v]
            if p:  # the edge above a needed one is needed too
                below[p] = phi if below[p] is None else list(map(mul, below[p], phi))
                mean[p] += mean[v]
        terms.append(term)
    return math.fsum(terms)


def expected_clairvoyant_lb(
    tree: TreeInstance,
    model: DemandModel,
    mode: str = EDGE,
) -> float:
    """Expectation of a per-realization clairvoyant lower bound.

    ``edge`` mode is the closed-form expectation of the edge-crossing
    bound, valid for both delivery policies; it enumerates nothing, and
    raises ``TooLargeError`` when its transforms would hold more than
    ``EDGE_LB_LIMIT`` entries.  ``partition`` averages the
    optimal unsplit partition cost over every joint demand vector,
    bounds unsplit policies only, and raises ``TooLargeError`` when the
    joint support exceeds the enumeration limit or the customers exceed
    ``PARTITION_MAX_CUSTOMERS`` (the search refuses the first vector).
    """
    check_model(tree, model)
    if mode == EDGE:
        return _expected_edge_lb(tree, model)
    if mode != PARTITION:
        raise ValidationError(f"mode must be 'edge' or 'partition', got {describe_int(mode)}")
    return math.fsum(
        prob * optimal_unsplit_partition(tree, q)
        for q, prob in enumerate_joint(model)
    )
