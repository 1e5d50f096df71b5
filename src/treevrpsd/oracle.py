"""Tiny-instance brute-force references for empirical ratio checks.

``optimal_unsplit_partition`` finds the cheapest way to split the
customers into capacity-feasible groups, each served by its own tour
along the minimal subtree spanning the group and the depot.  Any
unsplit execution induces such a partition, so its cost lower-bounds
every unsplit policy on that realization; averaging over realizations
gives a clairvoyant bound that already knows the demands.  The cheaper
``edge`` mode is the expectation of
:func:`~treevrpsd.bounds.clairvoyant_edge_lb`, valid for split
deliveries as well.  It has a closed form: with D_e >= 1 the demand
below edge e, ``ceil(D_e/Q) = (D_e + ((-D_e) mod Q)) / Q``, and the
distribution of ``D_e mod Q`` is a cyclic convolution over Z_Q of the
pmfs below e, built bottom-up in O(n * Q^2).  Only the partition mode
enumerates demand vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bounds import clairvoyant_edge_lb  # noqa: F401  (re-exported: edge mode is its expectation)
from .demand import DemandModel, enumerate_joint, expectation
from .errors import BadParamsError, InconsistentRealizationError, TooLargeError
from .tree import TreeInstance

PARTITION_MAX_CUSTOMERS = 10

EDGE = "edge"
PARTITION = "partition"


@dataclass(frozen=True)
class PartitionSolution:
    """Feasible grouping of customers and its two-way-subtree cost."""

    groups: tuple[tuple[int, ...], ...]
    cost: float


def optimal_unsplit_partition(tree: TreeInstance, demands: Sequence[int]) -> PartitionSolution:
    """Cheapest capacity-feasible partition by exhaustive search.

    Partitions are enumerated as restricted-growth strings (each
    customer joins an existing group, in index order, or opens a new
    one) with groups over capacity pruned, so the first optimum found is
    the lexicographically smallest one.  Group cost is twice the total
    length of the edges on some member's depot path.
    """
    n = tree.n_customers
    if n > PARTITION_MAX_CUSTOMERS:
        raise TooLargeError(
            f"partition search supports at most {PARTITION_MAX_CUSTOMERS} customers, got {n}"
        )
    if len(demands) != n:
        raise BadParamsError(f"{len(demands)} demands for {n} customers")
    capacity = tree.capacity
    for v, q in enumerate(demands, 1):
        if not isinstance(q, int) or isinstance(q, bool) or not (1 <= q <= capacity):
            raise BadParamsError(f"demand {q!r} of customer {v} outside 1..{capacity}")
    if n == 0:
        return PartitionSolution(groups=(), cost=0.0)

    # Edge v is the edge above vertex v; path_bits[c] marks the depot
    # path of customer c as a bitmask over edges.
    path_bits = [0] * (n + 1)
    for c in range(1, n + 1):
        mask = 0
        v = c
        while v != 0:
            mask |= 1 << (v - 1)
            v = tree.parent[v]
        path_bits[c] = mask

    edge_weight = tree.edge_length

    def added_weight(mask: int, new_bits: int) -> float:
        extra = new_bits & ~mask
        total = 0.0
        while extra:
            low = extra & -extra
            total += edge_weight[low.bit_length()]
            extra ^= low
        return total

    best_weight = math.inf
    best_groups: list[list[int]] | None = None
    group_loads: list[int] = []
    group_masks: list[int] = []
    group_members: list[list[int]] = []

    def search(customer: int, running: float) -> None:
        nonlocal best_weight, best_groups
        if running >= best_weight:
            return
        if customer > n:
            best_weight = running
            best_groups = [list(g) for g in group_members]
            return
        q = demands[customer - 1]
        bits = path_bits[customer]
        for g in range(len(group_members)):
            if group_loads[g] + q > capacity:
                continue
            delta = added_weight(group_masks[g], bits)
            group_loads[g] += q
            saved = group_masks[g]
            group_masks[g] |= bits
            group_members[g].append(customer)
            search(customer + 1, running + delta)
            group_members[g].pop()
            group_masks[g] = saved
            group_loads[g] -= q
        group_loads.append(q)
        group_masks.append(bits)
        group_members.append([customer])
        search(customer + 1, running + added_weight(0, bits))
        group_members.pop()
        group_masks.pop()
        group_loads.pop()

    search(1, 0.0)
    assert best_groups is not None  # singletons are always feasible
    exact_cost = 2.0 * math.fsum(
        added_weight(0, _union_bits(path_bits, group)) for group in best_groups
    )
    return PartitionSolution(
        groups=tuple(tuple(g) for g in best_groups),
        cost=exact_cost,
    )


def _union_bits(path_bits: Sequence[int], group: Sequence[int]) -> int:
    mask = 0
    for c in group:
        mask |= path_bits[c]
    return mask


def _cyclic_convolve(a: list[float], b: list[float]) -> list[float]:
    """Distribution of (X + Y) mod Q from those of X mod Q and Y mod Q."""
    out = [0.0] * len(a)
    for shift, p in enumerate(a):
        if p:
            rotated = b[-shift:] + b[:-shift] if shift else b
            out = [acc + p * w for acc, w in zip(out, rotated)]
    return out


def _expected_edge_lb(tree: TreeInstance, model: DemandModel) -> float:
    """Closed-form expectation of the edge-crossing bound.

    ``sum_e 2 * len_e * (E[D_e] + E[(-D_e) mod Q]) / Q``.  Vertices are
    folded into their parents deepest first, so no recursion is needed;
    ``max(1, .)`` never binds because every edge has a customer below.
    """
    n = tree.n_customers
    if model.n_customers != n:
        raise InconsistentRealizationError(f"{model.n_customers} demand pmfs for {n} customers")
    capacity = tree.capacity
    mean = [0.0] * tree.vertex_count
    residue: list[list[float] | None] = [None] * tree.vertex_count
    for v, pmf in enumerate(model.pmfs, 1):
        mean[v] = expectation(pmf)
        dist = [0.0] * capacity
        for k, p in pmf.mass:
            dist[k % capacity] += p
        residue[v] = dist
    terms = []
    for v in sorted(range(1, tree.vertex_count), key=lambda u: -tree.depth[u]):
        dist = residue[v]
        shortfall = math.fsum(p * (-r % capacity) for r, p in enumerate(dist))
        terms.append(2.0 * tree.edge_length[v] * (mean[v] + shortfall) / capacity)
        parent = tree.parent[v]
        if parent:
            mean[parent] += mean[v]
            residue[parent] = _cyclic_convolve(residue[parent], dist)
        residue[v] = None
    return math.fsum(terms)


def expected_clairvoyant_lb(
    tree: TreeInstance,
    model: DemandModel,
    mode: str = EDGE,
    limit: int | None = None,
) -> float:
    """Expectation of a per-realization clairvoyant lower bound.

    ``edge`` mode is the closed-form expectation of the edge-crossing
    bound, valid for both delivery policies; it enumerates nothing and
    ignores ``limit``.  ``partition`` averages the optimal unsplit
    partition cost over every joint demand vector, bounds unsplit
    policies only, and raises ``TooLargeError`` when the joint support
    exceeds the enumeration limit.
    """
    if mode == EDGE:
        return _expected_edge_lb(tree, model)
    if mode != PARTITION:
        raise BadParamsError(f"mode must be 'edge' or 'partition', got {mode!r}")
    if tree.n_customers > PARTITION_MAX_CUSTOMERS:
        raise TooLargeError(
            f"partition mode supports at most {PARTITION_MAX_CUSTOMERS} customers, "
            f"got {tree.n_customers}"
        )
    return math.fsum(
        prob * optimal_unsplit_partition(tree, q).cost
        for q, prob in enumerate_joint(model, limit=limit)
    )
