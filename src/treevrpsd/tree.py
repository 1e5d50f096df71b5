"""Rooted edge-weighted tree networks with the depot fixed at vertex 0.

A tree over vertices ``0..n`` is stored as parallel tuples indexed by
vertex: ``parent[v]`` and ``edge_length[v]`` describe the unique edge
from ``v`` up to its parent (the depot has no parent edge).  Depot
distances, depths, the visiting order and the total edge length ``S``
are precomputed at build time, in linear time: one pass over the edges
checks them and fills the parent pointers, and one depth-first walk
from the depot lists the customers in preorder and fills depths and
depot distances, each parent before its children.  Instances are
immutable afterwards and safe to share between threads.

The a priori visiting order used throughout the library is that
preorder, ``TreeInstance.preorder``, with children explored in
ascending vertex index; it is computed here and nowhere else.  A
depth-first walk crosses every edge exactly twice, so its closed walk
has length ``2 * S``, the refill-free floor for visiting all customers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ValidationError, describe_int, describe_large_int

# A visiting order is a permutation of customers 1..n; the depot is
# implicit at both ends of the walk.
VisitOrder = tuple[int, ...]


@dataclass(frozen=True)
class TreeInstance:
    """Validated tree network with precomputed metric data.

    Attributes
    ----------
    vertex_count:
        Number of vertices including the depot (n + 1).
    parent:
        ``parent[v]`` is the parent of ``v``; ``parent[0] == -1``.
    edge_length:
        ``edge_length[v]`` is the length of the edge (parent[v], v);
        ``edge_length[0] == 0.0``.
    capacity:
        Vehicle capacity Q >= 1.
    preorder:
        The a priori visiting order: the customers in depth-first
        preorder, children in ascending index order.  ``check_preorder``,
        the exact cost and both edge bounds trust it unchecked, so build
        instances with ``build_tree``, not by hand or ``dataclasses.replace``.
    depot_dist:
        ``depot_dist[v]`` is the path distance from the depot to ``v``.
    depth:
        Edge count from the depot to each vertex.
    total_edge_length:
        S, the sum of all edge lengths.
    """

    vertex_count: int
    parent: tuple[int, ...]
    edge_length: tuple[float, ...]
    capacity: int
    preorder: VisitOrder
    depot_dist: tuple[float, ...]
    depth: tuple[int, ...]
    total_edge_length: float

    @property
    def n_customers(self) -> int:
        return self.vertex_count - 1


def build_tree(edges: Iterable[tuple[int, int, float]], capacity: int) -> TreeInstance:
    """Validate an edge list and construct a :class:`TreeInstance`.

    ``edges`` holds (parent, child, length) triples over vertices named
    densely 0..n with the depot at 0.  Raises ``ValidationError`` if
    the edges do not form a single tree rooted at 0, for bad lengths or
    lengths whose walk costs would overflow a float, and for a capacity
    below 1 or too large for a float.
    """
    if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
        raise ValidationError(f"capacity must be an integer >= 1, got {capacity!r}")
    try:
        float(capacity)  # the bounds divide by Q
    except OverflowError:
        raise ValidationError(f"capacity is {describe_large_int(capacity)}") from None

    edge_list = list(edges)
    n = len(edge_list)
    parent = [-1] * (n + 1)
    length = [0.0] * (n + 1)
    for p, c, ln in edge_list:
        # The common edge passes one exact-type test; anything else, valid or
        # not, takes the full check, which alone words the messages.
        if not (
            type(p) is int and type(c) is int and type(ln) is float
            and 0 <= p <= n and 0 < c <= n and parent[c] < 0 and 0.0 < ln < math.inf
        ):
            ln = _checked_edge(p, c, ln, n, parent)
        parent[c] = p
        length[c] = ln

    # Each of 1..n appeared exactly once as a child.  The children lists fill
    # in descending order, so a stack walk from the depot pops them in
    # ascending order and lists the customers in depth-first preorder.  Each
    # parent comes before its children, so depths and depot distances fill
    # in the same pass.
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(n, 0, -1):
        kids[parent[v]].append(v)
    depth = [0] * (n + 1)
    dist = [0.0] * (n + 1)
    order: list[int] = []
    stack = kids[0]
    while stack:
        v = stack.pop()
        p = parent[v]
        depth[v] = depth[p] + 1
        dist[v] = dist[p] + length[v]
        order.append(v)
        stack += kids[v]
    if len(order) < n:  # the unreached vertices hang off a cycle
        raise ValidationError("parent pointers contain a cycle")

    return TreeInstance(
        vertex_count=n + 1,
        parent=tuple(parent),
        edge_length=tuple(length),
        capacity=capacity,
        preorder=tuple(order),
        depot_dist=tuple(dist),
        depth=tuple(depth),
        total_edge_length=length_sum(length, n),
    )


def length_sum(lengths: Iterable[float], n: int) -> float:
    """S, the ``math.fsum`` of the edge lengths of a tree with ``n``
    customers; raise ``ValidationError`` when its walks could overflow a
    float.

    A trace pays 2S for the depth-first walk and at most four depot
    distances, each at most S, per customer, so (2 + 4n)*S bounds every
    trace, walk and expected cost.  The limit keeps 4(n + 1)*S, a little
    more, a float, so that rounding cannot overflow either.
    """
    limit = sys.float_info.max / (4 * (n + 1))
    try:
        total = math.fsum(lengths)
    except OverflowError:
        total = math.inf
    if total > limit:
        raise ValidationError(
            f"edge lengths sum past {limit!r}: at n = {n} a walk can cost up to "
            "(2 + 4n) times the sum, which must stay a finite float"
        )
    return total


def _checked_edge(p, c, ln, n: int, parent: list[int]) -> float:
    """Check one edge in full; return its length as a float or raise."""
    if not isinstance(p, int) or not isinstance(c, int) or isinstance(p, bool) or isinstance(c, bool):
        raise ValidationError(f"vertex names must be integers, got edge ({p!r}, {c!r})")
    if c == 0:
        raise ValidationError("the depot (vertex 0) cannot appear as a child")
    if not (0 <= p <= n) or not (1 <= c <= n):
        raise ValidationError(
            f"edge ({describe_int(p)}, {describe_int(c)}) names a vertex outside 0..{n}; "
            "vertices must be dense"
        )
    if parent[c] >= 0:
        raise ValidationError(f"vertex {c} appears as a child more than once")
    if not isinstance(ln, bool) and isinstance(ln, (int, float)):
        try:
            value = float(ln)
        except OverflowError:
            raise ValidationError(f"edge ({p}, {c}) has length {describe_large_int(ln)}") from None
        if 0.0 < value < math.inf:
            return value
    raise ValidationError(f"edge ({p}, {c}) has non-positive length {ln!r}")


def _check_vertex(tree: TreeInstance, v: int) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < tree.vertex_count):
        raise ValidationError(f"vertex {v!r} outside 0..{tree.vertex_count - 1}")


def lowest_common_ancestor(tree: TreeInstance, i: int, j: int) -> int:
    _check_vertex(tree, i)
    _check_vertex(tree, j)
    while i != j:
        if tree.depth[i] >= tree.depth[j]:
            i = tree.parent[i]
        else:
            j = tree.parent[j]
    return i


def path_distance(tree: TreeInstance, i: int, j: int) -> float:
    """Tree shortest-path distance between vertices ``i`` and ``j``."""
    a = lowest_common_ancestor(tree, i, j)
    return tree.depot_dist[i] + tree.depot_dist[j] - 2.0 * tree.depot_dist[a]


def dfs_order(tree: TreeInstance) -> VisitOrder:
    """The a priori visiting order, ``tree.preorder``."""
    return tree.preorder


def check_preorder(tree: TreeInstance, order: Sequence[int]) -> None:
    """Raise ``ValidationError`` unless ``order`` is a DFS preorder.

    A sequence is a preorder for some child ordering iff, scanning left
    to right with a stack of the currently open root path, each vertex's
    parent is still on the stack once deeper branches are popped.  The
    tree's own ``preorder`` passes at once, trusted as ``build_tree``
    made it; any other order is checked in full.
    """
    seq = tuple(order)
    if seq == tree.preorder:
        return
    n = tree.n_customers
    if sorted(seq) != list(range(1, n + 1)):
        raise ValidationError(
            f"order is not a permutation of 1..{n}: vertex {describe_non_permutation(seq, n)}"
        )
    stack = [0]
    for pos, v in enumerate(seq):
        p = tree.parent[v]
        while stack and stack[-1] != p:
            stack.pop()
        if not stack:
            raise ValidationError(
                f"order is not a preorder of this tree: vertex {v} at position {pos} "
                f"(n={n}) appears outside its parent's open subtree"
            )
        stack.append(v)


def describe_non_permutation(items: Sequence[int], n: int) -> str:
    """Name one entry and its position (or one missing value) that keeps
    ``items`` from being a permutation of 1..n, so messages stay short."""
    unseen = set(range(1, n + 1))
    for pos, v in enumerate(items):
        if v not in unseen:
            return f"{describe_int(v)} at position {pos} is outside 1..{n} or repeated"
        unseen.remove(v)
    return f"{min(unseen)} is missing ({len(items)} entries)"
