"""Fixed-order delivery walks with a randomized initial load.

Both policies follow the same a priori visiting order and travel along
tree shortest paths.  At a customer with demand ``q`` and on-board
stock ``U`` the vehicle either

* serves and moves on (``q < U``),
* serves, restocks to Q at the depot, and heads to the next stop from
  there (``q == U``, breakpoint kind ``"exact"``), or
* runs short (``q > U``, breakpoint kind ``"deficit"``), where the two
  policies differ:

  - ``split``   delivers the U on board, fetches a full load, and
    delivers the remainder on return;
  - ``unsplit`` holds the delivery, fetches exactly ``q``, delivers it
    in one visit, then restocks to ``Q + U - q`` before moving on, so
    its stock matches split's from that point onward.

After the final customer the vehicle returns to the depot without any
pointless restocking: an exact-final customer triggers no refill trip,
and a deficit-final customer triggers a single round trip that fetches
just the remainder (split) or the full demand (unsplit).

Whether a customer is a breakpoint depends only on the demand prefix
sums and the initial load: customer i breaks iff some restock level
``l + p*Q`` (p >= 0) lies in (sum of the first i-1 demands, sum of the
first i].  That is why the two policies break at the same customers
with the same stock afterwards.  Averaged over the uniform
initial load l in {1..Q}, each customer is a breakpoint with
probability exactly q_i/Q.

Traces price a leg between consecutive stops from parent pointers: in a
preorder the next stop's parent is the two stops' lowest common
ancestor.  Every other move touches the depot, so a trace takes O(1)
per event on any tree.  Costs read :class:`WalkGeometry`'s prices instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .demand import Realization
from .errors import InconsistentRealizationError, describe_int
from .tree import TreeInstance, VisitOrder, check_preorder
# The benchmark tracer (perfbench/tracing.py) wraps policy.path_distance by name.
from .tree import path_distance  # noqa: F401

SPLIT = "split"
UNSPLIT = "unsplit"
POLICIES = (SPLIT, UNSPLIT)
# The policies' only difference: depot round trips per deficit breakpoint,
# at an inner stop and at the last stop (split fetches the remainder;
# unsplit fetches the demand, then restocks unless the walk ends).
DEFICIT_TRIPS = {SPLIT: (1, 1), UNSPLIT: (2, 1)}


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one policy execution.

    ``events`` is the chronological log: ``("move", frm, to, dist)``,
    ``("serve", customer, units, load_before, load_after)``, and
    ``("breakpoint", customer, kind)`` entries in execution order.
    ``post_customer_loads`` gives the on-board stock at the moment the
    vehicle leaves each customer for the next a priori stop (or ends
    the run), in visiting order.
    """

    policy: str
    breakpoint_kinds: Mapping[int, str]
    post_customer_loads: tuple[int, ...]
    total_length: float
    events: tuple[tuple, ...]


def _check_realization(tree: TreeInstance, r: Realization) -> None:
    n = tree.n_customers
    q = tree.capacity
    demands = r.demands
    if len(demands) != n:
        raise InconsistentRealizationError(f"realization has {len(demands)} demands for {n} customers")
    # One exact-type pass; the per-item loop runs only to word an error.
    if not all(type(d) is int and 1 <= d <= q for d in demands):
        for idx, d in enumerate(demands, 1):
            if not isinstance(d, int) or isinstance(d, bool) or not (1 <= d <= q):
                raise InconsistentRealizationError(f"demand {describe_int(d)} of customer {idx} outside 1..{q}")
    load = r.initial_load
    if not isinstance(load, int) or isinstance(load, bool) or not (1 <= load <= q):
        raise InconsistentRealizationError(f"initial load {describe_int(load)} outside 1..{q}")


def _walk_legs(tree: TreeInstance, seq: tuple[int, ...]) -> tuple[float, ...]:
    """Trace legs of the closed walk depot, seq..., depot, for a checked
    preorder: ``path_distance``'s expression with each common ancestor read off."""
    dd = tree.depot_dist
    stops = (0, *seq, 0)
    lcas = [tree.parent[b] for b in seq] + [0]  # the depot for the final leg
    return tuple(dd[a] + dd[b] - 2.0 * dd[c] for a, b, c in zip(stops, stops[1:], lcas))


def _execute(tree: TreeInstance, order: Sequence[int], r: Realization, policy: str) -> RunTrace:
    _check_realization(tree, r)
    seq = tuple(order)
    check_preorder(tree, seq)
    legs = _walk_legs(tree, seq)
    depot_dist = tree.depot_dist
    capacity = tree.capacity
    demands = r.demands
    split = policy == SPLIT
    final = len(seq) - 1
    events: list[tuple] = []
    add = events.append
    moved: list[float] = []  # every move's distance, in execution order
    walk = moved.append
    kinds: dict[int, str] = {}
    post_loads: list[int] = []
    position = 0
    load = r.initial_load
    for idx, v in enumerate(seq):
        q = demands[v - 1]
        # Every move touches the depot except the walk leg from the
        # previous customer, so depot_dist and legs price all of them.
        dist = legs[idx] if position else depot_dist[v]
        add(("move", position, v, dist))
        walk(dist)
        position = v
        if q < load:
            add(("serve", v, q, load, load - q))
            load -= q
        elif q == load:
            kinds[v] = "exact"
            add(("breakpoint", v, "exact"))
            add(("serve", v, q, load, 0))
            load = 0
            if idx != final:
                dist = depot_dist[v]
                add(("move", v, 0, dist))
                walk(dist)
                position = 0
                load = capacity
        else:
            kinds[v] = "deficit"
            add(("breakpoint", v, "deficit"))
            dist = depot_dist[v]
            round_trip = (("move", v, 0, dist), ("move", 0, v, dist))
            if split:
                remainder = q - load
                add(("serve", v, load, load, 0))
                events += round_trip
                moved += (dist, dist)
                load = remainder if idx == final else capacity
                add(("serve", v, remainder, load, load - remainder))
                load -= remainder
            else:
                events += round_trip
                add(("serve", v, q, q, 0))
                if idx == final:
                    moved += (dist, dist)
                    load = 0
                else:
                    events += round_trip
                    moved += (dist, dist, dist, dist)
                    load = capacity + load - q
        post_loads.append(load)

    if position != 0:
        dist = depot_dist[position]
        add(("move", position, 0, dist))
        walk(dist)

    return RunTrace(
        policy=policy,
        breakpoint_kinds=kinds,
        post_customer_loads=tuple(post_loads),
        total_length=math.fsum(moved),
        events=tuple(events),
    )


def run_split(tree: TreeInstance, order: VisitOrder, r: Realization) -> RunTrace:
    """Execute the split-delivery policy on one realization."""
    return _execute(tree, order, r, SPLIT)


def run_unsplit(tree: TreeInstance, order: VisitOrder, r: Realization) -> RunTrace:
    """Execute the unsplit-delivery policy on one realization."""
    return _execute(tree, order, r, UNSPLIT)


def format_trace(trace: RunTrace) -> str:
    """Line-oriented dump of a trace for golden-file comparisons.

    One line per event: ``MOVE from to dist``, ``SERVE node units
    load_before load_after``, ``BREAKPOINT node kind``.
    """
    lines: list[str] = []
    add = lines.append
    # A depot round trip repeats one depot_dist float: repr it once.
    last = shown = None
    for ev in trace.events:
        tag = ev[0]
        if tag == "move":
            dist = ev[3]
            if dist is not last:
                last = dist
                shown = repr(dist)
            add(f"MOVE {ev[1]} {ev[2]} {shown}")
        elif tag == "serve":
            add(f"SERVE {ev[1]} {ev[2]} {ev[3]} {ev[4]}")
        else:
            add(f"BREAKPOINT {ev[1]} {ev[2]}")
    return "\n".join(lines) + ("\n" if lines else "")


class WalkGeometry:
    """Per-(tree, order) cost of one realization in O(n): the walk ``2 * S``
    plus what its breakpoints add, priced in stop order.  An exact one
    heads to the next stop ``w`` via the depot, and ``w``'s parent is the
    two stops' common ancestor: ``reroute_extra`` is ``2*d(0, parent w)``,
    0 at the last stop.  A deficit at ``v`` costs ``deficit_detour[policy]``,
    :data:`DEFICIT_TRIPS` round trips ``2*d(0, v)``.  Costs agree with the
    trace totals up to float accumulation.
    """

    __slots__ = ("capacity", "base_length", "demand_index", "reroute_extra", "deficit_detour")

    def __init__(self, tree: TreeInstance, order: Sequence[int]):
        check_preorder(tree, order)
        seq = tuple(order)
        depot_dist = tree.depot_dist
        parent = tree.parent
        self.capacity = tree.capacity
        self.base_length = 2.0 * tree.total_edge_length
        self.demand_index = tuple(v - 1 for v in seq)
        self.reroute_extra = tuple([2.0 * depot_dist[parent[w]] for w in seq[1:]] + [0.0])
        # Doubling is exact, so each price is one rounding of trips * 2 * d.
        self.deficit_detour = {
            policy: tuple([2.0 * inner * depot_dist[v] for v in seq[:-1]]
                          + [2.0 * at_last * depot_dist[v] for v in seq[-1:]])
            for policy, (inner, at_last) in DEFICIT_TRIPS.items()
        }

    def split_cost(self, demands: Sequence[int], initial_load: int) -> float:
        return self._cost(self.deficit_detour[SPLIT], demands, initial_load)

    def unsplit_cost(self, demands: Sequence[int], initial_load: int) -> float:
        return self._cost(self.deficit_detour[UNSPLIT], demands, initial_load)

    def _cost(self, deficit_detour: Sequence[float], demands: Sequence[int], initial_load: int) -> float:
        # The stock after the final stop is never read: no last-stop test.
        capacity = self.capacity
        load = initial_load
        extra = 0.0
        for i, di in enumerate(self.demand_index):
            q = demands[di]
            if q < load:
                load -= q
            elif q == load:
                extra += self.reroute_extra[i]
                load = capacity
            else:
                extra += deficit_detour[i]
                load = capacity - (q - load)
        return self.base_length + extra
