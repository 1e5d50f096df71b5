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
per event on any tree.  The one walk that applies these rules to a
realization writes the printed trace as it goes, one formatted group of
lines per stop, and keeps beside it only the moves' distances and the
stock after each customer; event tuples are read back from that text on
request.  Costs read :class:`WalkGeometry`'s prices instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .demand import Realization
from .errors import check_int
from .tree import TreeInstance, VisitOrder, check_demands, check_preorder
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

    ``text`` is the chronological log that :func:`format_trace` prints,
    one line per event: ``MOVE from to dist``, ``SERVE customer units
    load_before load_after`` and ``BREAKPOINT customer kind``.
    ``events`` reads it back as ``("move", frm, to, dist)``, ``("serve",
    customer, units, load_before, load_after)`` and ``("breakpoint",
    customer, kind)`` tuples; a float's repr reads back bit for bit.
    ``total_length`` is the correctly rounded sum of the moves'
    distances.  ``post_customer_loads`` gives the on-board stock at the
    moment the vehicle leaves each customer for the next a priori stop
    (or ends the run), in visiting order: no event shows unsplit's
    restock to ``Q + U - q`` after an inner deficit.
    """

    policy: str
    post_customer_loads: tuple[int, ...]
    total_length: float
    text: str

    @cached_property
    def events(self) -> tuple[tuple, ...]:
        """The lines of ``text`` as tuples, parsed on first read."""
        events = []
        add = events.append
        for line in self.text.splitlines():
            f = line.split(" ")
            tag = f[0]
            if tag == "MOVE":
                add(("move", int(f[1]), int(f[2]), float(f[3])))
            elif tag == "SERVE":
                add(("serve", int(f[1]), int(f[2]), int(f[3]), int(f[4])))
            else:
                add(("breakpoint", int(f[1]), f[2]))
        return tuple(events)


def _execute(tree: TreeInstance, order: Sequence[int], r: Realization, policy: str) -> RunTrace:
    check_demands(tree, r.demands, 1, tree.capacity)
    check_int(r.initial_load, "initial load", 1, tree.capacity)
    seq = tuple(order)
    check_preorder(tree, seq)
    depot_dist = tree.depot_dist
    parent = tree.parent
    capacity = tree.capacity
    demands = r.demands
    split = policy == SPLIT
    last = seq[-1] if seq else 0  # a preorder lists each stop once
    lines: list[str] = []
    add = lines.append
    # The moves' distances, a depot round trip entered as one exact multiple
    # of d(0, v): the correctly rounded sum is the same.
    moves: list[float] = []
    add_move = moves.append
    post_loads: list[int] = []
    add_load = post_loads.append
    position = 0
    load = r.initial_load
    for v in seq:
        q = demands[v - 1]
        # Every move touches the depot except the walk leg from the previous
        # customer, priced as path_distance with v's parent as the common ancestor.
        if position:
            dist = depot_dist[position] + depot_dist[v] - 2.0 * depot_dist[parent[v]]
        else:
            dist = depot_dist[v]
        add_move(dist)
        # One line group per stop.  After an exact breakpoint the vehicle
        # heads back to the depot, to restock or, at the last stop, to end.
        if q < load:
            add(f"MOVE {position} {v} {dist!r}\nSERVE {v} {q} {load} {load - q}\n")
            load -= q
            position = v
        elif q == load:
            back = depot_dist[v]
            add_move(back)
            add(f"MOVE {position} {v} {dist!r}\nBREAKPOINT {v} exact\nSERVE {v} {q} {q} 0\n"
                f"MOVE {v} 0 {back!r}\n")
            load = capacity if v != last else 0
            position = 0
        else:
            back = depot_dist[v]
            shown = repr(back)
            if split:
                remainder = q - load
                refill = remainder if v == last else capacity
                add(f"MOVE {position} {v} {dist!r}\nBREAKPOINT {v} deficit\nSERVE {v} {load} {load} 0\n"
                    f"MOVE {v} 0 {shown}\nMOVE 0 {v} {shown}\n"
                    f"SERVE {v} {remainder} {refill} {refill - remainder}\n")
                add_move(2.0 * back)
                load = refill - remainder
            elif v != last:
                add(f"MOVE {position} {v} {dist!r}\nBREAKPOINT {v} deficit\n"
                    f"MOVE {v} 0 {shown}\nMOVE 0 {v} {shown}\nSERVE {v} {q} {q} 0\n"
                    f"MOVE {v} 0 {shown}\nMOVE 0 {v} {shown}\n")
                add_move(4.0 * back)
                load = capacity + load - q
            else:
                add(f"MOVE {position} {v} {dist!r}\nBREAKPOINT {v} deficit\n"
                    f"MOVE {v} 0 {shown}\nMOVE 0 {v} {shown}\nSERVE {v} {q} {q} 0\n")
                add_move(2.0 * back)
                load = 0
            position = v
        add_load(load)

    if position:
        back = depot_dist[position]
        add_move(back)
        add(f"MOVE {position} 0 {back!r}\n")

    return RunTrace(
        policy=policy,
        post_customer_loads=tuple(post_loads),
        total_length=math.fsum(moves),
        text="".join(lines),
    )


def run_split(tree: TreeInstance, order: VisitOrder, r: Realization) -> RunTrace:
    """Execute the split-delivery policy on one realization."""
    return _execute(tree, order, r, SPLIT)


def run_unsplit(tree: TreeInstance, order: VisitOrder, r: Realization) -> RunTrace:
    """Execute the unsplit-delivery policy on one realization."""
    return _execute(tree, order, r, UNSPLIT)


def format_trace(trace: RunTrace) -> str:
    """Line-oriented dump of a trace for golden-file comparisons: its
    ``text``, one line per event (see :class:`RunTrace`)."""
    return trace.text


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
