"""Brute-force oracles and random builders shared by the test suite.

Everything here recomputes results from first principles: adjacency
search for distances, literal rule-following for the policies, full
set-partition enumeration for tour optima.  Tests compare library
output against these second routes instead of against the library
itself.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from treevrpsd import (
    DemandModel,
    DemandPMF,
    GeneratorParams,
    InstanceDocument,
    Realization,
    TreeInstance,
    ValidationError,
    build_tree,
    check_preorder,
    clairvoyant_edge_lb,
    generate_document,
    make_pmf,
    path_distance,
)
from treevrpsd.instance_io import document_to_instance
from treevrpsd.policy import DEFICIT_TRIPS

BREAKPOINT_LINE = re.compile(r"^BREAKPOINT (\d+) (\w+)$", re.MULTILINE)

# Halves are exact in binary, so brute and library sums agree bitwise
# on most instances and within 1e-9 otherwise.
EDGE_LENGTHS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def brute_distances(edges: Sequence[tuple[int, int, float]], vertex_count: int) -> list[list[float]]:
    """All-pairs distances by depth-first accumulation over the adjacency."""
    adjacency: dict[int, list[tuple[int, float]]] = {v: [] for v in range(vertex_count)}
    for parent, child, length in edges:
        adjacency[parent].append((child, length))
        adjacency[child].append((parent, length))
    matrix = []
    for source in range(vertex_count):
        dist = {source: 0.0}
        stack = [source]
        while stack:
            u = stack.pop()
            for w, length in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + length
                    stack.append(w)
        matrix.append([dist[v] for v in range(vertex_count)])
    return matrix


def naive_policy_events(
    order: Sequence[int],
    demands: Sequence[int],
    initial_load: int,
    capacity: int,
    policy: str,
) -> list[tuple]:
    """Event list from a literal reading of the delivery rules.

    ``demands`` is indexed by customer id (entry v-1 belongs to customer
    v).  Events are ("move", frm, to), ("serve", v, units, stock_before,
    stock_after) and ("breakpoint", v, kind).
    """
    events: list[tuple] = []
    position = 0
    stock = initial_load

    def move(dest: int) -> None:
        nonlocal position
        events.append(("move", position, dest))
        position = dest

    def serve(v: int, units: int) -> None:
        nonlocal stock
        events.append(("serve", v, units, stock, stock - units))
        stock -= units

    for idx, v in enumerate(order):
        final = idx == len(order) - 1
        q = demands[v - 1]
        move(v)
        if q < stock:
            serve(v, q)
        elif q == stock:
            events.append(("breakpoint", v, "exact"))
            serve(v, q)
            if not final:
                move(0)
                stock = capacity
        else:
            events.append(("breakpoint", v, "deficit"))
            if policy == "split":
                shortfall = q - stock
                serve(v, stock)
                move(0)
                stock = shortfall if final else capacity
                move(v)
                serve(v, shortfall)
            else:
                arrival = stock
                move(0)
                stock = q  # fetches exactly the demand
                move(v)
                serve(v, q)
                if not final:
                    move(0)
                    stock = capacity + arrival - q
                    move(v)
    if position != 0:
        move(0)
    return events


def naive_policy_cost(
    dist: Sequence[Sequence[float]],
    order: Sequence[int],
    demands: Sequence[int],
    initial_load: int,
    capacity: int,
    policy: str,
) -> float:
    events = naive_policy_events(order, demands, initial_load, capacity, policy)
    return math.fsum(dist[e[1]][e[2]] for e in events if e[0] == "move")


def naive_trace_text(tree: TreeInstance, order: Sequence[int], demands: Sequence[int],
                     initial_load: int, policy: str) -> str:
    """``format_trace``'s text, one line per naive event: each distance from
    ``path_distance`` and its ancestor walk, the same float as the
    executor's leg or depot distance."""
    lines = []
    for ev in naive_policy_events(order, demands, initial_load, tree.capacity, policy):
        if ev[0] == "move":
            lines.append(f"MOVE {ev[1]} {ev[2]} {path_distance(tree, ev[1], ev[2])!r}\n")
        elif ev[0] == "serve":
            lines.append("SERVE %d %d %d %d\n" % ev[1:])
        else:
            lines.append("BREAKPOINT %d %s\n" % ev[1:])
    return "".join(lines)


def independent_expected_cost(
    edges: Sequence[tuple[int, int, float]],
    capacity: int,
    pmfs: Sequence[dict[int, float]],
    order: Sequence[int],
    policy: str,
) -> float:
    """Expected cost by exhaustive (demand vector, load) enumeration.

    Uses only the brute machinery in this module, never the library's
    evaluator, so worked-example constants are confirmed twice.
    """
    vertex_count = len(edges) + 1
    dist = brute_distances(edges, vertex_count)
    terms = []
    supports = [sorted(pmf.items()) for pmf in pmfs]
    for combo in itertools.product(*supports):
        demands = tuple(value for value, _ in combo)
        prob = math.prod(weight for _, weight in combo)
        for load in range(1, capacity + 1):
            cost = naive_policy_cost(dist, order, demands, load, capacity, policy)
            terms.append(prob * cost / capacity)
    return math.fsum(terms)


# -- partition brute force ----------------------------------------------------

def all_set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """Every partition of ``items`` into non-empty unlabeled groups."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield smaller + [[first]]


def brute_optimal_partition_cost(
    edges: Sequence[tuple[int, int, float]],
    capacity: int,
    demands: Sequence[int],
) -> float:
    """Cheapest capacity-feasible grouping, one depot round trip per group."""
    parent = {child: (par, length) for par, child, length in edges}

    def path_vertices(v: int) -> set[int]:
        seen = set()
        while v != 0:
            seen.add(v)
            v = parent[v][0]
        return seen

    n = len(demands)
    best = math.inf
    for grouping in all_set_partitions(list(range(1, n + 1))):
        if any(sum(demands[v - 1] for v in group) > capacity for group in grouping):
            continue
        cost = 0.0
        for group in grouping:
            covered: set[int] = set()
            for v in group:
                covered |= path_vertices(v)
            cost += 2.0 * math.fsum(parent[v][1] for v in covered)
        best = min(best, cost)
    return best


# -- random builders ----------------------------------------------------------

def generate(params: GeneratorParams) -> tuple[TreeInstance, DemandModel]:
    """Generate one document and build its validated (tree, model) pair."""
    return document_to_instance(generate_document(params))


def random_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Random-attachment tree on customers 1..n with half-integer lengths."""
    return [(rng.randrange(v), v, rng.choice(EDGE_LENGTHS)) for v in range(1, n + 1)]


def random_instance(rng: random.Random, n: int, capacity: int) -> TreeInstance:
    return build_tree(random_edges(rng, n), capacity)


def random_pmf_dict(
    rng: random.Random, capacity: int, max_support: int = 3, min_support: int = 1
) -> dict[int, float]:
    hi = min(max_support, capacity)
    size = rng.randint(min(min_support, hi), hi)
    values = rng.sample(range(1, capacity + 1), size)
    weights = [rng.randint(1, 8) for _ in values]
    total = sum(weights)
    return {value: weight / total for value, weight in zip(values, weights)}


def random_model(
    rng: random.Random, tree: TreeInstance, max_support: int = 3, min_support: int = 1
) -> DemandModel:
    pmfs = tuple(
        make_pmf(
            random_pmf_dict(rng, tree.capacity, max_support, min_support).items(),
            tree.capacity,
        )
        for _ in range(tree.n_customers)
    )
    return DemandModel(pmfs=pmfs, capacity=tree.capacity)


def pmf_dicts(model: DemandModel) -> list[dict[int, float]]:
    return [dict(pmf.mass) for pmf in model.pmfs]


def joint_demand_vectors(model: DemandModel) -> Iterator[tuple[tuple[int, ...], float]]:
    """Exhaustive joint support with product weights, by plain itertools."""
    supports = [pmf.mass for pmf in model.pmfs]
    for combo in itertools.product(*supports):
        yield tuple(v for v, _ in combo), math.prod(w for _, w in combo)


def enumerated_edge_lb(tree: TreeInstance, model: DemandModel) -> float:
    """Expected clairvoyant edge bound by summing over every joint vector."""
    return math.fsum(
        prob * clairvoyant_edge_lb(tree, demands)
        for demands, prob in joint_demand_vectors(model)
    )


def cyclic_convolve(a: list[float], b: list[float]) -> list[float]:
    """Distribution of (X + Y) mod Q from those of X mod Q and Y mod Q."""
    out = [0.0] * len(a)
    for shift, p in enumerate(a):
        if p:
            rotated = b[-shift:] + b[:-shift] if shift else b
            out = [acc + p * w for acc, w in zip(out, rotated)]
    return out


def convolution_edge_lb(tree: TreeInstance, model: DemandModel) -> float:
    """Expected clairvoyant edge bound by cyclic convolution, O(n * Q^2).

    ``sum_e 2 * len_e * (E[D_e] + E[(-D_e) mod Q]) / Q`` with the law of
    ``D_e mod Q`` convolved up the tree from the pmfs, deepest vertex
    first.
    """
    capacity = tree.capacity
    mean = [0.0] * tree.vertex_count
    residue: list[list[float] | None] = [None] * tree.vertex_count
    for v, pmf in enumerate(model.pmfs, 1):
        mean[v] = pmf.mean
        dist = [0.0] * capacity
        for k, p in pmf.mass:
            dist[k % capacity] += p
        residue[v] = dist
    terms = []
    depth = vertex_depths(tree)
    for v in sorted(range(1, tree.vertex_count), key=lambda u: -depth[u]):
        dist = residue[v]
        shortfall = math.fsum(p * (-r % capacity) for r, p in enumerate(dist))
        terms.append(2.0 * tree.edge_length[v] * (mean[v] + shortfall) / capacity)
        parent = tree.parent[v]
        if parent:
            mean[parent] += mean[v]
            residue[parent] = cyclic_convolve(residue[parent], dist)
        residue[v] = None
    return math.fsum(terms)


def expectation(pmf: DemandPMF) -> float:
    """Mean of a pmf, as a function (the library reads ``pmf.mean``)."""
    return pmf.mean


def breakpoint_kinds(trace) -> dict[int, str]:
    """Each breakpoint customer's kind, read from the trace's BREAKPOINT lines."""
    return {int(v): kind for v, kind in BREAKPOINT_LINE.findall(trace.text)}


def assert_trace_matches_naive(tree: TreeInstance, trace, dist, order, demands, load) -> None:
    """Event-by-event comparison of a library trace against the naive rules."""
    expected = naive_policy_events(order, demands, load, tree.capacity, trace.policy)
    assert [ev[:3] if ev[0] == "move" else ev for ev in trace.events] == expected
    moves = [ev for ev in trace.events if ev[0] == "move"]
    for _, frm, to, length in moves:
        assert math.isclose(length, dist[frm][to], rel_tol=1e-9, abs_tol=1e-12)
    assert trace.total_length == math.fsum(ev[3] for ev in moves)
    assert math.isclose(
        trace.total_length,
        naive_policy_cost(dist, order, demands, load, tree.capacity, trace.policy),
        rel_tol=1e-9,
        abs_tol=1e-12,
    )


# -- the replaced I/O and sampling routes ---------------------------------------

def json_dumps_serialize(doc: InstanceDocument) -> str:
    """Canonical text by building the payload and calling ``json.dumps``."""
    payload = {
        "name": doc.name,
        "capacity": doc.capacity,
        "edges": [[p, c, float(ln)] for p, c, ln in sorted(doc.edges, key=lambda e: e[1])],
        "demands": [
            {"node": node, "pmf": {str(k): float(p) for k, p in sorted(entries)}}
            for node, entries in sorted(doc.demands)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def linear_scan_realization(model: DemandModel, rng: random.Random) -> Realization:
    """One realization by scanning each pmf and summing masses as it goes."""
    demands = []
    for pmf in model.pmfs:
        u = rng.random()
        acc = 0.0
        value = pmf.mass[-1][0]  # guards the u ~ 1.0 float edge
        for k, p in pmf.mass:
            acc += p
            if u < acc:
                value = k
                break
        demands.append(value)
    load = rng.randrange(1, model.capacity + 1)
    return Realization(demands=tuple(demands), initial_load=load)


# -- the replaced per-item loading route ------------------------------------------

def outcome(fn, *args) -> tuple[str, str]:
    """The result's repr, which tells -0.0, 1 and True or an int and an
    IntEnum apart, or the exception's type name and message."""
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # compared with the oracle's outcome
        return type(exc).__name__, str(exc)


def _require_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    return float(value)


def itemwise_parse_document(text: str) -> InstanceDocument:
    """Decode and schema-check a document one field at a time, every
    listing checked in full."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"top level must be an object, got {type(raw).__name__}")
    expected = {"name", "capacity", "edges", "demands"}
    missing = expected - raw.keys()
    extra = raw.keys() - expected
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        if extra:
            parts.append(f"unknown keys {sorted(extra)}")
        raise ValidationError("; ".join(parts))
    if not isinstance(raw["name"], str):
        raise ValidationError(f"name: expected a string, got {raw['name']!r}")
    capacity = raw["capacity"]
    if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
        raise ValidationError(f"capacity: expected an integer >= 1, got {capacity!r}")

    if not isinstance(raw["edges"], list):
        raise ValidationError("edges: expected an array")
    edges = []
    for k, item in enumerate(raw["edges"]):
        where = f"edges[{k}]"
        if not isinstance(item, list) or len(item) != 3:
            raise ValidationError(f"{where}: expected [parent, child, length]")
        edges.append(
            (
                _require_int(item[0], f"{where}.parent"),
                _require_int(item[1], f"{where}.child"),
                _require_number(item[2], f"{where}.length"),
            )
        )

    if not isinstance(raw["demands"], list):
        raise ValidationError("demands: expected an array")
    demands = []
    for k, item in enumerate(raw["demands"]):
        where = f"demands[{k}]"
        if not isinstance(item, dict) or set(item.keys()) != {"node", "pmf"}:
            raise ValidationError(f"{where}: expected an object with keys node, pmf")
        node = _require_int(item["node"], f"{where}.node")
        pmf_raw = item["pmf"]
        if not isinstance(pmf_raw, dict) or not pmf_raw:
            raise ValidationError(f"{where}.pmf: expected a non-empty object")
        entries = []
        for key, prob in pmf_raw.items():
            if not re.fullmatch(r"-?[0-9]+", key):
                raise ValidationError(f"{where}.pmf: key {key!r} is not an integer")
            try:
                value = int(key)
            except ValueError:  # past the int(str) digit limit
                raise ValidationError(f"{where}.pmf: key {key!r} is not an integer") from None
            entries.append((value, _require_number(prob, f"{where}.pmf[{key!r}]")))
        demands.append((node, tuple(sorted(entries))))

    return InstanceDocument(
        name=raw["name"], capacity=capacity, edges=tuple(edges), demands=tuple(demands)
    )


def children_lists(parent: Sequence[int]) -> list[list[int]]:
    """Each vertex's children in ascending index order, from parent pointers."""
    kids: list[list[int]] = [[] for _ in parent]
    for v in range(1, len(parent)):
        kids[parent[v]].append(v)
    return kids


def stack_walk_preorder(parent: Sequence[int]) -> tuple[int, ...]:
    """Depth-first preorder of the customers, ascending-child tie-break,
    by a stack walk over the children lists: the oracle for
    ``TreeInstance.preorder``."""
    kids = children_lists(parent)
    order: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        if v != 0:
            order.append(v)
        stack.extend(reversed(kids[v]))
    return tuple(order)


def itemwise_build_tree(edges: Iterable[tuple[int, int, float]], capacity: int) -> TreeInstance:
    """Build a tree with full checks on every edge, depths by parent-chain
    walks, and the preorder by :func:`stack_walk_preorder`."""
    if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
        raise ValidationError(f"capacity: expected an integer >= 1, got {capacity!r}")

    edge_list = list(edges)
    n = len(edge_list)
    parent = [-1] * (n + 1)
    length = [0.0] * (n + 1)
    seen_children: set[int] = set()

    for p, c, ln in edge_list:
        if not isinstance(p, int) or not isinstance(c, int) or isinstance(p, bool) or isinstance(c, bool):
            raise ValidationError(f"vertex names must be integers, got edge ({p!r}, {c!r})")
        if c == 0:
            raise ValidationError("the depot (vertex 0) cannot appear as a child")
        if not (0 <= p <= n) or not (1 <= c <= n):
            raise ValidationError(
                f"edge ({p}, {c}) names a vertex outside 0..{n}; vertices must be dense"
            )
        if c in seen_children:
            raise ValidationError(f"vertex {c} appears as a child more than once")
        seen_children.add(c)
        if isinstance(ln, bool) or not isinstance(ln, (int, float)) or not math.isfinite(ln) or ln <= 0:
            raise ValidationError(f"edge ({p}, {c}) length: expected a positive finite number, got {ln!r}")
        parent[c] = p
        length[c] = float(ln)

    depth = [-1] * (n + 1)
    dist = [0.0] * (n + 1)
    depth[0] = 0
    for v in range(1, n + 1):
        if depth[v] >= 0:
            continue
        chain = []
        u = v
        while depth[u] < 0:
            chain.append(u)
            u = parent[u]
            if len(chain) > n:
                raise ValidationError("parent pointers contain a cycle")
        for w in reversed(chain):
            depth[w] = depth[parent[w]] + 1
            dist[w] = dist[parent[w]] + length[w]

    return TreeInstance(
        vertex_count=n + 1,
        parent=tuple(parent),
        edge_length=tuple(length),
        capacity=capacity,
        preorder=stack_walk_preorder(parent),
        depot_dist=tuple(dist),
        total_edge_length=math.fsum(length),
    )


# -- second routes to the walk and breakpoint laws ----------------------------------

def vertex_depths(tree: TreeInstance) -> tuple[int, ...]:
    """Edge count from the depot to each vertex, by parent-chain walks that
    stop at the first vertex already counted (the library keeps no depths)."""
    depth = [-1] * tree.vertex_count
    depth[0] = 0
    for v in range(1, tree.vertex_count):
        chain = []
        u = v
        while depth[u] < 0:
            chain.append(u)
            u = tree.parent[u]
        for w in reversed(chain):
            depth[w] = depth[tree.parent[w]] + 1
    return tuple(depth)


def depth_path_distance(tree: TreeInstance, depth: Sequence[int], i: int, j: int) -> float:
    """Distance between ``i`` and ``j`` through the meeting vertex that
    stepping the deeper of the two up finds, given ``vertex_depths(tree)``
    (the library climbs both ends in turn and marks their paths instead)."""
    a, b = i, j
    while a != b:
        if depth[a] >= depth[b]:
            a = tree.parent[a]
        else:
            b = tree.parent[b]
    return tree.depot_dist[i] + tree.depot_dist[j] - 2.0 * tree.depot_dist[a]


def path_distance_legs(tree: TreeInstance, order: Sequence[int]) -> tuple[float, ...]:
    """Legs of the closed walk depot, ``order``..., depot, each priced by
    ``path_distance`` and its ancestor walk (the library reads parents)."""
    check_preorder(tree, order)
    stops = [0, *order, 0]
    return tuple(path_distance(tree, stops[k], stops[k + 1]) for k in range(len(stops) - 1))


def closed_walk_length(tree: TreeInstance, order: Sequence[int]) -> float:
    """Length of the closed walk depot, ``order``..., depot.

    ``order`` must be a valid DFS preorder; for such orders the result
    equals ``2 * total_edge_length`` up to float accumulation.
    """
    return math.fsum(path_distance_legs(tree, order))


def indexed_walk_cost(tree: TreeInstance, order: Sequence[int], policy: str,
                      demands: Sequence[int], initial_load: int) -> float:
    """``WalkGeometry``'s cost of one realization from three parallel
    tuples read by stop index: the same prices, the same adds in the same
    order, so equal to ``split_cost``/``unsplit_cost`` bit for bit."""
    seq = tuple(order)
    depot_dist = tree.depot_dist
    inner, at_last = DEFICIT_TRIPS[policy]
    demand_index = tuple(v - 1 for v in seq)
    reroute_extra = tuple([2.0 * depot_dist[tree.parent[w]] for w in seq[1:]] + [0.0])
    deficit_detour = tuple([2.0 * inner * depot_dist[v] for v in seq[:-1]]
                           + [2.0 * at_last * depot_dist[v] for v in seq[-1:]])
    load = initial_load
    extra = 0.0
    for i, di in enumerate(demand_index):
        q = demands[di]
        if q < load:
            load -= q
        elif q == load:
            extra += reroute_extra[i]
            load = tree.capacity
        else:
            extra += deficit_detour[i]
            load = tree.capacity - (q - load)
    return 2.0 * tree.total_edge_length + extra


def walk_expected_cost(tree: TreeInstance, model: DemandModel, policy: str, order: Sequence[int]) -> float:
    """Exact expectation priced along the walk of the preorder ``order``.

    The closed walk, plus per stop v with next stop w: with probability
    1/Q an exact breakpoint's reroute via the depot, ``d(0,v) + d(0,w)``
    minus the leg from v to w (zero after the last stop), and with
    probability (E[D_v] - 1)/Q a deficit's depot round trips, two for
    unsplit and one for split, one at the last stop.  The bound
    arithmetic of ``exact_expected_cost`` replaced this route.
    """
    legs = path_distance_legs(tree, order)
    dd = tree.depot_dist
    q = tree.capacity
    terms = list(legs)
    for k, v in enumerate(order):
        w = order[k + 1] if k + 1 < len(order) else 0
        trips = 2 if policy == "unsplit" and w else 1
        mean = math.fsum(value * prob for value, prob in model.pmfs[v - 1].mass)
        terms.append((dd[v] + dd[w] - legs[k + 1]) / q)
        terms.append((mean - 1.0) * trips * 2.0 * dd[v] / q)
    return math.fsum(terms)


def shuffled_preorder(tree: TreeInstance, rng: random.Random) -> tuple[int, ...]:
    """A DFS preorder with random child ordering (not necessarily sorted)."""
    children = children_lists(tree.parent)
    out, stack = [], [0]
    while stack:
        v = stack.pop()
        if v != 0:
            out.append(v)
        kids = children[v]
        rng.shuffle(kids)
        stack.extend(kids)
    return tuple(out)


def per_event_format_trace(trace) -> str:
    """A trace's ``events`` written back as text, one f-string per event
    and each float repr'd anew: equal to ``format_trace`` when the events
    read the text back faithfully."""
    lines = []
    for ev in trace.events:
        if ev[0] == "move":
            lines.append(f"MOVE {ev[1]} {ev[2]} {ev[3]!r}")
        elif ev[0] == "serve":
            lines.append(f"SERVE {ev[1]} {ev[2]} {ev[3]} {ev[4]}")
        else:
            lines.append(f"BREAKPOINT {ev[1]} {ev[2]}")
    return "\n".join(lines) + ("\n" if lines else "")


def arithmetic_breakpoints(demands: Sequence[int], initial_load: int, capacity: int) -> set[int]:
    """Breakpoint positions from prefix sums, no simulation.

    ``demands`` is indexed by visiting position.  Position i (1-based)
    is a breakpoint iff some integer p >= 0 puts the restock level
    ``initial_load + p*capacity`` inside the half-open prefix interval
    (sum of the first i-1 demands, sum of the first i].  Exact integer
    arithmetic throughout.
    """
    bps: set[int] = set()
    prefix = 0
    for i, q in enumerate(demands, 1):
        low = prefix
        prefix += q
        p = max(0, (low - initial_load) // capacity + 1)
        if initial_load + p * capacity <= prefix:
            bps.add(i)
    return bps


def breakpoint_probability_exact(demands: Sequence[int], capacity: int, position: int) -> Fraction:
    """Exact probability that ``position`` is a breakpoint under uniform l.

    Counts the initial loads in {1..Q} for which
    :func:`arithmetic_breakpoints` flags the position; the result always
    equals ``demands[position-1] / capacity``.
    """
    hits = sum(
        1
        for load in range(1, capacity + 1)
        if position in arithmetic_breakpoints(demands, load, capacity)
    )
    return Fraction(hits, capacity)


# -- the replaced tour decomposition ------------------------------------------------

@dataclass(frozen=True)
class Tour:
    """Maximal depot-to-depot segment of the walk.

    ``customers_served`` lists (vertex, units) in service order;
    ``farthest`` is the served vertex of maximal depot distance (lowest
    index on ties, ``None`` if the segment served nobody) and ``length``
    is the segment's travel distance.
    """

    customers_served: tuple[tuple[int, int], ...]
    load_dispatched: int
    farthest: int | None
    length: float


def trace_tours(trace, tree: TreeInstance) -> tuple[Tour, ...]:
    """The trace's maximal depot-to-depot tours, in execution order."""
    depot_dist = tree.depot_dist
    tours: list[Tour] = []
    seg_lengths: list[float] = []
    seg_serves: list[tuple[int, int]] = []
    for ev in trace.events:
        if ev[0] == "move":
            _, _, to, dist = ev
            seg_lengths.append(dist)
            if to == 0:
                farthest = None
                if seg_serves:
                    best = max(depot_dist[v] for v, _ in seg_serves)
                    farthest = min(v for v, _ in seg_serves if depot_dist[v] == best)
                tours.append(
                    Tour(
                        customers_served=tuple(seg_serves),
                        load_dispatched=sum(u for _, u in seg_serves),
                        farthest=farthest,
                        length=math.fsum(seg_lengths),
                    )
                )
                seg_lengths = []
                seg_serves = []
        elif ev[0] == "serve":
            seg_serves.append((ev[1], ev[2]))
    return tuple(tours)


def tour_certificate(trace, tree: TreeInstance) -> float:
    """``trace_certificate`` summed over :func:`trace_tours`' tours."""
    return (2.0 / tree.capacity) * math.fsum(
        tree.depot_dist[t.farthest] * t.load_dispatched
        for t in trace_tours(trace, tree)
        if t.farthest is not None
    )
