"""Independent reference computations for the benchmark's output checks.

Everything here reads instance documents with the standard library's
``json`` module and recomputes results from first principles, so a
check never compares the program against itself.

The expected cost of both policies has a closed form.  Over the uniform
initial load, customer i is an exact breakpoint with probability 1/Q
and a deficit breakpoint with probability (E[D_i] - 1)/Q, so with the
ascending-child DFS preorder

    E[cost] = 2S + sum_i [ reroute_i / Q + (E[D_i] - 1)/Q * m_i * 2 d(0,i) ]

where reroute_i = 2 d(0, parent(next stop)) (0 at the last stop) and
m_i = 1 for split; for unsplit m_i = 2, except 1 at the last stop.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

REL_TOL = 1e-9


class CheckError(Exception):
    """A program output disagrees with the reference computation."""


def close(got: float, want: float, what: str) -> None:
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def at_most(low: float, high: float, what: str) -> None:
    if low > high + REL_TOL * max(abs(low), abs(high), 1.0):
        raise CheckError(f"{what}: {low!r} > {high!r}")


class Instance:
    """Tree, demand means and DFS preorder of one instance document."""

    def __init__(self, raw: dict):
        validate_document(raw)
        self.name = raw["name"]
        self.capacity = q = raw["capacity"]
        n = len(raw["edges"])
        self.n = n
        self.parent = [-1] * (n + 1)
        self.length = [0.0] * (n + 1)
        children = [[] for _ in range(n + 1)]
        for p, c, ln in raw["edges"]:
            self.parent[c] = p
            self.length[c] = float(ln)
            children[p].append(c)
        self.order = []
        self.depot_dist = [0.0] * (n + 1)
        self.depth = [0] * (n + 1)
        stack = [0]
        while stack:
            v = stack.pop()
            if v:
                self.order.append(v)
                p = self.parent[v]
                self.depot_dist[v] = self.depot_dist[p] + self.length[v]
                self.depth[v] = self.depth[p] + 1
            stack.extend(sorted(children[v], reverse=True))
        self.pmf = [()] * (n + 1)
        self.mean = [0.0] * (n + 1)
        for item in raw["demands"]:
            entries = sorted((int(k), float(p)) for k, p in item["pmf"].items())
            self.pmf[item["node"]] = tuple((k, p) for k, p in entries if p > 0)
            self.mean[item["node"]] = math.fsum(k * p for k, p in entries)
        self.total_length = math.fsum(self.length)
        self.tour_floor = 2.0 * self.total_length
        self.bertsimas = (2.0 / q) * math.fsum(
            self.depot_dist[i] * self.mean[i] for i in range(1, n + 1)
        )
        self._ancestors = None

    @classmethod
    def from_path(cls, path: Path) -> "Instance":
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def realization(self, seed: int) -> tuple[list[int], int]:
        """Demands (indexed by node) and initial load that ``simulate --seed`` must draw.

        Follows the program's documented determinism contract: a
        ``random.Random(seed * 2**32)`` draws each customer's demand by
        inverse CDF over its pmf values in ascending order, customers
        1..n in turn, then the initial load uniformly from 1..Q.
        """
        rng = random.Random(seed * 2**32)
        demands = [0]
        for entries in self.pmf[1:]:
            u = rng.random()
            acc = 0.0
            value = entries[-1][0]
            for k, p in entries:
                acc += p
                if u < acc:
                    value = k
                    break
            demands.append(value)
        return demands, rng.randrange(1, self.capacity + 1)

    def formula_ub(self, policy: str) -> float:
        return self.tour_floor + (1.0 if policy == "split" else 2.0) * self.bertsimas

    def reroute(self, k: int) -> float:
        """Extra length of going from the k-th stop to the next via the depot."""
        if k == len(self.order) - 1:
            return 0.0
        return 2.0 * self.depot_dist[self.parent[self.order[k + 1]]]

    def deficit_trips(self, policy: str, k: int) -> int:
        return 1 if policy == "split" or k == len(self.order) - 1 else 2

    def expected_cost(self, policy: str) -> float:
        """Closed-form expected cost of ``policy`` under a uniform initial load."""
        q = self.capacity
        terms = [self.tour_floor]
        for k, v in enumerate(self.order):
            terms.append(self.reroute(k) / q)
            terms.append(
                (self.mean[v] - 1.0) / q * self.deficit_trips(policy, k) * 2.0 * self.depot_dist[v]
            )
        return math.fsum(terms)

    def distance(self, a: int, b: int) -> float:
        """Tree distance via binary-lifting lowest common ancestors."""
        if self._ancestors is None:
            up = [self.parent[:]]
            up[0][0] = 0
            while (1 << len(up)) <= self.n:
                prev = up[-1]
                up.append([prev[prev[v]] for v in range(self.n + 1)])
            self._ancestors = up
        up = self._ancestors
        x, y = (a, b) if self.depth[a] >= self.depth[b] else (b, a)
        if y == 0:
            return self.depot_dist[a] + self.depot_dist[b]
        lift = self.depth[x] - self.depth[y]
        level = 0
        while lift:
            if lift & 1:
                x = up[level][x]
            lift >>= 1
            level += 1
        if x != y:
            for level in range(len(up) - 1, -1, -1):
                if up[level][x] != up[level][y]:
                    x, y = up[level][x], up[level][y]
            x = up[0][x]
        return self.depot_dist[a] + self.depot_dist[b] - 2.0 * self.depot_dist[x]


def validate_document(raw) -> None:
    """Raise ``CheckError`` unless ``raw`` is one tree rooted at 0 with normalized pmfs."""
    if not isinstance(raw, dict) or set(raw) != {"name", "capacity", "edges", "demands"}:
        raise CheckError("document must be an object with keys name, capacity, edges, demands")
    q = raw["capacity"]
    if not isinstance(q, int) or q < 1:
        raise CheckError(f"capacity {q!r} is not a positive integer")
    n = len(raw["edges"])
    parent = {}
    for p, c, ln in raw["edges"]:
        if not (0 <= p <= n and 1 <= c <= n) or c in parent:
            raise CheckError(f"edge ({p}, {c}) is out of range or repeats a child")
        if not (isinstance(ln, (int, float)) and math.isfinite(ln) and ln > 0):
            raise CheckError(f"edge ({p}, {c}) has length {ln!r}")
        parent[c] = p
    reached = {0}
    for v in range(1, n + 1):
        chain = []
        while v not in reached:
            chain.append(v)
            v = parent[v]
            if len(chain) > n:
                raise CheckError("parent pointers contain a cycle")
        reached.update(chain)
    nodes = sorted(item["node"] for item in raw["demands"])
    if nodes != list(range(1, n + 1)):
        raise CheckError("demands do not cover customers 1..n exactly once")
    for item in raw["demands"]:
        pmf = item["pmf"]
        if any(not 1 <= int(k) <= q or p < 0 for k, p in pmf.items()):
            raise CheckError(f"pmf of node {item['node']} has a value outside 1..{q}")
        if abs(math.fsum(pmf.values()) - 1.0) > 1e-12:
            raise CheckError(f"pmf of node {item['node']} does not sum to 1")


def breakpoints(demands: list[int], initial_load: int, capacity: int) -> dict[int, str]:
    """Breakpoint positions (0-based, visiting order) and kinds by the prefix-sum rule.

    Position i breaks iff a restock level l + p*Q (p >= 0) lies in the
    half-open prefix interval (D_{i-1}, D_i]; it is exact iff the level
    equals D_i.
    """
    result = {}
    prefix = 0
    for i, q in enumerate(demands):
        low, prefix = prefix, prefix + q
        level = initial_load + max(0, (low - initial_load) // capacity + 1) * capacity
        if level <= prefix:
            result[i] = "exact" if level == prefix else "deficit"
    return result


def replay_trace(
    inst: Instance, policy: str, text: str, demands: list[int], initial_load: int
) -> dict[int, str]:
    """Replay ``simulate`` output against the realization; return its breakpoints.

    ``demands`` (indexed by node) and ``initial_load`` are the
    realization the trace must serve.  Checks that every MOVE starts
    where the vehicle stands and has the tree length, that every SERVE
    starts from the stock left by the previous one (the stock is free
    to change only at the depot), that each customer is served exactly
    its demand, that the walk ends at the depot with TOTAL equal to the
    sum of the moves and to the closed-form cost of its breakpoints,
    that customers are first visited in DFS preorder, and that the
    BREAKPOINT lines follow the prefix-sum rule.
    """
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("TOTAL "):
        raise CheckError(f"{policy}: trace does not end with a TOTAL line")
    position = 0
    stock = initial_load
    moves = []
    served = [0] * (inst.n + 1)
    first_visit = []
    visited = set()
    reported = {}
    for line in lines[:-1]:
        kind, *fields = line.split()
        if kind == "MOVE":
            a, b, dist = int(fields[0]), int(fields[1]), float(fields[2])
            if a != position:
                raise CheckError(f"{policy}: MOVE from {a} while at {position}")
            close(dist, inst.distance(a, b), f"{policy}: MOVE {a} {b}")
            moves.append(dist)
            position = b
            if b == 0:
                stock = None
            elif b not in visited:
                visited.add(b)
                first_visit.append(b)
        elif kind == "SERVE":
            v, units, before, after = map(int, fields)
            if (
                v != position or units < 1 or after != before - units or after < 0
                or before > inst.capacity or stock not in (None, before)
            ):
                raise CheckError(f"{policy}: bad service line {line!r} with stock {stock}")
            stock = after
            served[v] += units
        elif kind == "BREAKPOINT":
            reported[int(fields[0])] = fields[1]
        else:
            raise CheckError(f"{policy}: unknown trace line {line!r}")
    if position != 0:
        raise CheckError(f"{policy}: walk ends at {position}, not at the depot")
    if first_visit != inst.order:
        raise CheckError(f"{policy}: customers are not visited in DFS preorder")
    if served != demands:
        v = next(v for v in inst.order if served[v] != demands[v])
        raise CheckError(
            f"{policy}: customer {v} served {served[v]}, but the realization drawn "
            f"from the seed demands {demands[v]}"
        )
    total = float(lines[-1].split()[1])
    close(total, math.fsum(moves), f"{policy}: TOTAL against the sum of moves")
    expected = breakpoints([demands[v] for v in inst.order], initial_load, inst.capacity)
    if reported != {inst.order[i]: kind for i, kind in expected.items()}:
        raise CheckError(f"{policy}: breakpoints break the prefix-sum rule")
    extra = [inst.tour_floor]
    for k, kind in expected.items():
        if kind == "exact":
            extra.append(inst.reroute(k))
        else:
            extra.append(inst.deficit_trips(policy, k) * 2.0 * inst.depot_dist[inst.order[k]])
    close(total, math.fsum(extra), f"{policy}: TOTAL against the breakpoint detours")
    return reported
