from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treevrpsd import (
    GeneratorParams,
    Realization,
    ValidationError,
    WalkGeometry,
    build_tree,
    dfs_order,
    format_trace,
    parse_instance,
    replication_rng,
    run_split,
    run_unsplit,
    sample_realization,
    tour_floor,
)
from treevrpsd.policy import POLICIES

from helpers import (
    arithmetic_breakpoints,
    assert_trace_matches_naive,
    breakpoint_kinds,
    breakpoint_probability_exact,
    brute_distances,
    generate,
    naive_policy_cost,
    naive_trace_text,
    path_distance_legs,
    per_event_format_trace,
    random_edges,
    shuffled_preorder,
    trace_tours,
)

E1_EDGES = [(0, 1, 1.0), (1, 2, 1.0)]
E3_EDGES = [(0, 1, 1.0), (1, 2, 1.0)]


def _runs(tree, demands, load):
    order = dfs_order(tree)
    r = Realization(demands, load)
    return run_split(tree, order, r), run_unsplit(tree, order, r)


def test_e1_totals_per_load():
    tree = build_tree(E1_EDGES, capacity=2)
    split1, unsplit1 = _runs(tree, (1, 1), 1)
    # load 1: exact breakpoint at customer 1, refill detour of 2
    assert split1.total_length == 6.0
    assert unsplit1.total_length == 6.0
    assert set(breakpoint_kinds(split1)) == {1}
    assert breakpoint_kinds(split1) == {1: "exact"}
    split2, unsplit2 = _runs(tree, (1, 1), 2)
    # load 2: exact breakpoint only at the final customer, no refill
    assert split2.total_length == 4.0
    assert unsplit2.total_length == 4.0
    assert set(breakpoint_kinds(split2)) == {2}
    assert breakpoint_kinds(split2) == {2: "exact"}


def test_e3_totals_per_load_split_vs_unsplit():
    tree = build_tree(E3_EDGES, capacity=3)
    split1, unsplit1 = _runs(tree, (2, 2), 1)
    # deficit at customer 1: split serves 1+1, unsplit fetches and restocks;
    # the final customer then drains the fresh stock exactly (free there)
    assert split1.total_length == 6.0
    assert unsplit1.total_length == 8.0
    assert breakpoint_kinds(split1) == {1: "deficit", 2: "exact"}
    assert breakpoint_kinds(unsplit1) == {1: "deficit", 2: "exact"}
    split2, unsplit2 = _runs(tree, (2, 2), 2)
    assert split2.total_length == 6.0
    assert unsplit2.total_length == 6.0
    assert breakpoint_kinds(split2) == {1: "exact"}
    split3, unsplit3 = _runs(tree, (2, 2), 3)
    # final-customer deficit costs one depot round trip for both policies
    assert split3.total_length == 8.0
    assert unsplit3.total_length == 8.0
    assert breakpoint_kinds(split3) == {2: "deficit"}


def test_e2_single_customer_totals():
    tree = build_tree([(0, 1, 1.0)], capacity=2)
    for policy_run, load, want in [
        (run_split, 1, 4.0),
        (run_unsplit, 1, 4.0),
        (run_split, 2, 2.0),
        (run_unsplit, 2, 2.0),
    ]:
        trace = policy_run(tree, (1,), Realization((2,), load))
        assert trace.total_length == want


def test_golden_dump_e1_split_load1():
    tree = build_tree(E1_EDGES, capacity=2)
    trace = run_split(tree, dfs_order(tree), Realization((1, 1), 1))
    assert format_trace(trace) == (
        "MOVE 0 1 1.0\n"
        "BREAKPOINT 1 exact\n"
        "SERVE 1 1 1 0\n"
        "MOVE 1 0 1.0\n"
        "MOVE 0 2 2.0\n"
        "SERVE 2 1 2 1\n"
        "MOVE 2 0 2.0\n"
    )


def test_golden_dump_unsplit_deficit_restock():
    tree = build_tree(E3_EDGES, capacity=3)
    trace = run_unsplit(tree, dfs_order(tree), Realization((2, 2), 1))
    assert format_trace(trace) == (
        "MOVE 0 1 1.0\n"
        "BREAKPOINT 1 deficit\n"
        "MOVE 1 0 1.0\n"
        "MOVE 0 1 1.0\n"
        "SERVE 1 2 2 0\n"
        "MOVE 1 0 1.0\n"
        "MOVE 0 1 1.0\n"
        "MOVE 1 2 1.0\n"
        "BREAKPOINT 2 exact\n"
        "SERVE 2 2 2 0\n"
        "MOVE 2 0 2.0\n"
    )


def test_empty_instance_trace_is_empty():
    tree = build_tree([], capacity=2)
    trace = run_split(tree, (), Realization((), 1))
    assert trace.total_length == 0.0
    assert [ev for ev in trace.events if ev[0] == "move"] == []
    assert format_trace(trace) == ""


def test_realization_validation():
    tree = build_tree(E1_EDGES, capacity=2)
    order = dfs_order(tree)
    for realization, message in [
        (Realization((1,), 1), "realization has 1 demands for 2 customers"),  # wrong demand count
        (Realization((0, 1), 1), "demand 0 of customer 1 outside 1..2"),  # demand below 1
        (Realization((3, 1), 1), "demand 3 of customer 1 outside 1..2"),  # demand above Q
        (Realization((1, 1), 0), "initial load 0 outside 1..2"),  # load below 1
        (Realization((1, 1), 3), "initial load 3 outside 1..2"),  # load above Q
    ]:
        with pytest.raises(ValidationError) as info:
            run_split(tree, order, realization)
        assert str(info.value) == message
    with pytest.raises(ValidationError) as info:
        run_split(tree, order, Realization((1.5, 1), 1))  # not an integer
    assert str(info.value) == "demand 1.5 of customer 1 outside 1..2"


def test_tour_decomposition_and_loads():
    tree = build_tree(E3_EDGES, capacity=3)
    trace = run_unsplit(tree, dfs_order(tree), Realization((2, 2), 1))
    tours = trace_tours(trace, tree)
    # segments split at every arrival at the depot
    assert [t.customers_served for t in tours] == [(), ((1, 2),), ((2, 2),)]
    assert [t.farthest for t in tours] == [None, 1, 2]
    assert [t.load_dispatched for t in tours] == [0, 2, 2]
    assert math.fsum(t.length for t in tours) == trace.total_length
    # every tour dispatches at most a full vehicle
    assert all(t.load_dispatched <= tree.capacity for t in tours)


def test_services_sum_to_demands_everywhere():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 7)
        capacity = rng.randint(1, 5)
        tree = build_tree(random_edges(rng, n), capacity)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        load = rng.randint(1, capacity)
        for run in (run_split, run_unsplit):
            trace = run(tree, dfs_order(tree), Realization(demands, load))
            serves = [ev[1:] for ev in trace.events if ev[0] == "serve"]
            delivered = {v: 0 for v in range(1, n + 1)}
            for customer, units, load_before, load_after in serves:
                assert load_after == load_before - units
                assert units >= 1
                delivered[customer] += units
            assert delivered == {v: demands[v - 1] for v in range(1, n + 1)}
            # unsplit serves every customer in exactly one visit
            if run is run_unsplit:
                assert len(serves) == n


def test_traces_match_naive_rules_event_by_event():
    rng = random.Random(22)
    for _ in range(80):
        n = rng.randint(1, 6)
        capacity = rng.randint(1, 5)
        edges = random_edges(rng, n)
        tree = build_tree(edges, capacity)
        dist = brute_distances(edges, n + 1)
        order = dfs_order(tree)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        load = rng.randint(1, capacity)
        for run in (run_split, run_unsplit):
            trace = run(tree, order, Realization(demands, load))
            assert_trace_matches_naive(tree, trace, dist, order, demands, load)


def test_walk_geometry_equals_trace_totals():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 7)
        capacity = rng.randint(1, 6)
        tree = build_tree(random_edges(rng, n), capacity)
        order = dfs_order(tree)
        geometry = WalkGeometry(tree, order)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        load = rng.randint(1, capacity)
        split_trace = run_split(tree, order, Realization(demands, load))
        unsplit_trace = run_unsplit(tree, order, Realization(demands, load))
        assert math.isclose(
            geometry.split_cost(demands, load), split_trace.total_length, rel_tol=1e-9
        )
        assert math.isclose(
            geometry.unsplit_cost(demands, load), unsplit_trace.total_length, rel_tol=1e-9
        )
        # the policies share one kernel and differ only in the deficit detour
        assert geometry.unsplit_cost(demands, load) >= geometry.split_cost(demands, load)


def test_walk_without_breakpoints_costs_the_tour_floor(corpus_dir):
    # The walk is priced as 2S, not as a sum of legs that can differ from
    # it in the last bit, as on these three corpus trees.
    names = ("caterpillar-n5-q2-s112", "path-n6-q4-s103", "random-attachment-n5-q4-s108")
    for name in names:
        tree, _ = parse_instance((corpus_dir / f"{name}.json").read_text(encoding="utf-8"))
        n = tree.n_customers
        edges = [(tree.parent[v], v, tree.edge_length[v]) for v in range(1, n + 1)]
        roomy = build_tree(edges, capacity=n + 1)
        geometry = WalkGeometry(roomy, dfs_order(roomy))
        demands = (1,) * n
        assert geometry.split_cost(demands, n + 1) == tour_floor(roomy)
        assert geometry.unsplit_cost(demands, n + 1) == tour_floor(roomy)


def test_breakpoints_agree_with_arithmetic_rule():
    rng = random.Random(24)
    for _ in range(100):
        n = rng.randint(1, 7)
        capacity = rng.randint(1, 6)
        tree = build_tree(random_edges(rng, n), capacity)
        order = dfs_order(tree)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        load = rng.randint(1, capacity)
        trace = run_split(tree, order, Realization(demands, load))
        by_position = arithmetic_breakpoints(
            [demands[v - 1] for v in order], load, capacity
        )
        assert {order[i - 1] for i in by_position} == set(breakpoint_kinds(trace))


def test_coupling_split_unsplit_share_breakpoints_and_loads():
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(1, 6)
        capacity = rng.randint(1, 5)
        tree = build_tree(random_edges(rng, n), capacity)
        order = dfs_order(tree)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        for load in range(1, capacity + 1):
            s = run_split(tree, order, Realization(demands, load))
            u = run_unsplit(tree, order, Realization(demands, load))
            assert set(breakpoint_kinds(s)) == set(breakpoint_kinds(u))
            assert breakpoint_kinds(s) == breakpoint_kinds(u)
            assert s.post_customer_loads == u.post_customer_loads
            # unsplit never beats split on the same realization
            assert u.total_length >= s.total_length - 1e-9


def test_breakpoint_probability_is_demand_over_capacity():
    rng = random.Random(26)
    for _ in range(50):
        capacity = rng.randint(1, 8)
        n = rng.randint(1, 8)
        demands = [rng.randint(1, capacity) for _ in range(n)]
        for position in range(1, n + 1):
            assert breakpoint_probability_exact(demands, capacity, position) == Fraction(
                demands[position - 1], capacity
            )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_arithmetic_breakpoints_match_prefix_definition(data):
    capacity = data.draw(st.integers(1, 9))
    demands = data.draw(st.lists(st.integers(1, capacity), min_size=1, max_size=8))
    load = data.draw(st.integers(1, capacity))
    got = arithmetic_breakpoints(demands, load, capacity)
    prefix = list(itertools.accumulate(demands))
    expected = set()
    for i in range(1, len(demands) + 1):
        lo = prefix[i - 1] - demands[i - 1]
        hi = prefix[i - 1]
        # some restock threshold load + p*Q falls in (lo, hi]
        if any(lo < load + p * capacity <= hi for p in range(0, hi // capacity + 1)):
            expected.add(i)
    assert got == expected


def test_policies_respect_alternative_preorders():
    # order with the higher-numbered branch first is still a preorder
    edges = [(0, 1, 1.0), (0, 2, 2.0), (2, 3, 1.0)]
    tree = build_tree(edges, capacity=2)
    order = (2, 3, 1)
    dist = brute_distances(edges, 4)
    demands = (2, 1, 2)
    for policy, run in zip(POLICIES, (run_split, run_unsplit)):
        trace = run(tree, order, Realization(demands, 1))
        assert trace.total_length == pytest.approx(
            naive_policy_cost(dist, order, demands, 1, 2, policy)
        )
        geometry = WalkGeometry(tree, order)
        cost = geometry.split_cost if policy == "split" else geometry.unsplit_cost
        assert cost(demands, 1) == pytest.approx(trace.total_length)


def test_trace_execution_is_linear_on_deep_path(monkeypatch):
    # Every move used to price itself with an O(depth) LCA walk; the
    # executor now reads the walk legs once, so a deep path costs at most
    # one path_distance call per leg of the closed walk.
    import treevrpsd.policy as policy_module

    n = 10_000
    tree = build_tree([(v - 1, v, 0.5 + (v % 7) / 4) for v in range(1, n + 1)], capacity=2)
    order = dfs_order(tree)
    geometry = WalkGeometry(tree, order)
    calls = 0
    original = policy_module.path_distance

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(policy_module, "path_distance", counting)
    demands = (2,) * n
    # load 1: a deficit at every customer; load 2: an exact breakpoint at every one
    for load in (1, 2):
        for run, cost in ((run_split, geometry.split_cost), (run_unsplit, geometry.unsplit_cost)):
            calls = 0
            trace = run(tree, order, Realization(demands, load))
            assert calls <= n + 1
            assert len(breakpoint_kinds(trace)) == n
            assert math.isclose(trace.total_length, cost(demands, load), rel_tol=1e-9)


def _legs_test_tree(rng, n, shape):
    """Star, path or random-attachment tree with non-dyadic edge lengths and
    room for a unit demand at every customer."""
    edges = []
    for v in range(1, n + 1):
        p = 0 if shape == "star" else v - 1 if shape == "path" else rng.randrange(v)
        edges.append((p, v, rng.uniform(0.1, 3.0)))
    return build_tree(edges, capacity=n + 1)


def _walked_legs(tree, order):
    """The customer-to-customer moves of a trace that never breaks: unit
    demands on a full load of n + 1 walk every consecutive pair."""
    n = tree.n_customers
    trace = run_split(tree, order, Realization((1,) * n, n + 1))
    assert breakpoint_kinds(trace) == {}
    return tuple(ev[3] for ev in trace.events if ev[0] == "move" and ev[1] and ev[2])


def test_walk_legs_equal_path_distance_oracle():
    # The executor's legs come from parent pointers; the oracle walks to the
    # common ancestor. Equal bit for bit, under ascending and shuffled preorders.
    rng = random.Random(31)
    for k in range(200):
        tree = _legs_test_tree(rng, rng.randint(0, 40), ("star", "path", "random")[k % 3])
        for order in (dfs_order(tree), shuffled_preorder(tree, rng)):
            assert _walked_legs(tree, order) == path_distance_legs(tree, order)[1:-1]


def test_walk_legs_equal_path_distance_oracle_on_deep_path():
    tree = _legs_test_tree(random.Random(32), 100_000, "path")
    order = dfs_order(tree)
    assert _walked_legs(tree, order) == path_distance_legs(tree, order)[1:-1]


def test_traces_make_no_path_distance_calls_on_deep_path(monkeypatch):
    import treevrpsd.policy as policy_module
    import treevrpsd.tree as tree_module

    n = 10_000
    tree = build_tree([(v - 1, v, 0.5 + (v % 7) / 4) for v in range(1, n + 1)], capacity=2)
    order = dfs_order(tree)
    calls = Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(policy_module, "path_distance", counting("path_distance", policy_module.path_distance))
    monkeypatch.setattr(
        tree_module, "lowest_common_ancestor",
        counting("lowest_common_ancestor", tree_module.lowest_common_ancestor),
    )
    # load 1: a deficit at every customer; load 2: an exact breakpoint at every one
    for load in (1, 2):
        for run in (run_split, run_unsplit):
            trace = run(tree, order, Realization((2,) * n, load))
            assert len(breakpoint_kinds(trace)) == n
    assert calls == Counter()


def _formatter_cases(corpus_dir):
    for path in sorted(corpus_dir.glob("*.json")):
        yield parse_instance(path.read_text(encoding="utf-8"))
    for topology in ("path", "star", "random-attachment", "caterpillar"):
        for n in (1, 7, 300, 1400):
            yield generate(GeneratorParams(
                n=n, capacity=10, topology=topology, pmf="two:3,0.5,10", seed=n, length_range=(0.5, 2.0)
            ))


def _assert_text_matches_naive(tree, order, r, trace):
    text = format_trace(trace)
    assert text == naive_trace_text(tree, order, r.demands, r.initial_load, trace.policy)
    # the events read back from the text write the same text again
    assert per_event_format_trace(trace) == text


def test_format_trace_matches_per_event_oracle(corpus_dir):
    for tree, model in _formatter_cases(corpus_dir):
        order = dfs_order(tree)
        for seed in (0, 7, 42):
            r = sample_realization(model, replication_rng(seed, 0))
            for run in (run_split, run_unsplit):
                _assert_text_matches_naive(tree, order, r, run(tree, order, r))


def test_format_trace_matches_oracle_for_every_final_stop_kind():
    # Every demand vector and load on a 3-customer path: each breakpoint
    # kind (and none) occurs at every stop, the final one included.
    tree = build_tree([(0, 1, 0.7), (1, 2, 1.3), (2, 3, 0.1)], capacity=3)
    order = dfs_order(tree)
    final_kinds = set()
    for demands in itertools.product((1, 2, 3), repeat=3):
        for load in (1, 2, 3):
            r = Realization(demands, load)
            for run in (run_split, run_unsplit):
                trace = run(tree, order, r)
                _assert_text_matches_naive(tree, order, r, trace)
                final_kinds.add(breakpoint_kinds(trace).get(3))
    assert final_kinds == {None, "exact", "deficit"}
