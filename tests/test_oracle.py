from __future__ import annotations

import math
import random

import pytest

from treevrpsd import (
    DemandModel,
    Realization,
    TooLargeError,
    ValidationError,
    build_tree,
    dfs_order,
    exact_expected_cost,
    expected_clairvoyant_lb,
    make_pmf,
    optimal_unsplit_partition,
    point_model,
    run_unsplit,
)
from treevrpsd import demand
from treevrpsd.bounds import clairvoyant_edge_lb, tour_floor
from treevrpsd.instance_io import GeneratorParams
from treevrpsd.oracle import PARTITION_MAX_CUSTOMERS

from helpers import (
    EDGE_LENGTHS,
    brute_optimal_partition_cost,
    convolution_edge_lb,
    enumerated_edge_lb,
    expectation,
    generate,
    random_edges,
    random_model,
    random_pmf_dict,
)


def test_frozen_partitions():
    e1 = build_tree([(0, 1, 1.0), (1, 2, 1.0)], capacity=2)
    best = optimal_unsplit_partition(e1, (1, 1))
    assert best.groups == ((1, 2),)
    assert best.cost == 4.0

    e3 = build_tree([(0, 1, 1.0), (1, 2, 1.0)], capacity=3)
    best = optimal_unsplit_partition(e3, (2, 2))
    assert best.groups == ((1,), (2,))
    assert best.cost == 6.0

    single = build_tree([(0, 1, 2.5)], capacity=4)
    best = optimal_unsplit_partition(single, (3,))
    assert best.groups == ((1,),)
    assert best.cost == 5.0


def test_empty_instance_partition():
    tree = build_tree([], capacity=2)
    assert optimal_unsplit_partition(tree, ()).groups == ()
    assert optimal_unsplit_partition(tree, ()).cost == 0.0


def test_tie_break_returns_lexicographically_smallest():
    # both {1,2} together and separate cost 4.0; together sorts first
    star = build_tree([(0, 1, 1.0), (0, 2, 1.0)], capacity=2)
    best = optimal_unsplit_partition(star, (1, 1))
    assert best.cost == 4.0
    assert best.groups == ((1, 2),)


def test_partition_validation():
    tree = build_tree([(0, 1, 1.0)], capacity=2)
    with pytest.raises(ValidationError, match=r"^demand 3 of customer 1 outside 1\.\.2$"):
        optimal_unsplit_partition(tree, (3,))  # above capacity, infeasible
    with pytest.raises(ValidationError, match=r"^demand 0 of customer 1 outside 1\.\.2$"):
        optimal_unsplit_partition(tree, (0,))
    with pytest.raises(ValidationError, match="^2 demands for 1 customers$"):
        optimal_unsplit_partition(tree, (1, 1))  # wrong length
    big = build_tree([(0, v, 1.0) for v in range(1, PARTITION_MAX_CUSTOMERS + 2)], capacity=2)
    with pytest.raises(TooLargeError):
        optimal_unsplit_partition(big, (1,) * (PARTITION_MAX_CUSTOMERS + 1))


def test_partition_matches_independent_brute_force():
    rng = random.Random(51)
    for _ in range(40):
        n = rng.randint(1, 6)
        capacity = rng.randint(1, 5)
        edges = random_edges(rng, n)
        tree = build_tree(edges, capacity)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        best = optimal_unsplit_partition(tree, demands)
        want = brute_optimal_partition_cost(edges, capacity, demands)
        assert math.isclose(best.cost, want, rel_tol=1e-9, abs_tol=1e-12)
        # groups really are a partition of 1..n within capacity
        flat = sorted(v for group in best.groups for v in group)
        assert flat == list(range(1, n + 1))
        assert all(sum(demands[v - 1] for v in g) <= capacity for g in best.groups)


def test_partition_cost_never_above_unsplit_trace():
    rng = random.Random(52)
    for _ in range(60):
        n = rng.randint(1, 6)
        capacity = rng.randint(1, 5)
        tree = build_tree(random_edges(rng, n), capacity)
        order = dfs_order(tree)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        best = optimal_unsplit_partition(tree, demands)
        for load in range(1, capacity + 1):
            trace = run_unsplit(tree, order, Realization(demands, load))
            assert best.cost <= trace.total_length + 1e-9
        assert best.cost >= clairvoyant_edge_lb(tree, demands) - 1e-9


def test_partition_expectation_stops_each_search_at_the_edge_bound():
    # Every customer hangs off the depot with demand at most Q, so each of
    # the 1,024 joint vectors has an optimum that crosses every edge once:
    # the tour floor.  Each search stops at the first such grouping; trying
    # every partition took seconds.
    tree, model = generate(GeneratorParams(
        n=10, capacity=4, topology="star", pmf="two:1,0.5,3", seed=5, length_range=(0.5, 2.0),
    ))
    assert expected_clairvoyant_lb(tree, model, mode="partition") == 30.554545773086453
    assert tour_floor(tree) == 30.554545773086453


def test_expected_clairvoyant_modes_and_frozen_value():
    tree = build_tree([(0, 1, 1.0), (1, 2, 1.0)], capacity=2)
    model = random_uniform_two(tree)
    # hand sum: demands (1,1),(1,2),(2,1),(2,2) each 1/4 give edge bounds 4,6,6,6
    assert expected_clairvoyant_lb(tree, model, mode="edge") == pytest.approx(5.5)
    assert expected_clairvoyant_lb(tree, model, mode="partition") == pytest.approx(5.5)
    with pytest.raises(ValidationError, match="^mode must be 'edge' or 'partition', got 'exact'$"):
        expected_clairvoyant_lb(tree, model, mode="exact")
    with pytest.raises(ValidationError) as info:
        expected_clairvoyant_lb(tree, point_model((1,), 2), mode="edge")
    assert str(info.value) == "1 demand pmfs for 2 customers"


def random_uniform_two(tree):
    from treevrpsd import DemandModel, make_pmf

    pmf = make_pmf([(1, 0.5), (2, 0.5)], tree.capacity)
    return DemandModel(pmfs=(pmf,) * tree.n_customers, capacity=tree.capacity)


def test_expected_clairvoyant_edge_below_partition_below_unsplit():
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randint(1, 6)
        capacity = rng.randint(1, 4)
        tree = build_tree(random_edges(rng, n), capacity)
        model = random_model(rng, tree, max_support=2)
        edge = expected_clairvoyant_lb(tree, model, mode="edge")
        partition = expected_clairvoyant_lb(tree, model, mode="partition")
        unsplit = exact_expected_cost(tree, model, "unsplit")
        assert edge <= partition + 1e-9
        assert partition <= unsplit + 1e-9


def test_expected_clairvoyant_partition_size_guard():
    n = PARTITION_MAX_CUSTOMERS + 1
    tree = build_tree([(0, v, 1.0) for v in range(1, n + 1)], capacity=2)
    model = point_model((1,) * n, capacity=2)
    with pytest.raises(TooLargeError):
        expected_clairvoyant_lb(tree, model, mode="partition")
    # edge mode has no customer-count cap
    assert expected_clairvoyant_lb(tree, model, mode="edge") > 0


def test_expected_clairvoyant_respects_enum_limit(monkeypatch):
    tree = build_tree([(0, 1, 1.0)], capacity=2)
    model = random_uniform_two(tree)
    monkeypatch.setattr(demand, "ENUM_LIMIT", 1)
    with pytest.raises(TooLargeError):
        expected_clairvoyant_lb(tree, model, mode="partition")
    # the edge closed form enumerates nothing, so the limit does not apply
    assert expected_clairvoyant_lb(tree, model, mode="edge") == 2.0


def _random_shape(rng: random.Random, shape: str, n: int) -> list[tuple[int, int, float]]:
    if shape == "star":
        return [(0, v, rng.choice(EDGE_LENGTHS)) for v in range(1, n + 1)]
    if shape == "path":
        return [(v - 1, v, rng.choice(EDGE_LENGTHS)) for v in range(1, n + 1)]
    return random_edges(rng, n)


def test_expected_edge_closed_form_matches_enumeration():
    rng = random.Random(54)
    shapes = ("random", "star", "path")
    for trial in range(240):
        shape = shapes[trial % 3]
        n = rng.randint(1, 9 if shape == "path" else 6)
        capacity = 1 if trial % 8 == 0 else rng.randint(2, 6)
        tree = build_tree(_random_shape(rng, shape, n), capacity)
        model = random_model(rng, tree, max_support=2 if n > 6 else 3)
        closed = expected_clairvoyant_lb(tree, model, mode="edge")
        want = enumerated_edge_lb(tree, model)
        assert math.isclose(closed, want, rel_tol=1e-9), (trial, shape, n, capacity)


def test_expected_edge_on_deep_path():
    n, capacity = 10_000, 4
    tree = build_tree([(v - 1, v, 0.5) for v in range(1, n + 1)], capacity)
    # point masses: the expectation is the bound of the one demand vector
    demands = tuple(1 + v % capacity for v in range(n))
    point = point_model(demands, capacity)
    assert expected_clairvoyant_lb(tree, point, mode="edge") == pytest.approx(
        clairvoyant_edge_lb(tree, demands), rel=1e-9
    )
    # spread pmfs: E[D_e]/Q <= E[ceil(D_e/Q)] <= E[D_e]/Q + (Q-1)/Q on every edge
    pmf = make_pmf([(1, 0.3), (3, 0.7)], capacity)
    model = DemandModel(pmfs=(pmf,) * n, capacity=capacity)
    got = expected_clairvoyant_lb(tree, model, mode="edge")
    mean_sum = expectation(pmf) * n * (n + 1) / 2.0  # sum over edges of E[D_e]
    low = 2.0 * 0.5 * mean_sum / capacity
    high = low + 2.0 * 0.5 * n * (capacity - 1) / capacity
    assert low <= got <= high


def test_edge_transform_matches_convolution_oracle():
    # The DFT route against the O(n * Q^2) convolution it replaced, on
    # instances too large to enumerate; Q = 1 and Q = 2 hit the empty and
    # the lone self-conjugate frequency.
    rng = random.Random(55)
    shapes = ("random", "star", "path")
    for trial in range(300):
        shape = shapes[trial % 3]
        n = rng.randint(1, 60)
        capacity = 1 if trial % 10 == 0 else rng.randint(2, 30)
        tree = build_tree(_random_shape(rng, shape, n), capacity)
        model = random_model(rng, tree, max_support=4)
        got = expected_clairvoyant_lb(tree, model, mode="edge")
        want = convolution_edge_lb(tree, model)
        assert math.isclose(got, want, rel_tol=1e-9), (trial, shape, n, capacity)


def test_edge_transform_on_deep_path_matches_convolution_oracle():
    # 10^5 pointwise products in a row: where rounding accumulates most.
    n, capacity = 100_000, 7
    tree = build_tree([(v - 1, v, 0.5 + v % 4 * 0.5) for v in range(1, n + 1)], capacity)
    pmf = make_pmf([(1, 0.2), (2, 0.5), (6, 0.3)], capacity)
    model = DemandModel(pmfs=(pmf,) * n, capacity=capacity)
    got = expected_clairvoyant_lb(tree, model, mode="edge")
    assert math.isclose(got, convolution_edge_lb(tree, model), rel_tol=1e-9)


def test_edge_bound_is_tour_floor_when_capacity_covers_all_demand():
    # Every edge then carries between 1 and Q units, so it is crossed
    # exactly twice: the bound is 2S to the last bit, with no transform
    # taken, even when Q is far too large to transform over.
    rng = random.Random(56)
    n = 50
    for capacity in (3 * n, 10**12):
        tree = build_tree(random_edges(rng, n), capacity)
        spread = DemandModel(
            pmfs=tuple(make_pmf(random_pmf_dict(rng, 3).items(), capacity) for _ in range(n)),
            capacity=capacity,
        )
        full = point_model((3,) * n, capacity)  # largest total demand exactly 3n
        for model in (spread, full):
            assert expected_clairvoyant_lb(tree, model, mode="edge") == tour_floor(tree)
