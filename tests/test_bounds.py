from __future__ import annotations

import math
import random
import sys

import pytest

from treevrpsd import (
    DemandModel,
    Realization,
    ValidationError,
    bertsimas_lb,
    bound_set,
    build_tree,
    clairvoyant_edge_lb,
    dfs_order,
    make_pmf,
    point_model,
    run_split,
    run_unsplit,
    tour_floor,
    trace_certificate,
)

from helpers import random_edges, random_model, tour_certificate


def test_e1_bound_values():
    tree = build_tree([(0, 1, 1.0), (1, 2, 1.0)], capacity=2)
    model = point_model((1, 1), capacity=2)
    bounds = bound_set(tree, model)
    assert bounds.tour_floor == 4.0
    assert bounds.bertsimas == 3.0  # (2/2) * (1*1 + 1*2)
    assert bounds.combined_lb == 4.0
    assert bounds.split_ub == 7.0
    assert bounds.unsplit_ub == 10.0


def test_e3_bound_values():
    tree = build_tree([(0, 1, 1.0), (1, 2, 1.0)], capacity=3)
    model = point_model((2, 2), capacity=3)
    bounds = bound_set(tree, model)
    assert bounds.tour_floor == 4.0
    assert bounds.bertsimas == 4.0  # (2/3) * (2*1 + 2*2)
    assert bounds.combined_lb == 4.0
    assert bounds.split_ub == 8.0
    assert bounds.unsplit_ub == 12.0


def test_bertsimas_uses_expected_demand():
    tree = build_tree([(0, 1, 2.0)], capacity=2)
    model = DemandModel(pmfs=(make_pmf([(1, 0.5), (2, 0.5)], 2),), capacity=2)
    # (2/2) * 1.5 * 2.0
    assert bertsimas_lb(tree, model) == 3.0
    assert tour_floor(tree) == 4.0
    assert bound_set(tree, model).combined_lb == 4.0


def test_combined_lb_picks_the_larger_term():
    # heavy demands make the demand-weighted term dominate the tour floor
    tree = build_tree([(0, 1, 1.0)], capacity=1)
    model = point_model((1,), capacity=1)
    bounds = bound_set(tree, model)
    assert bounds.tour_floor == 2.0
    assert bounds.bertsimas == 2.0
    tree5 = build_tree([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)], capacity=1)
    model5 = point_model((1, 1, 1), capacity=1)
    assert bound_set(tree5, model5).combined_lb == 6.0


def test_trace_certificate_e1_frozen():
    tree = build_tree([(0, 1, 1.0), (1, 2, 1.0)], capacity=2)
    trace = run_split(tree, dfs_order(tree), Realization((1, 1), 1))
    # tours: serve 1 (dispatch 1, farthest 1), serve 2 (dispatch 1, farthest 2)
    assert trace_certificate(trace, tree) == 3.0
    assert trace_certificate(trace, tree) <= trace.total_length


def test_trace_certificate_never_exceeds_total():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 7)
        capacity = rng.randint(1, 5)
        tree = build_tree(random_edges(rng, n), capacity)
        order = dfs_order(tree)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        load = rng.randint(1, capacity)
        for run in (run_split, run_unsplit):
            trace = run(tree, order, Realization(demands, load))
            assert trace_certificate(trace, tree) <= trace.total_length + 1e-9


def test_trace_certificate_matches_tour_oracle():
    # one pass over the events sums the same products, in the same order,
    # as the tour decomposition in helpers: the values agree bit for bit
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randint(1, 8)
        capacity = rng.randint(1, 5)
        tree = build_tree(random_edges(rng, n), capacity)
        order = dfs_order(tree)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        for load in range(1, capacity + 1):
            for run in (run_split, run_unsplit):
                trace = run(tree, order, Realization(demands, load))
                assert trace_certificate(trace, tree) == tour_certificate(trace, tree)


def test_trace_certificate_stays_finite_at_the_length_limit():
    # A distance times Q units passes the largest float here; the certificate,
    # at most the trace's length, must not.
    half = sys.float_info.max / 24  # two edges summing to the limit at n = 2
    tree = build_tree([(0, 1, half), (1, 2, half)], capacity=100)
    for run in (run_split, run_unsplit):
        trace = run(tree, dfs_order(tree), Realization((100, 100), 100))
        certificate = trace_certificate(trace, tree)
        assert math.isfinite(trace.total_length)
        assert math.isfinite(certificate) and certificate <= trace.total_length


def test_clairvoyant_edge_lb_frozen_values():
    path = build_tree([(0, 1, 1.0), (1, 2, 1.0)], capacity=3)
    # edge above 1 carries 4 units -> 2 trips, edge above 2 carries 2 -> 1 trip
    assert clairvoyant_edge_lb(path, (2, 2)) == 6.0
    # all demand fits one trip: bound collapses to the tour floor
    assert clairvoyant_edge_lb(path, (1, 1)) == 4.0
    single = build_tree([(0, 1, 1.0)], capacity=1)
    assert clairvoyant_edge_lb(single, (3,)) == 6.0
    assert clairvoyant_edge_lb(single, (0,)) == 2.0  # still must traverse


def test_clairvoyant_edge_lb_at_least_tour_floor():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(1, 8)
        capacity = rng.randint(1, 5)
        tree = build_tree(random_edges(rng, n), capacity)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        assert clairvoyant_edge_lb(tree, demands) >= tour_floor(tree) - 1e-9


def test_clairvoyant_edge_lb_validation():
    tree = build_tree([(0, 1, 1.0)], capacity=2)
    with pytest.raises(ValidationError, match="^2 demands for 1 customers$"):
        clairvoyant_edge_lb(tree, (1, 1))
    with pytest.raises(ValidationError, match="^demand of customer 1: expected an integer >= 0, got -1$"):
        clairvoyant_edge_lb(tree, (-1,))


def test_certificate_and_edge_lb_below_realized_totals():
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 6)
        capacity = rng.randint(1, 4)
        tree = build_tree(random_edges(rng, n), capacity)
        order = dfs_order(tree)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        for load in range(1, capacity + 1):
            for run in (run_split, run_unsplit):
                trace = run(tree, order, Realization(demands, load))
                assert clairvoyant_edge_lb(tree, demands) <= trace.total_length + 1e-9
                assert trace_certificate(trace, tree) <= trace.total_length + 1e-9


def test_bounds_scale_linearly_with_lengths():
    rng = random.Random(34)
    edges = random_edges(rng, 5)
    scaled = [(p, c, 2.0 * ln) for p, c, ln in edges]
    tree = build_tree(edges, capacity=3)
    tree2 = build_tree(scaled, capacity=3)
    model = random_model(rng, tree)
    b1 = bound_set(tree, model)
    b2 = bound_set(tree2, model)
    assert b2.tour_floor == pytest.approx(2.0 * b1.tour_floor)
    assert b2.bertsimas == pytest.approx(2.0 * b1.bertsimas)
    assert b2.split_ub == pytest.approx(2.0 * b1.split_ub)
    assert b2.unsplit_ub == pytest.approx(2.0 * b1.unsplit_ub)
