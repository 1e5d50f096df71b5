from __future__ import annotations

import dataclasses
import math
import random

import pytest

from treevrpsd import (
    DemandModel,
    GeneratorParams,
    Realization,
    ValidationError,
    bertsimas_lb,
    bound_set,
    build_tree,
    dfs_order,
    exact_expected_cost,
    expected_clairvoyant_lb,
    make_pmf,
    monte_carlo_cost,
    point_model,
    run_split,
    parse_instance,
    run_unsplit,
)
from treevrpsd.cli import UB_REL_TOL
from treevrpsd.demand import enumerate_joint
from treevrpsd.instance_io import TOPOLOGIES
from treevrpsd.policy import POLICIES

from helpers import (
    generate,
    independent_expected_cost,
    pmf_dicts,
    random_edges,
    random_model,
    shuffled_preorder,
    walk_expected_cost,
)


def brute_expected_by_traces(tree, model, policy) -> float:
    """Expectation from full trace runs, not the walk-geometry fast path."""
    order = dfs_order(tree)
    run = run_split if policy == "split" else run_unsplit
    terms = []
    for demands, prob in enumerate_joint(model):
        for load in range(1, tree.capacity + 1):
            trace = run(tree, order, Realization(demands, load))
            terms.append(prob * trace.total_length / tree.capacity)
    return math.fsum(terms)


def test_worked_example_values(e1, e2, e3, e4):
    for (tree, model), split_want, unsplit_want in [
        (e1, 5.0, 5.0),
        (e2, 3.0, 3.0),
        (e3, 20.0 / 3.0, 22.0 / 3.0),
        (e4, 2.5, None),
    ]:
        assert exact_expected_cost(tree, model, "split") == pytest.approx(
            split_want, rel=1e-9
        )
        if unsplit_want is not None:
            assert exact_expected_cost(tree, model, "unsplit") == pytest.approx(
                unsplit_want, rel=1e-9
            )


def test_exact_matches_full_trace_enumeration():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 5)
        capacity = rng.randint(1, 4)
        tree = build_tree(random_edges(rng, n), capacity)
        model = random_model(rng, tree)
        for policy in ("split", "unsplit"):
            fast = exact_expected_cost(tree, model, policy)
            slow = brute_expected_by_traces(tree, model, policy)
            assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-12)


def test_exact_matches_library_free_enumeration():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(1, 4)
        capacity = rng.randint(1, 4)
        edges = random_edges(rng, n)
        tree = build_tree(edges, capacity)
        model = random_model(rng, tree)
        order = dfs_order(tree)
        for policy in ("split", "unsplit"):
            want = independent_expected_cost(edges, capacity, pmf_dicts(model), order, policy)
            assert exact_expected_cost(tree, model, policy) == pytest.approx(want, rel=1e-9)


def test_walk_sum_depends_on_the_preorder_only_through_its_last_stop(corpus_dir):
    # The stop after v has the stop's parent as their common ancestor, so
    # the reroutes sum to 2*d(0, parent w) over the customers w in every
    # preorder; only unsplit's single last-stop round trip reads the order.
    rng = random.Random(12)
    instances = [
        parse_instance(path.read_text(encoding="utf-8")) for path in sorted(corpus_dir.glob("*.json"))
    ]
    for k in range(100):
        capacity = rng.randint(1, 6)
        params = GeneratorParams(
            n=rng.randint(1, 30), capacity=capacity, topology=TOPOLOGIES[k % len(TOPOLOGIES)],
            pmf="det:1", seed=k, length_range=(0.1, 3.0),
        )
        tree, _ = generate(params)
        instances.append((tree, random_model(rng, tree)))
    assert {tree.n_customers for tree, _ in instances} >= {1, 30}
    for tree, model in instances:
        order = dfs_order(tree)
        orders = [order] + [shuffled_preorder(tree, rng) for _ in range(10)]
        for policy in POLICIES:
            exact = exact_expected_cost(tree, model, policy)
            by_last: dict[int, float] = {}
            for preorder in orders:
                cost = walk_expected_cost(tree, model, policy, preorder)
                key = preorder[-1] if policy == "unsplit" else 0
                assert math.isclose(cost, by_last.setdefault(key, cost), rel_tol=1e-12)
                if preorder[-1] == order[-1]:
                    assert math.isclose(cost, exact, rel_tol=1e-12)


def test_exact_scales_linearly_on_deep_path():
    n = 100_000
    tree = build_tree([(v - 1, v, 1.0) for v in range(1, n + 1)], capacity=10)
    pmf = make_pmf([(k, 0.1) for k in range(1, 11)], capacity=10)
    model = DemandModel(pmfs=(pmf,) * n, capacity=10)
    # reroute via the depot between stops i and i+1 adds 2i (none after
    # the last); E[D] - 1 = 4.5, and the round trip at stop i is 2i
    reroute = 0.2 * n * (n - 1) / 2.0
    want_split = 2.0 * n + reroute + 0.45 * n * (n + 1)
    assert exact_expected_cost(tree, model, "split") == pytest.approx(want_split, rel=1e-9)
    # unsplit doubles every deficit round trip but the last one
    want_unsplit = 2.0 * n + reroute + 0.9 * n * (n - 1) + 0.9 * n
    assert exact_expected_cost(tree, model, "unsplit") == pytest.approx(want_unsplit, rel=1e-9)


def test_monte_carlo_reproducible_and_consistent(e4):
    tree, model = e4
    a = monte_carlo_cost(tree, model, "split", samples=5000, master_seed=7)
    b = monte_carlo_cost(tree, model, "split", samples=5000, master_seed=7)
    c = monte_carlo_cost(tree, model, "split", samples=5000, master_seed=8)
    assert a == b
    assert a.mean != c.mean
    assert a.samples == 5000
    assert a.seed == 7
    assert a.stderr > 0.0
    assert a.ci95_low == pytest.approx(a.mean - 1.96 * a.stderr)
    assert a.ci95_high == pytest.approx(a.mean + 1.96 * a.stderr)
    exact = exact_expected_cost(tree, model, "split")
    assert abs(a.mean - exact) <= 4.0 * a.stderr


def test_monte_carlo_zero_variance_when_cost_is_constant(corpus_dir):
    # single customer with demand exactly Q: every run costs 2*d regardless of load
    tree = build_tree([(0, 1, 1.5)], capacity=1)
    model = point_model((1,), capacity=1)
    estimate = monte_carlo_cost(tree, model, "unsplit", samples=100, master_seed=0)
    assert estimate.mean == 3.0
    assert estimate.stderr == 0.0
    # unit demands at Q = 2 cost the same under either start load, so the
    # mean is the exact cost; the walk's prices and the bound arithmetic
    # round to the same float here, bit for bit
    path = corpus_dir / "caterpillar-n5-q2-s112.json"
    tree, model = parse_instance(path.read_text(encoding="utf-8"))
    for policy in POLICIES:
        estimate = monte_carlo_cost(tree, model, policy, samples=200, master_seed=7)
        assert estimate.stderr == 0.0
        assert estimate.mean == exact_expected_cost(tree, model, policy)


def test_monte_carlo_requires_two_samples(e1):
    tree, model = e1
    with pytest.raises(ValidationError, match="^samples: expected an integer >= 2, got 1$"):
        monte_carlo_cost(tree, model, "split", samples=1, master_seed=0)


def test_costs_reject_an_unknown_policy(e1):
    tree, model = e1
    message = r"^policy must be one of \('split', 'unsplit'\), got 'both'$"
    with pytest.raises(ValidationError, match=message):
        exact_expected_cost(tree, model, "both")
    with pytest.raises(ValidationError, match=message):
        monte_carlo_cost(tree, model, "both", samples=64, master_seed=3)


@pytest.mark.parametrize("model, message", [
    # one pmf short: the radial bound used to drop the third customer and
    # the costs died with an IndexError
    (DemandModel(pmfs=(make_pmf([(1, 0.5), (3, 0.5)], 4),) * 2, capacity=4),
     "2 demand pmfs for 3 customers"),
    # a model for Q = 2: Monte Carlo drew loads in 1..2 but restocked to 4
    (DemandModel(pmfs=(make_pmf([(1, 0.5), (2, 0.5)], 2),) * 3, capacity=2),
     "demand model capacity 2 for a tree of capacity 4"),
], ids=["count", "capacity"])
@pytest.mark.parametrize("compute", [
    bertsimas_lb,
    bound_set,
    lambda tree, model: exact_expected_cost(tree, model, "split"),
    lambda tree, model: exact_expected_cost(
        tree, model, "unsplit", bounds=bound_set(tree, point_model((1, 1, 1), 4)),
    ),
    lambda tree, model: monte_carlo_cost(tree, model, "split", samples=8, master_seed=0),
    lambda tree, model: expected_clairvoyant_lb(tree, model, mode="edge"),
    lambda tree, model: expected_clairvoyant_lb(tree, model, mode="partition"),
], ids=["bertsimas_lb", "bound_set", "exact", "exact-given-bounds", "monte_carlo", "edge", "partition"])
def test_a_model_for_another_tree_is_refused(compute, model, message):
    tree = build_tree([(0, 1, 1.0), (1, 2, 1.0), (0, 3, 2.0)], capacity=4)
    with pytest.raises(ValidationError) as info:
        compute(tree, model)
    assert str(info.value) == message


def test_formula_ub_holds_with_declared_tolerance():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 5)
        capacity = rng.randint(1, 4)
        tree = build_tree(random_edges(rng, n), capacity)
        model = random_model(rng, tree)
        bounds = bound_set(tree, model)
        split = exact_expected_cost(tree, model, "split")
        unsplit = exact_expected_cost(tree, model, "unsplit")
        assert split <= bounds.split_ub * (1.0 + UB_REL_TOL)
        assert unsplit <= bounds.unsplit_ub * (1.0 + UB_REL_TOL)
        assert split <= unsplit + 1e-9


def _sharpened_guarantee_suite():
    """Acceptance 05's 200 seeded instances, then 224 generated ones of
    every topology with Q from 1 to 12 and up to 60 customers."""
    rng = random.Random(2024)
    out = []
    for _ in range(200):
        n = rng.randint(1, 5)
        capacity = rng.randint(1, 4)
        tree = build_tree(random_edges(rng, n), capacity)
        out.append((tree, random_model(rng, tree, max_support=3)))
    rng = random.Random(18)
    for k in range(224):
        capacity = k % 12 + 1
        params = GeneratorParams(
            n=rng.randint(1, 60), capacity=capacity, topology=TOPOLOGIES[k % len(TOPOLOGIES)],
            pmf="det:1", seed=k, length_range=(0.1, 3.0),
        )
        tree, _ = generate(params)
        out.append((tree, random_model(rng, tree, max_support=capacity)))
    return out


def test_sharpened_guarantees_hold():
    # E[split] = (1 - 1/Q)*floor + radial and sum_v d(0,v) >= S give
    # split <= (2 - 1/Q)*LB and, for Q >= 2, unsplit <= (3 - 2/Q)*LB;
    # at Q = 1 every demand is 1 and both costs are the radial bound.
    suite = _sharpened_guarantee_suite()
    assert {tree.capacity for tree, _ in suite} == set(range(1, 13))
    assert max(tree.n_customers for tree, _ in suite) > 50
    for tree, model in suite:
        q = tree.capacity
        bounds = bound_set(tree, model)
        split = exact_expected_cost(tree, model, "split")
        unsplit = exact_expected_cost(tree, model, "unsplit")
        assert split <= (2.0 - 1.0 / q) * bounds.combined_lb * (1.0 + 1e-9)
        if q == 1:
            assert math.isclose(split, bounds.bertsimas, rel_tol=1e-12)
            assert math.isclose(unsplit, bounds.bertsimas, rel_tol=1e-12)
        else:
            assert unsplit <= (3.0 - 2.0 / q) * bounds.combined_lb * (1.0 + 1e-9)


@pytest.mark.parametrize("capacity", range(1, 13))
def test_sharpened_split_bound_is_reached(capacity):
    # One customer always demanding Q: every start load but Q runs short.
    tree = build_tree([(0, 1, 1.5)], capacity)
    model = point_model((capacity,), capacity)
    ratio = exact_expected_cost(tree, model, "split") / bound_set(tree, model).combined_lb
    assert math.isclose(ratio, 2.0 - 1.0 / capacity, rel_tol=1e-12)


@pytest.mark.parametrize("capacity", [1, 2, 3, 7, 10])
def test_sharpened_unsplit_bound_is_approached_not_reached(capacity):
    # A star of n unit leaves, each demanding Q: the ratio is
    # 3 - 2/Q - (Q - 1)/(Q*n), below 3 - 2/Q for every n once Q >= 2.
    for n in (1, 2, 3, 5, 10, 50):
        tree = build_tree([(0, v, 1.0) for v in range(1, n + 1)], capacity)
        model = point_model((capacity,) * n, capacity)
        ratio = exact_expected_cost(tree, model, "unsplit") / bound_set(tree, model).combined_lb
        assert math.isclose(ratio, 3.0 - 2.0 / capacity - (capacity - 1) / (capacity * n), rel_tol=1e-12)
        assert ratio < 3.0 - 2.0 / capacity or capacity == 1


@pytest.mark.parametrize("capacity, entries", [
    (100, [(100, 1.0)]), (2, [(1, 0.5), (2, 0.5)]), (10, [(k, 0.1) for k in range(1, 11)]),
])
def test_costs_and_bounds_scale_exactly_with_the_lengths(capacity, entries):
    # Multiplying every length by 2^k multiplies every cost and bound by 2^k
    # bit for bit, up to the length limit, so no step may overflow on the way:
    # at Q = 100 and demand 100 the long tree's d(0, i) * E[D_i] passes the
    # largest float, and its Monte Carlo deviations square past it.
    k = 1018
    pmf = make_pmf(entries, capacity)
    model = DemandModel(pmfs=(pmf, pmf), capacity=capacity)
    short = build_tree([(0, 1, 1.0), (1, 2, 1.0)], capacity)
    long = build_tree([(0, 1, 2.0**k), (1, 2, 2.0**k)], capacity)

    def values(tree):
        out = [*dataclasses.astuple(bound_set(tree, model)), expected_clairvoyant_lb(tree, model)]
        for policy in POLICIES:
            estimate = monte_carlo_cost(tree, model, policy, 20, 5)
            out += [exact_expected_cost(tree, model, policy), estimate.mean, estimate.stderr]
        return out

    assert values(long) == [math.ldexp(x, k) for x in values(short)]
