"""Acceptance gate: ten checks, one test and one summary line each.

Run ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdicts; a summary section at the end of the run repeats them as
``acceptance NN <name>: PASS/FAIL (<tolerance>)`` lines.  Tolerances
are pinned in each test and quoted in the line.
"""

from __future__ import annotations

import csv
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from treevrpsd import (
    Realization,
    bound_set,
    build_tree,
    clairvoyant_edge_lb,
    dfs_order,
    enumerate_joint,
    exact_expected_cost,
    expected_clairvoyant_lb,
    monte_carlo_cost,
    run_split,
    run_unsplit,
    trace_certificate,
)
from treevrpsd.cli import main
from treevrpsd.policy import WalkGeometry

from conftest import load_corpus_instance
from helpers import (
    breakpoint_kinds,
    breakpoint_probability_exact,
    closed_walk_length,
    independent_expected_cost,
    pmf_dicts,
    random_edges,
    random_model,
)

RESULTS: list[str] = []

REL = 1e-9


@contextmanager
def criterion(number: int, name: str, tolerance: str):
    try:
        yield
    except BaseException:
        RESULTS.append(f"acceptance {number:02d} {name}: FAIL ({tolerance})")
        raise
    RESULTS.append(f"acceptance {number:02d} {name}: PASS ({tolerance})")


# -- shared suites, built once ------------------------------------------------

@pytest.fixture(scope="module")
def suite200():
    """200 seeded instances with exact costs and bounds for criteria 4, 5, 7."""
    rng = random.Random(2024)
    out = []
    for _ in range(200):
        n = rng.randint(1, 5)
        capacity = rng.randint(1, 4)
        tree = build_tree(random_edges(rng, n), capacity)
        model = random_model(rng, tree, max_support=3)
        out.append(
            (
                tree,
                model,
                bound_set(tree, model),
                exact_expected_cost(tree, model, "split"),
                exact_expected_cost(tree, model, "unsplit"),
            )
        )
    return out


@pytest.fixture(scope="module")
def coupling_suite():
    """Instances whose joint supports stay under the 1e5 sweep budget."""
    rng = random.Random(77)
    suite = []
    for n, capacity, support in [
        (2, 2, 1),  # fully deterministic demands
        (4, 5, 3),
        (5, 4, 4),
        (6, 3, 2),
        (6, 5, 3),
        (6, 5, 4),  # 4^6 * 5 = 20480 (q, l) pairs, the big one
    ]:
        tree = build_tree(random_edges(rng, n), capacity)
        model = random_model(rng, tree, max_support=support, min_support=support)
        suite.append((tree, model))
    return suite


def test_01_breakpoint_law():
    with criterion(1, "breakpoint-law", "zero tolerance, exact rationals"):
        rng = random.Random(101)
        for _ in range(100):
            n = rng.randint(1, 8)
            capacity = rng.randint(1, 8)
            tree = build_tree(random_edges(rng, n), capacity)
            order = dfs_order(tree)
            demands = tuple(rng.randint(1, capacity) for _ in range(n))
            hits = {v: 0 for v in order}
            for load in range(1, capacity + 1):
                trace = run_split(tree, order, Realization(demands, load))
                for v in breakpoint_kinds(trace):
                    hits[v] += 1
            for position, v in enumerate(order, 1):
                assert Fraction(hits[v], capacity) == Fraction(demands[v - 1], capacity)
                assert breakpoint_probability_exact(
                    [demands[u - 1] for u in order], capacity, position
                ) == Fraction(demands[v - 1], capacity)


def test_02_dfs_walk_identity():
    with criterion(2, "dfs-walk-identity", "1e-9 relative"):
        rng = random.Random(102)
        for _ in range(200):
            n = rng.randint(1, 50)
            tree = build_tree(random_edges(rng, n), capacity=3)
            assert math.isclose(
                closed_walk_length(tree, dfs_order(tree)),
                2.0 * tree.total_edge_length,
                rel_tol=REL,
            )


def test_03_worked_example_exactness():
    with criterion(3, "worked-example-exactness", "1e-9 relative"):
        cases = [
            ("E1", "split", 5.0),
            ("E1", "unsplit", 5.0),
            ("E2", "split", 3.0),
            ("E2", "unsplit", 3.0),
            ("E3", "split", 20.0 / 3.0),
            ("E3", "unsplit", 22.0 / 3.0),
            ("E4", "split", 2.5),
        ]
        for name, policy, want in cases:
            tree, model = load_corpus_instance(name)
            got = exact_expected_cost(tree, model, policy)
            assert got == pytest.approx(want, rel=REL), (name, policy)
            # second, library-free route to the same constant
            edges = [
                (tree.parent[v], v, tree.edge_length[v])
                for v in range(1, tree.vertex_count)
            ]
            redo = independent_expected_cost(
                edges, tree.capacity, pmf_dicts(model), dfs_order(tree), policy
            )
            assert redo == pytest.approx(want, rel=REL), (name, policy)


def test_04_formula_upper_bounds(suite200):
    with criterion(4, "formula-upper-bounds", "1e-9 relative"):
        for tree, model, bounds, split_cost, unsplit_cost in suite200:
            assert split_cost <= (bounds.tour_floor + bounds.bertsimas) * (1 + REL)
            assert unsplit_cost <= (bounds.tour_floor + 2.0 * bounds.bertsimas) * (1 + REL)


def test_05_guarantee_chains(suite200):
    with criterion(5, "guarantee-chains", "zero violations"):
        for tree, model, bounds, split_cost, unsplit_cost in suite200:
            assert bounds.combined_lb > 0.0
            assert split_cost / bounds.combined_lb <= 2.0
            assert unsplit_cost / bounds.combined_lb <= 3.0


def test_06_coupling(coupling_suite):
    with criterion(6, "split-unsplit-coupling", "zero tolerance"):
        for tree, model in coupling_suite:
            order = dfs_order(tree)
            for demands, _ in enumerate_joint(model):
                for load in range(1, tree.capacity + 1):
                    r = Realization(demands, load)
                    s = run_split(tree, order, r)
                    u = run_unsplit(tree, order, r)
                    assert set(breakpoint_kinds(s)) == set(breakpoint_kinds(u))
                    assert s.post_customer_loads == u.post_customer_loads


def test_07_certificate(coupling_suite):
    with criterion(7, "certificate-inequalities", "zero violations"):
        checks = 0
        rng = random.Random(107)
        for tree, model in coupling_suite:
            order = dfs_order(tree)
            combos = list(enumerate_joint(model))
            # exhaustive where small, thinned on the largest sweep
            stride = max(1, len(combos) // 1500)
            for demands, _ in combos[::stride]:
                for load in range(1, tree.capacity + 1):
                    r = Realization(demands, load)
                    for run in (run_split, run_unsplit):
                        trace = run(tree, order, r)
                        assert (
                            trace_certificate(trace, tree)
                            <= trace.total_length + REL * trace.total_length
                        )
                        assert (
                            clairvoyant_edge_lb(tree, demands)
                            <= trace.total_length + REL * trace.total_length
                        )
                        checks += 1
        for _ in range(50):
            n = rng.randint(1, 8)
            capacity = rng.randint(1, 8)
            tree = build_tree(random_edges(rng, n), capacity)
            order = dfs_order(tree)
            demands = tuple(rng.randint(1, capacity) for _ in range(n))
            for load in range(1, capacity + 1):
                for run in (run_split, run_unsplit):
                    trace = run(tree, order, Realization(demands, load))
                    assert trace_certificate(trace, tree) <= trace.total_length * (1 + REL)
                    assert clairvoyant_edge_lb(tree, demands) <= trace.total_length * (1 + REL)
                    checks += 1
        assert checks > 10_000


def test_08_oracle_sandwich():
    with criterion(8, "oracle-sandwich", "1e-9 relative, ratio cap 3"):
        rng = random.Random(108)
        for _ in range(20):
            n = rng.randint(1, 7)
            capacity = rng.randint(1, 4)
            tree = build_tree(random_edges(rng, n), capacity)
            model = random_model(rng, tree, max_support=2)
            edge = expected_clairvoyant_lb(tree, model, mode="edge")
            partition = expected_clairvoyant_lb(tree, model, mode="partition")
            unsplit = exact_expected_cost(tree, model, "unsplit")
            assert edge <= partition * (1 + REL)
            assert partition <= unsplit * (1 + REL)
            assert unsplit <= 3.0 * partition * (1 + REL)


def test_09_monte_carlo_consistency():
    with criterion(9, "monte-carlo-consistency", "4 standard errors, 1e5 samples"):
        names = [
            "E1", "E2", "E3", "E4",
            "path-n3-q2-s101", "star-n3-q2-s104", "caterpillar-n3-q3-s118",
            "random-attachment-n3-q6-s117", "path-n4-q3-s102", "star-n4-q6-s120",
        ]
        for name in names:
            tree, model = load_corpus_instance(name)
            for policy in ("split", "unsplit"):
                exact = exact_expected_cost(tree, model, policy)
                estimate = monte_carlo_cost(
                    tree, model, policy, samples=100_000, master_seed=1109
                )
                assert abs(estimate.mean - exact) <= 4.0 * estimate.stderr + 1e-12, (
                    name,
                    policy,
                    estimate.mean,
                    exact,
                    estimate.stderr,
                )


def test_10_report_reproducibility(tmp_path, corpus_dir, capsys):
    with criterion(10, "report-reproducibility", "byte identical"):
        runs = []
        for tag in ("a", "b"):
            out_csv = tmp_path / f"report-{tag}.csv"
            code = main(
                [
                    "report",
                    "--corpus-dir", str(corpus_dir),
                    "--out-csv", str(out_csv),
                ]
            )
            capsys.readouterr()
            assert code == 0
            runs.append(
                (out_csv.read_bytes(), (tmp_path / f"report-{tag}.plot.csv").read_bytes())
            )
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        rows = list(csv.DictReader(runs[0][0].decode("utf-8").splitlines()))
        assert len(rows) == 48
        assert all(row["ub_respected"] == "true" for row in rows)


def test_walk_geometry_backs_every_suite():
    """Sanity pin: the fast path used above agrees with full traces."""
    rng = random.Random(999)
    for _ in range(30):
        n = rng.randint(1, 6)
        capacity = rng.randint(1, 5)
        tree = build_tree(random_edges(rng, n), capacity)
        order = dfs_order(tree)
        geometry = WalkGeometry(tree, order)
        demands = tuple(rng.randint(1, capacity) for _ in range(n))
        load = rng.randint(1, capacity)
        assert math.isclose(
            geometry.split_cost(demands, load),
            run_split(tree, order, Realization(demands, load)).total_length,
            rel_tol=REL,
        )
        assert math.isclose(
            geometry.unsplit_cost(demands, load),
            run_unsplit(tree, order, Realization(demands, load)).total_length,
            rel_tol=REL,
        )
