from __future__ import annotations

import math
import random
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treevrpsd import (
    GeneratorParams,
    ValidationError,
    build_tree,
    check_preorder,
    dfs_order,
    generate_document,
    parse_document,
    path_distance,
)
from treevrpsd.instance_io import TOPOLOGIES

from helpers import (
    brute_distances,
    closed_walk_length,
    depth_path_distance,
    itemwise_build_tree,
    outcome,
    random_edges,
    shuffled_preorder,
    stack_walk_preorder,
    vertex_depths,
)

PATH3 = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)]


def test_build_tree_basic_fields():
    tree = build_tree(PATH3, capacity=4)
    assert tree.vertex_count == 4
    assert tree.n_customers == 3
    assert tree.parent == (-1, 0, 1, 2)
    assert tree.edge_length[1:] == (1.0, 2.0, 0.5)
    assert tree.depot_dist == (0.0, 1.0, 3.0, 3.5)
    assert vertex_depths(tree) == (0, 1, 2, 3)
    assert tree.total_edge_length == 3.5
    assert tree.preorder == (1, 2, 3)


def test_build_tree_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="^capacity: expected an integer >= 1, got 0$"):
        build_tree(PATH3, capacity=0)
    with pytest.raises(ValidationError, match="^capacity: expected an integer >= 1, got True$"):
        build_tree(PATH3, capacity=True)
    for length in (0.0, math.nan, -1.0):
        with pytest.raises(ValidationError) as info:
            build_tree([(0, 1, length)], capacity=2)
        assert str(info.value) == f"edge (0, 1) length: expected a positive finite number, got {length!r}"
    # child indices must be dense 1..n
    with pytest.raises(ValidationError) as info:
        build_tree([(0, 2, 1.0)], capacity=2)
    assert str(info.value) == "edge (0, 2) names a vertex outside 0..1; vertices must be dense"
    with pytest.raises(ValidationError, match="^vertex 1 appears as a child more than once$"):
        build_tree([(0, 1, 1.0), (0, 1, 1.0)], capacity=2)
    with pytest.raises(ValidationError, match="^parent pointers contain a cycle$"):
        build_tree([(2, 1, 1.0), (1, 2, 1.0)], capacity=2)
    with pytest.raises(ValidationError, match="^parent pointers contain a cycle$"):
        build_tree([(0, 1, 1.0), (3, 2, 1.0), (2, 3, 1.0)], capacity=2)
    with pytest.raises(ValidationError, match=r"^the depot \(vertex 0\) cannot appear as a child$"):
        build_tree([(1, 0, 1.0)], capacity=2)


class Vertex(IntEnum):
    ONE = 1
    TWO = 2


class Length(float):
    pass


def test_build_tree_matches_itemwise_oracle():
    cases = [
        [(0, 1, 2), (1, 2, 3)],  # int lengths are stored as floats
        [(0, Vertex.ONE, 1.0), (Vertex.ONE, Vertex.TWO, 1.5)],
        [(0, 2, Length(1.0)), (0, 1, 2.0)],
        [(0, 1, True)], [(False, 1, 1.0)], [(0, True, 1.0)], [(0, 1.0, 1.0)],
        [("0", 1, 1.0)], [(None, 1, 1.0)], [(0, 1, "1.0")], [(0, 1, None)],
        [(0, 1, 1.0), (1, 1, 1.0)], [(0, 2, 1.0), (2, 1, 1.0), (1, 2, 1.0)],
        [(1, 1, 1.0)], [(0, 0, 1.0)], [(3, 1, 1.0)], [(-1, 1, 1.0)],
    ]
    cases += [[(0, 1, length)] for length in (math.nan, math.inf, -math.inf, -0.0, 0.0, 0, -1, 1e-300)]
    rng = random.Random(15)
    for _ in range(200):
        edges = random_edges(rng, rng.randint(0, 30))
        rng.shuffle(edges)
        cases.append(edges)
    for edges in cases:
        want = outcome(itemwise_build_tree, edges, 2)
        assert outcome(build_tree, edges, 2) == want, edges
        assert outcome(build_tree, iter(edges), 2) == want, edges
    tree = build_tree((e for e in [(0, 1, 2), (1, 2, 3)]), capacity=2)
    assert tree.edge_length == (0.0, 2.0, 3.0)
    assert all(type(x) is float for x in tree.edge_length + tree.depot_dist)


def test_build_tree_names_huge_integer_lengths():
    for length in (10**400, -(10**400)):
        with pytest.raises(ValidationError) as info:
            build_tree([(0, 1, 1.0), (1, 2, length)], capacity=2)
        assert str(info.value) == (
            "edge (1, 2) length: expected a positive finite number, "
            "got <an integer of 401 digits, too large for a float>"
        )


def test_build_tree_names_huge_integers_by_size():
    with pytest.raises(ValidationError) as info:
        build_tree([(0, 1, 1.0)], capacity=10**400)
    assert str(info.value) == "capacity: an integer of 401 digits, too large for a float"
    with pytest.raises(ValidationError) as info:
        build_tree([(0, 1, 1.0), (1, -(10**400), 1.0)], capacity=2)
    assert str(info.value) == (
        "edge (1, <an integer of 401 digits, too large for a float>) names a vertex "
        "outside 0..2; vertices must be dense"
    )


def test_build_tree_refuses_lengths_whose_costs_could_overflow():
    # 4(n + 1)*S must stay a float: the sum of two lengths of 1e308 is not
    # one, and one length of 1e308 puts 2S past the largest float.
    for edges in ([(0, 1, 1e308), (1, 2, 1e308)], [(0, 1, 1e308)]):
        n = len(edges)
        with pytest.raises(ValidationError) as info:
            build_tree(edges, capacity=2)
        assert str(info.value) == (
            f"edge lengths sum past {sys.float_info.max / (4 * (n + 1))!r}: at n = {n} a walk "
            "can cost up to (2 + 4n) times the sum, which must stay a finite float"
        )
    # at the limit a tree still builds, one ulp per edge above it does not
    half = sys.float_info.max / 24
    assert build_tree([(0, 1, half), (1, 2, half)], capacity=2).total_edge_length == 2 * half
    over = math.nextafter(half, math.inf)
    with pytest.raises(ValidationError, match="^edge lengths sum past "):
        build_tree([(0, 1, over), (1, 2, over)], capacity=2)


def test_empty_tree_is_allowed():
    tree = build_tree([], capacity=3)
    assert tree.n_customers == 0
    assert dfs_order(tree) == ()
    assert closed_walk_length(tree, ()) == 0.0


def test_distances_against_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 20)
        edges = random_edges(rng, n)
        tree = build_tree(edges, capacity=3)
        dist = brute_distances(edges, n + 1)
        for i in range(n + 1):
            assert math.isclose(tree.depot_dist[i], dist[0][i], rel_tol=1e-12)
            for j in range(n + 1):
                assert math.isclose(
                    path_distance(tree, i, j), dist[i][j], rel_tol=1e-9, abs_tol=1e-12
                )


def test_path_distance_equals_depth_meeting_vertex_formula():
    # Bit for bit: the marking climbs and the depth walk find one meeting vertex.
    rng = random.Random(12)
    trees = [build_tree(random_edges(rng, rng.randint(2, 15)), capacity=2) for _ in range(30)]
    # 1e20 + 1.0 rounds to 1e20: vertex 2 lies as far from the depot as its
    # parent, so a meeting vertex found by comparing distances could be off.
    trees.append(build_tree([(0, 1, 1e20), (1, 2, 1.0), (0, 3, 1.0)], capacity=2))
    assert trees[-1].depot_dist[2] == trees[-1].depot_dist[1]
    for tree in trees:
        depth = vertex_depths(tree)
        for i in range(tree.vertex_count):
            for j in range(tree.vertex_count):
                assert path_distance(tree, i, j) == depth_path_distance(tree, depth, i, j)


def test_unknown_vertex_queries_raise():
    tree = build_tree(PATH3, capacity=2)
    with pytest.raises(ValidationError, match=r"^vertex: expected an integer in 0\.\.3, got 4$"):
        path_distance(tree, 4, 0)
    with pytest.raises(ValidationError, match=r"^vertex: expected an integer in 0\.\.3, got -1$"):
        path_distance(tree, -1, 0)
    with pytest.raises(ValidationError, match=r"^vertex: expected an integer in 0\.\.3, got 99$"):
        path_distance(tree, 0, 99)


def test_dfs_order_prefers_lower_numbered_children():
    tree = build_tree([(0, 2, 1.0), (0, 1, 1.0), (1, 3, 1.0)], capacity=2)
    assert dfs_order(tree) == (1, 3, 2)


def test_preorder_matches_the_stack_walk_oracle(corpus_dir):
    rng = random.Random(16)
    edge_lists = [
        parse_document(path.read_text(encoding="utf-8")).edges for path in sorted(corpus_dir.glob("*.json"))
    ]
    for k in range(80):
        params = GeneratorParams(
            n=rng.randint(0, 40), capacity=3, topology=TOPOLOGIES[k % len(TOPOLOGIES)],
            pmf="det:1", seed=k, length_range=(0.5, 2.0),
        )
        edge_lists.append(generate_document(params).edges)
    for edges in edge_lists:
        edges = list(edges)
        rng.shuffle(edges)  # the order of the edge list does not matter
        tree = build_tree(edges, capacity=3)
        assert tree.preorder == stack_walk_preorder(tree.parent), edges
        assert dfs_order(tree) is tree.preorder


def test_dfs_order_is_a_preorder_and_walks_twice_total_length():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 30)
        tree = build_tree(random_edges(rng, n), capacity=2)
        order = dfs_order(tree)
        check_preorder(tree, order)
        check_preorder(tree, list(order))  # equal to the stored order, not it
        assert math.isclose(
            closed_walk_length(tree, order), 2.0 * tree.total_edge_length, rel_tol=1e-9
        )


def test_any_preorder_closed_walk_is_twice_total_length():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(2, 20)
        tree = build_tree(random_edges(rng, n), capacity=2)
        order = shuffled_preorder(tree, rng)
        check_preorder(tree, order)
        assert math.isclose(
            closed_walk_length(tree, order), 2.0 * tree.total_edge_length, rel_tol=1e-9
        )


def test_check_preorder_rejects_bad_orders():
    tree = build_tree([(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0)], capacity=2)
    outside = "appears outside its parent's open subtree"
    for order, message in [
        ((1, 2), "not a permutation of 1..3: vertex 3 is missing (2 entries)"),
        ((1, 1, 2), "not a permutation of 1..3: vertex 1 at position 1 is outside 1..3 or repeated"),
        # child before its parent
        ((2, 1, 3), f"not a preorder of this tree: vertex 2 at position 0 (n=3) {outside}"),
        # leaves subtree of 1, then re-enters
        ((1, 3, 2), f"not a preorder of this tree: vertex 2 at position 2 (n=3) {outside}"),
        # depot may not appear
        ((0, 1, 2, 3), "not a permutation of 1..3: vertex 0 at position 0 is outside 1..3 or repeated"),
    ]:
        with pytest.raises(ValidationError) as info:
            check_preorder(tree, order)
        assert str(info.value) == f"order is {message}"


def test_order_errors_stay_short_at_scale():
    # a message names one offending vertex, its position and n, never the order
    n = 100_000
    tree = build_tree([(v - 1, v, 1.0) for v in range(1, n + 1)], capacity=2)
    for order, fragment in [
        (tuple(range(n, 0, -1)), f"vertex {n} at position 0 (n={n})"),
        ((1, 1, *range(3, n + 1)), "vertex 1 at position 1"),
        (tuple(range(1, n)), f"vertex {n} is missing"),
    ]:
        with pytest.raises(ValidationError) as info:
            check_preorder(tree, order)
        assert fragment in str(info.value)
        assert len(str(info.value)) < 200


def test_closed_walk_length_rejects_non_preorders():
    tree = build_tree([(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0)], capacity=2)
    with pytest.raises(ValidationError, match="^order is not a preorder of this tree: vertex 2 at position 0 "):
        closed_walk_length(tree, (2, 1, 3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_no_visiting_permutation_beats_twice_total_length(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = rng.randint(1, 12)
    edges = random_edges(rng, n)
    tree = build_tree(edges, capacity=2)
    dist = brute_distances(edges, n + 1)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    stops = [0, *perm, 0]
    walk = math.fsum(dist[a][b] for a, b in zip(stops, stops[1:]))
    # any closed walk through all customers covers every edge at least twice
    assert walk >= 2.0 * tree.total_edge_length - 1e-9
