from __future__ import annotations

import json

import pytest

from treevrpsd import (
    DemandModel,
    GeneratorParams,
    Realization,
    ValidationError,
    build_tree,
    clairvoyant_edge_lb,
    dfs_order,
    expected_clairvoyant_lb,
    generate_document,
    make_pmf,
    monte_carlo_cost,
    optimal_unsplit_partition,
    parse_document,
    path_distance,
    point_model,
    run_split,
)
from treevrpsd.errors import check_int, describe_int

TREE = build_tree([(0, 1, 1.0), (1, 2, 1.0)], capacity=2)
MODEL = point_model((1, 1), 2)
LONG = "x" * 100_000


def _document(capacity) -> str:
    return json.dumps({"name": "x", "capacity": capacity, "edges": [], "demands": []})


def _params(**fields) -> GeneratorParams:
    return GeneratorParams(**{"n": 2, "capacity": 2, "topology": "path", "pmf": "det:1", "seed": 0, **fields})


# Each converted entry point: a call that passes it one value, the message
# prefix its check words, and its value below the range (None when it has
# no range).  JSON has no integer of 5000 digits, so the document skips
# that case, and the seed too, since any integer seeds the generator.
SITES = {
    "build_tree": (lambda x: build_tree([(0, 1, 1.0)], x), "capacity: expected an integer >= 1", 0),
    "make_pmf": (lambda x: make_pmf([(1, 1.0)], x), "capacity: expected an integer >= 1", 0),
    "DemandModel": (lambda x: DemandModel((), x), "capacity: expected an integer >= 1", 0),
    "parse_document": (lambda x: parse_document(_document(x)), "capacity: expected an integer >= 1", 0),
    "generate_document.capacity": (
        lambda x: generate_document(_params(capacity=x)), "capacity: expected an integer >= 1", 0,
    ),
    "generate_document.n": (lambda x: generate_document(_params(n=x)), "n: expected an integer >= 0", -1),
    "generate_document.seed": (lambda x: generate_document(_params(seed=x)), "seed: expected an integer", None),
    "monte_carlo_cost": (
        lambda x: monte_carlo_cost(TREE, MODEL, "split", x, 0), "samples: expected an integer >= 2", 1,
    ),
    "path_distance": (lambda x: path_distance(TREE, x, 0), "vertex: expected an integer in 0..2", -1),
    "run_split.load": (
        lambda x: run_split(TREE, dfs_order(TREE), Realization((1, 1), x)),
        "initial load: expected an integer in 1..2", 0,
    ),
    "run_split.demands": (
        lambda x: run_split(TREE, dfs_order(TREE), Realization((1, x), 1)),
        "demand of customer 2: expected an integer in 1..2", 0,
    ),
    "clairvoyant_edge_lb": (
        lambda x: clairvoyant_edge_lb(TREE, (1, x)), "demand of customer 2: expected an integer >= 0", -1,
    ),
    "optimal_unsplit_partition": (
        lambda x: optimal_unsplit_partition(TREE, (1, x)), "demand of customer 2: expected an integer in 1..2", 0,
    ),
}

# (name, value, how the message shows it) beside the value below the range
BAD = [
    ("bool", True, "True"),
    ("float", 2.5, "2.5"),
    ("str", "3", "'3'"),
    ("huge", -(10**5000), "<an integer of 5001 digits, too large for a float>"),
    ("long", LONG, "'xxxxxxxxxxxxxxxxxxxx' ... (100000 characters)"),
]
CASES = [
    pytest.param(site, value, shown, id=f"{site}-{name}")
    for site, (_, _, below) in SITES.items()
    for name, value, shown in [("below", below, str(below))][below is None:] + BAD
    if (site, name) not in {("parse_document", "huge"), ("generate_document.seed", "huge")}
]


@pytest.mark.parametrize("site, value, shown", CASES)
def test_every_integer_input_is_refused_in_one_family_and_bounded_length(site, value, shown):
    call, prefix, _ = SITES[site]
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value) == f"{prefix}, got {shown}"
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("call", [
    lambda q: build_tree([(0, 1, 1.0)], q),
    lambda q: make_pmf([(1, 1.0)], q),
    lambda q: DemandModel((), q),
    lambda q: generate_document(_params(capacity=q)),
    lambda q: parse_document(_document(q)),
], ids=["build_tree", "make_pmf", "DemandModel", "generate_document", "parse_document"])
def test_a_capacity_too_large_for_a_float_is_refused_everywhere(call):
    with pytest.raises(ValidationError) as info:
        call(2**1100)
    assert str(info.value) == "capacity: an integer of 332 digits, too large for a float"


def test_check_int_words_each_range_and_returns_the_value():
    assert check_int(7, "k") == check_int(7, "k", 7) == check_int(7, "k", 0, 7) == 7
    for args, message in [
        ((7.0, "k"), "k: expected an integer, got 7.0"),
        ((7, "k", 8), "k: expected an integer >= 8, got 7"),
        ((7, "k", 0, 6), "k: expected an integer in 0..6, got 7"),
    ]:
        with pytest.raises(ValidationError) as info:
            check_int(*args)
        assert str(info.value) == message


def test_describe_int_bounds_any_value():
    assert describe_int(-12) == "-12"
    assert describe_int(10**400) == "<an integer of 401 digits, too large for a float>"
    assert describe_int("a" * 20) == repr("a" * 20)
    assert describe_int("a" * 21) == f"{'a' * 20!r} ... (21 characters)"
    assert describe_int([0] * 100_000) == "[0, 0, 0, 0, 0, 0, 0 ... (300000 characters)"


@pytest.mark.parametrize("call, message", [
    (lambda: monte_carlo_cost(TREE, MODEL, LONG, 2, 0),
     f"policy must be one of ('split', 'unsplit'), got {describe_int(LONG)}"),
    (lambda: expected_clairvoyant_lb(TREE, MODEL, mode=LONG),
     f"mode must be 'edge' or 'partition', got {describe_int(LONG)}"),
    (lambda: generate_document(_params(length_range=(LONG, 1.0))),
     "length_range must hold two reals, got ('xxxxxxxxxxxxxxxxxx ... (100009 characters)"),
    # compared exactly, not through a float: no OverflowError escapes
    (lambda: generate_document(_params(length_range=(1, 10**400))),
     "length_range must satisfy 0 < low <= high, got (1, 1000000000000000 ... (406 characters)"),
], ids=["policy", "mode", "length_range-type", "length_range-huge"])
def test_other_rejected_values_are_named_in_bounded_length(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
