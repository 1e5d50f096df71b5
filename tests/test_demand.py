from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treevrpsd import (
    DemandModel,
    DemandPMF,
    GeneratorParams,
    Realization,
    TooLargeError,
    ValidationError,
    make_pmf,
    point_model,
    replication_rng,
    sample_realization,
)
from treevrpsd import demand
from treevrpsd.demand import NORMALIZATION_TOL, enumerate_joint
from treevrpsd.instance_io import parse_pmf_spec

from helpers import expectation, generate, linear_scan_realization


def test_make_pmf_sorts_and_accumulates_duplicates():
    pmf = make_pmf([(3, 0.25), (1, 0.5), (3, 0.25)], capacity=3)
    assert pmf.mass == ((1, 0.5), (3, 0.5))
    assert pmf.max_value() == 3


def test_make_pmf_drops_zero_mass_entries():
    pmf = make_pmf([(1, 1.0), (2, 0.0)], capacity=2)
    assert pmf.mass == ((1, 1.0),)
    assert make_pmf([(0, 0.0), (1, 1.0)], capacity=2).mass == ((1, 1.0),)


def test_make_pmf_validation():
    with pytest.raises(ValidationError, match="^positive probability at demand 0 is not allowed$"):
        make_pmf([(0, 0.5), (1, 0.5)], capacity=2)
    with pytest.raises(ValidationError, match=r"^demand 3 outside 0\.\.2$"):
        make_pmf([(3, 1.0)], capacity=2)
    with pytest.raises(ValidationError, match=r"^demand -1 outside 0\.\.2$"):
        make_pmf([(-1, 1.0)], capacity=2)
    with pytest.raises(ValidationError, match=r"^negative probability -0\.5 at demand 2$"):
        make_pmf([(1, 1.5), (2, -0.5)], capacity=2)
    with pytest.raises(ValidationError, match=r"^pmf mass sums to 0\.9, expected 1 within 1e-12$"):
        make_pmf([(1, 0.9)], capacity=2)
    with pytest.raises(ValidationError, match=r"^pmf mass sums to 1\.000000001, expected 1 within 1e-12$"):
        make_pmf([(1, 0.5), (2, 0.5 + 1e-9)], capacity=2)
    for capacity in (0, True, 2.0):
        with pytest.raises(ValidationError) as info:
            make_pmf([(1, 1.0)], capacity)
        assert str(info.value) == f"capacity: expected an integer >= 1, got {capacity!r}"
    with pytest.raises(ValidationError) as info:
        make_pmf([(1.5, 1.0)], capacity=2)
    assert str(info.value) == "demand value must be an integer, got 1.5"
    for p in (math.inf, math.nan, "0.5"):
        with pytest.raises(ValidationError) as info:
            make_pmf([(1, p)], capacity=2)
        assert str(info.value) == f"probability for demand 1 must be a finite real, got {p!r}"
    for entries, message in [
        ([5], "expected a (value, probability) pair, got 5"),
        (5, "expected (value, probability) pairs, got 5"),
        (None, "expected (value, probability) pairs, got None"),
        ([(1,)], "expected a (value, probability) pair, got (1,)"),
        ([(1, 1.0, 2)], "expected a (value, probability) pair, got (1, 1.0, 2)"),
    ]:
        with pytest.raises(ValidationError) as info:
            make_pmf(entries, capacity=2)
        assert str(info.value) == message
    # tiny float error from dividing by three is within tolerance
    third = 1.0 / 3.0
    pmf = make_pmf([(1, third), (2, third), (3, third)], capacity=3)
    assert len(pmf.mass) == 3


def test_expectation_is_exact_on_dyadic_weights():
    pmf = make_pmf([(1, 0.25), (2, 0.25), (4, 0.5)], capacity=4)
    assert expectation(pmf) == 2.75


def test_mean_is_computed_once_per_pmf():
    pmf = make_pmf([(1, 0.1), (2, 0.2), (7, 0.7)], capacity=7)
    assert pmf.mean == math.fsum(k * p for k, p in pmf.mass)
    assert expectation(pmf) is pmf.mean is pmf.mean
    # a cached value is no field: equality and hashing see only the mass
    fresh = make_pmf([(1, 0.1), (2, 0.2), (7, 0.7)], capacity=7)
    assert fresh == pmf and hash(fresh) == hash(pmf)


def test_demand_model_rejects_support_above_capacity():
    good = make_pmf([(2, 1.0)], capacity=4)
    with pytest.raises(ValidationError, match="^customer 1 pmf supports demand 2 > capacity 1$"):
        DemandModel(pmfs=(good,), capacity=1)
    for capacity in (0, True, 2.0):
        with pytest.raises(ValidationError) as info:
            DemandModel(pmfs=(), capacity=capacity)
        assert str(info.value) == f"capacity: expected an integer >= 1, got {capacity!r}"


def test_demand_model_checks_each_distinct_pmf_once(monkeypatch):
    calls = []
    original = DemandPMF.max_value
    monkeypatch.setattr(DemandPMF, "max_value", lambda pmf: calls.append(pmf) or original(pmf))
    shared, other = make_pmf([(2, 1.0)], capacity=4), make_pmf([(3, 1.0)], capacity=4)
    DemandModel(pmfs=(shared, other) * 500, capacity=4)
    assert calls == [shared, other]
    # the message still names the first customer whose pmf is too wide,
    # also when an equal pmf object comes first
    equal_copy = make_pmf([(3, 1.0)], capacity=4)
    low = make_pmf([(1, 1.0)], capacity=4)
    for pmfs, customer in [((low, other, shared, other), 2), ((low, equal_copy, other), 2)]:
        with pytest.raises(ValidationError) as info:
            DemandModel(pmfs=pmfs, capacity=2)
        assert str(info.value) == f"customer {customer} pmf supports demand 3 > capacity 2"


def test_make_pmf_names_huge_integer_probabilities():
    for p in (10**400, -(10**400)):
        with pytest.raises(ValidationError) as info:
            make_pmf([(1, p)], capacity=2)
        assert str(info.value) == "probability for demand 1 is an integer of 401 digits, too large for a float"


def test_make_pmf_names_huge_integer_demands_by_size():
    huge = "<an integer of 401 digits, too large for a float>"
    with pytest.raises(ValidationError) as info:
        make_pmf([(10**400, 1.0)], capacity=2)
    assert str(info.value) == f"demand {huge} outside 0..2"
    with pytest.raises(ValidationError) as info:
        make_pmf([(10**400 + 1, 1.0)], capacity=10**400)
    assert str(info.value) == "capacity: an integer of 401 digits, too large for a float"
    with pytest.raises(ValidationError) as info:
        make_pmf([(10**400, -0.5)], capacity=2)
    assert str(info.value) == f"negative probability -0.5 at demand {huge}"


def test_point_model():
    model = point_model((2, 1), capacity=3)
    assert model.n_customers == 2
    assert [pmf.mass for pmf in model.pmfs] == [((2, 1.0),), ((1, 1.0),)]


def test_sample_realization_stays_in_support_and_load_range():
    rng = random.Random(5)
    model = DemandModel(
        pmfs=(
            make_pmf([(1, 0.5), (3, 0.5)], capacity=4),
            make_pmf([(2, 1.0)], capacity=4),
        ),
        capacity=4,
    )
    for _ in range(500):
        r = sample_realization(model, rng)
        assert r.demands[0] in (1, 3)
        assert r.demands[1] == 2
        assert 1 <= r.initial_load <= 4


def test_sample_realization_frequencies_match_weights():
    rng = random.Random(99)
    model = DemandModel(pmfs=(make_pmf([(1, 0.75), (2, 0.25)], capacity=2),), capacity=2)
    counts = Counter(sample_realization(model, rng).demands[0] for _ in range(20_000))
    assert abs(counts[1] / 20_000 - 0.75) < 0.02
    loads = Counter(sample_realization(model, rng).initial_load for _ in range(20_000))
    assert abs(loads[1] / 20_000 - 0.5) < 0.02


class ScriptedRng:
    """Stands in for ``random.Random`` with chosen uniforms."""

    def __init__(self, uniforms):
        self.uniforms = iter(uniforms)

    def random(self):
        return next(self.uniforms)

    def randrange(self, start, stop):
        return start


def test_sampler_matches_linear_scan_oracle():
    capacity = 10
    pmfs = [
        parse_pmf_spec(spec, capacity)
        for spec in ("det:4", "unif:1-10", "unif:3-5", "two:2,0.3,9", "two:1,0.999,10")
    ]
    # running sum ends just below 1.0, and a mass too small to move the sum
    short = make_pmf([(1, 0.5), (2, 0.5 - NORMALIZATION_TOL / 2)], capacity)
    flat = make_pmf([(1, 0.5), (2, 1e-17), (3, 0.5)], capacity)
    pmfs += [short, flat]
    model = DemandModel(pmfs=tuple(pmfs), capacity=capacity)
    for seed in (0, 1, 99):
        for r in range(200):
            assert sample_realization(model, replication_rng(seed, r)) == (
                linear_scan_realization(model, replication_rng(seed, r))
            )
    # the u ~ 1.0 guard and the exact running sums, uniform by uniform
    for pmf in pmfs:
        single = DemandModel(pmfs=(pmf,), capacity=capacity)
        sums = list(itertools.accumulate(p for _, p in pmf.mass))
        uniforms = [0.0, math.nextafter(1.0, 0.0), 1.0 - NORMALIZATION_TOL / 4]
        uniforms += sums + [math.nextafter(s, 0.0) for s in sums]
        for u in uniforms:
            got = sample_realization(single, ScriptedRng([u]))
            assert got == linear_scan_realization(single, ScriptedRng([u])), (pmf, u)
    short_only = DemandModel(pmfs=(short,), capacity=capacity)
    assert sample_realization(short_only, ScriptedRng([1.0 - NORMALIZATION_TOL / 4])).demands == (2,)


def test_replication_rng_is_reproducible_and_streams_are_distinct():
    a = [replication_rng(42, 7).random() for _ in range(5)]
    b = [replication_rng(42, 7).random() for _ in range(5)]
    c = [replication_rng(42, 8).random() for _ in range(5)]
    d = [replication_rng(43, 7).random() for _ in range(5)]
    assert a == b
    assert a != c
    assert a != d


def test_enumerate_joint_weights_sum_to_one():
    model = DemandModel(
        pmfs=(
            make_pmf([(1, 0.5), (2, 0.5)], capacity=3),
            make_pmf([(1, 0.25), (2, 0.25), (3, 0.5)], capacity=3),
        ),
        capacity=3,
    )
    combos = list(enumerate_joint(model))
    assert len(combos) == 6
    assert math.isclose(math.fsum(p for _, p in combos), 1.0, rel_tol=0, abs_tol=1e-12)
    assert ((2, 3), 0.25) in combos


def test_enumerate_joint_raises_eagerly_over_limit(monkeypatch):
    two = make_pmf([(1, 0.5), (2, 0.5)], capacity=2)
    model = DemandModel(pmfs=(two, two, two), capacity=2)
    # 2^3 = 8 joint vectors; the call itself must raise, before the first item is drawn
    monkeypatch.setattr(demand, "ENUM_LIMIT", 4)
    with pytest.raises(TooLargeError):
        enumerate_joint(model)
    monkeypatch.setattr(demand, "ENUM_LIMIT", 8)
    assert len(list(enumerate_joint(model))) == 8


def test_enumerate_joint_over_limit_message_is_bounded():
    _, model = generate(
        GeneratorParams(n=1000, capacity=10, topology="random-attachment", pmf="unif:1-10", seed=0)
    )
    with pytest.raises(TooLargeError) as info:
        enumerate_joint(model)
    assert len(str(info.value)) < 200
    assert "about 10^1000 vectors" in str(info.value)


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=False),
    capacity=st.integers(1, 8),
)
def test_pmf_round_trip_expectation_bounds(weights, capacity):
    values = list(range(1, min(len(weights), capacity) + 1))
    total = sum(weights[: len(values)])
    entries = [(v, w / total) for v, w in zip(values, weights)]
    pmf = make_pmf(entries, capacity)
    mean = expectation(pmf)
    assert min(values) - 1e-12 <= mean <= max(values) + 1e-12
