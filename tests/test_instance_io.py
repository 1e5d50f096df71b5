from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import math
import random
import sys
from pathlib import Path

import pytest

from treevrpsd import (
    BadParamsError,
    CycleOrForestError,
    DemandModel,
    GeneratorParams,
    InstanceSyntaxError,
    NotNormalizedError,
    OutOfRangeError,
    SchemaError,
    build_tree,
    generate,
    generate_document,
    make_pmf,
    parse_document,
    parse_instance,
    parse_pmf_spec,
    point_model,
    serialize_document,
    serialize_instance,
    write_corpus,
)
from treevrpsd.instance_io import (
    GENERATED_PARAMS,
    TOPOLOGIES,
    WORKED_PARAMS,
    corpus_documents,
    default_name,
    document_from_instance,
    document_to_instance,
)

from helpers import itemwise_build_tree, itemwise_parse_document, json_dumps_serialize, outcome

E1_TEXT = """
{
  "name": "E1",
  "capacity": 2,
  "edges": [[0, 1, 1.0], [1, 2, 1.0]],
  "demands": [
    {"node": 1, "pmf": {"1": 1.0}},
    {"node": 2, "pmf": {"1": 1.0}}
  ]
}
"""


def test_parse_e1_document():
    tree, model = parse_instance(E1_TEXT)
    assert tree.n_customers == 2
    assert tree.capacity == 2
    assert tree.depot_dist == (0.0, 1.0, 2.0)
    assert [pmf.mass for pmf in model.pmfs] == [((1, 1.0),), ((1, 1.0),)]


def test_serialize_then_parse_round_trips():
    tree, model = parse_instance(E1_TEXT)
    text = serialize_instance(tree, model, "E1")
    doc = parse_document(text)
    assert doc == document_from_instance(tree, model, "E1")
    tree2, model2 = document_to_instance(doc)
    assert tree2 == tree
    assert model2 == model
    # canonical text is a fixed point
    assert serialize_document(doc) == text
    # E1 has two customers and capacity 2
    for other in (point_model((1,), 2), point_model((1, 1), 3)):
        with pytest.raises(BadParamsError) as info:
            document_from_instance(tree, other, "x")
        assert str(info.value) == "tree and demand model disagree on customers or capacity"


def test_serialize_orders_edges_and_pmf_keys():
    doc = parse_document(E1_TEXT)
    shuffled = doc.__class__(
        name=doc.name,
        capacity=doc.capacity,
        edges=tuple(reversed(doc.edges)),
        demands=tuple(reversed(doc.demands)),
    )
    assert serialize_document(shuffled) == serialize_document(doc)
    raw = json.loads(serialize_document(doc))
    assert [e[1] for e in raw["edges"]] == [1, 2]
    assert list(raw.keys()) == ["name", "capacity", "edges", "demands"]


def test_parse_rejects_bad_json_and_schema():
    with pytest.raises(InstanceSyntaxError):
        parse_document("{not json")
    with pytest.raises(SchemaError):
        parse_document("[1, 2]")
    with pytest.raises(SchemaError):
        parse_document('{"name": "x", "capacity": 2, "edges": []}')  # demands missing
    with pytest.raises(SchemaError):
        parse_document(
            '{"name": "x", "capacity": 2, "edges": [], "demands": [], "extra": 1}'
        )
    with pytest.raises(SchemaError):
        parse_document('{"name": 7, "capacity": 2, "edges": [], "demands": []}')
    with pytest.raises(SchemaError):
        parse_document('{"name": "x", "capacity": true, "edges": [], "demands": []}')
    with pytest.raises(SchemaError):
        parse_document(
            '{"name": "x", "capacity": 2, "edges": [[0, 1]], "demands": []}'
        )
    with pytest.raises(SchemaError):
        parse_document(
            '{"name": "x", "capacity": 2, "edges": [], "demands": [{"node": 1}]}'
        )
    with pytest.raises(SchemaError):
        parse_document(
            '{"name": "x", "capacity": 2, "edges": [], '
            '"demands": [{"node": 1, "pmf": {"one": 1.0}}]}'
        )
    for key in ("edges", "demands"):
        raw = {"name": "x", "capacity": 2, "edges": [], "demands": []}
        raw[key] = {}
        with pytest.raises(SchemaError) as info:
            parse_document(json.dumps(raw))
        assert str(info.value) == f"{key}: expected an array"


def test_parse_rejects_demand_node_mismatch():
    with pytest.raises(SchemaError):
        parse_instance(
            '{"name": "x", "capacity": 2, "edges": [[0, 1, 1.0]], "demands": []}'
        )
    with pytest.raises(SchemaError):
        parse_instance(
            '{"name": "x", "capacity": 2, "edges": [[0, 1, 1.0]], '
            '"demands": [{"node": 2, "pmf": {"1": 1.0}}]}'
        )


def test_semantic_errors_carry_field_context():
    with pytest.raises(NotNormalizedError) as info:
        parse_instance(
            '{"name": "x", "capacity": 2, "edges": [[0, 1, 1.0]], '
            '"demands": [{"node": 1, "pmf": {"1": 0.9}}]}'
        )
    assert "node 1" in str(info.value)
    with pytest.raises(CycleOrForestError) as info:
        parse_instance('{"name": "x", "capacity": 2, "edges": [[1, 0, 1.0]], "demands": []}')
    assert str(info.value).startswith("edges:")


def test_demand_node_errors_stay_short_at_scale():
    n = 10_000
    doc = generate_document(GeneratorParams(n=n, capacity=3, topology="path", pmf="unif:1-3", seed=1))
    missing = dataclasses.replace(doc, demands=doc.demands[:500] + doc.demands[501:])
    with pytest.raises(SchemaError) as info:
        document_to_instance(missing)
    assert f"1..{n}" in str(info.value) and "node 501 is missing" in str(info.value)
    assert len(str(info.value)) < 200


def test_identical_pmfs_are_built_once():
    doc = generate_document(GeneratorParams(n=6, capacity=3, topology="star", pmf="unif:1-3", seed=2))
    # parsing gives every customer its own, equal, entries tuple
    parsed = parse_document(serialize_document(doc))
    _, model = document_to_instance(parsed)
    assert all(pmf is model.pmfs[0] for pmf in model.pmfs)
    # a bad pmf after shared good ones still names its own entry
    bad = dataclasses.replace(
        parsed, demands=parsed.demands[:2] + ((3, ((1, 0.5),)),) + parsed.demands[3:]
    )
    with pytest.raises(NotNormalizedError) as info:
        document_to_instance(bad)
    assert str(info.value).startswith("demands[2] (node 3): ")


def test_serializer_matches_json_dumps_oracle():
    docs = corpus_documents()
    for topology in TOPOLOGIES:
        for n in (0, 1, 2000):
            docs.append(generate_document(GeneratorParams(
                n=n, capacity=10, topology=topology, pmf="unif:1-10", seed=n,
                length_range=(0.5, 2.0),
            )))
    docs.append(dataclasses.replace(docs[0], name='say "hi" \\ caf\u00e9 \u2603'))
    # json.loads accepts the non-finite spellings; the writer must keep them
    docs.append(parse_document(
        '{"name": "odd", "capacity": 3, '
        '"edges": [[0, 1, NaN], [1, 2, Infinity], [0, 3, -Infinity]], '
        '"demands": [{"node": 1, "pmf": {"1": NaN}}, '
        '{"node": 2, "pmf": {"2": Infinity, "1": -0.0}}, '
        '{"node": 3, "pmf": {"1": 1, "2": 0.0}}]}'
    ))
    for doc in docs:
        assert serialize_document(doc) == json_dumps_serialize(doc), doc.name


def _demands_document(*pmfs: str) -> str:
    listings = ", ".join(
        f'{{"node": {node}, "pmf": {pmf}}}' for node, pmf in enumerate(pmfs, 1)
    )
    return f'{{"name": "x", "capacity": 3, "edges": [], "demands": [{listings}]}}'


def test_parse_memo_keeps_value_types_apart():
    with pytest.raises(SchemaError) as info:
        parse_document(_demands_document('{"1": 1}', '{"1": true}'))
    assert str(info.value).startswith("demands[1].pmf")


def test_parse_memo_raises_at_first_bad_listing():
    good, bad = '{"1": 1.0}', '{"x": 1.0}'
    with pytest.raises(SchemaError) as info:
        parse_document(_demands_document(good, bad, good, bad))
    assert str(info.value) == "demands[1].pmf: key 'x' is not an integer"
    # a listing that cannot be hashed gets the full check and its message
    with pytest.raises(SchemaError) as info:
        parse_document(_demands_document(good, '{"1": [1.0]}'))
    assert str(info.value).startswith("demands[1].pmf['1']: expected a number")


def test_parse_memo_keeps_distinct_pmfs_distinct():
    doc = parse_document(_demands_document(
        '{"1": 0.5, "2": 0.5}', '{"2": 0.5, "1": 0.5}', '{"1": 0.25, "2": 0.75}',
        '{"1": 1}', '{"1": 1.0}', '{"1": 0.0, "2": 1.0}', '{"1": -0.0, "2": 1.0}',
    ))
    entries = [e for _, e in doc.demands]
    assert entries[:5] == [
        ((1, 0.5), (2, 0.5)), ((1, 0.5), (2, 0.5)), ((1, 0.25), (2, 0.75)),
        ((1, 1.0),), ((1, 1.0),),
    ]
    # the sign of a zero survives, as json.loads read it
    assert [str(e[0][1]) for e in entries[5:]] == ["0.0", "-0.0"]


def test_parse_memo_gives_equal_listings_equal_entries():
    doc = parse_document(_demands_document(*['{"3": 0.5, "1": 0.5}'] * 3))
    assert [e for _, e in doc.demands] == [((1, 0.5), (3, 0.5))] * 3


def _descendants(edges: list, v: int) -> list[int]:
    """Vertices whose parent chain reaches ``v`` (``v`` included)."""
    parent = {c: p for p, c, _ in edges}
    below = []
    for u in parent:
        w = u
        for _ in range(len(parent)):  # an earlier mutation may have made a cycle
            if w == v or w not in parent:
                break
            w = parent[w]
        if w == v:
            below.append(u)
    return below


def _mutate(raw: dict, rng: random.Random) -> None:
    """Apply one seeded defect (or a valid variation) to a raw document."""
    edges, demands = raw["edges"], raw["demands"]
    n = len(edges)
    kind = rng.randrange(12)
    if kind == 0:  # a bool, float or other non-int where a vertex belongs
        rng.choice(edges)[rng.randrange(2)] = rng.choice([True, False, 1.0, 2.5, "1", None])
    elif kind == 1:  # an out-of-range or depot vertex
        rng.choice(edges)[rng.randrange(2)] = rng.choice([n + 1, n + 50, -1, 0])
    elif kind == 2:  # a bad, odd or valid-but-int length
        rng.choice(edges)[2] = rng.choice(
            [-0.0, 0.0, 0, math.nan, math.inf, -math.inf, -1.5, 2, True, "1.0", None, [1.0], 10**30]
        )
    elif kind == 3:  # a duplicate child
        rng.choice(edges)[1] = rng.choice(edges)[1]
    elif kind == 4:  # a cycle: hang a vertex below itself
        edge = rng.choice(edges)
        edge[0] = rng.choice(_descendants(edges, edge[1]))
    elif kind == 5:  # a misshapen edge
        k = rng.randrange(n)
        edges[k] = rng.choice([edges[k][:2], edges[k] + [1.0], {"p": 0}, "edge", None])
    elif kind == 6:  # a misshapen demand or node
        item = rng.choice([demands[0], rng.choice(demands)])
        choice = rng.randrange(5)
        if choice == 0:
            item["node"] = rng.choice([True, 1.0, "1", None, n + 1, 0])
        elif choice == 1:
            del item[rng.choice(["node", "pmf"])]
        elif choice == 2:
            item["extra"] = 1
        elif choice == 3:  # two keys, one of them misspelt
            key = rng.choice(["node", "pmf"])
            item[key + "s"] = item.pop(key)
        else:
            demands[demands.index(item)] = rng.choice([[1, {}], None, "x"])
    elif kind == 7:  # a bad pmf object, key or probability
        pmf = rng.choice(demands)["pmf"]
        choice = rng.randrange(3)
        if choice == 0:
            rng.choice(demands)["pmf"] = rng.choice([{}, [], None, 0.5])
        elif choice == 1:
            pmf[rng.choice(["x", "01", " 2", "1.5", "-1", "0", "1_0", "+3", "\uff12", "--1"])] = rng.choice([0.5, 0.0, -0.0])
        else:
            pmf[rng.choice(list(pmf))] = rng.choice(
                [1, True, 1.0, [0.5], {"a": 1}, "0.5", math.nan, -0.0, 0, 10**30, None]
            )
    elif kind in (8, 9):  # a listing equal to the previous one but for types or order
        k = rng.randrange(1, len(demands))
        first, second = demands[k - 1], demands[k]
        listing = rng.choice([
            {"1": 1.0}, {"1": 0.5, "2": 0.5}, {"1": math.nan, "01": 0.5}, {"2": 0.25, "1": 0.75},
            {"2": 1.0, "1": 0.0},
        ])
        first["pmf"] = dict(listing)
        keys = list(listing)
        if kind == 8:
            second["pmf"] = {key: rng.choice([listing[key], -listing[key], 1, True, 1.0]) for key in keys}
        else:
            second["pmf"] = {key: listing[key] for key in reversed(keys)}
    elif kind == 10:  # a bad capacity or name
        key = rng.choice(["capacity", "name"])
        raw[key] = rng.choice([True, 1.0, 0, -1, 7, None, "3"])
    else:  # top-level keys
        if rng.random() < 0.5:
            del raw[rng.choice(list(raw))]
        else:
            raw["extra"] = []


def _oracle_texts() -> list[str]:
    texts = [serialize_document(doc) for doc in corpus_documents()]
    for topology in TOPOLOGIES:
        for n in (0, 1, 2000):
            texts.append(serialize_document(generate_document(GeneratorParams(
                n=n, capacity=10, topology=topology, pmf="unif:1-10", seed=n,
                length_range=(0.5, 2.0),
            ))))
    rng = random.Random(2024)
    bases = [
        serialize_document(generate_document(GeneratorParams(
            n=12, capacity=4, topology=topology, pmf=pmf, seed=7, length_range=(0.5, 2.0),
        )))
        for topology in TOPOLOGIES for pmf in ("unif:1-3", "two:1,0.5,4", "det:1")
    ]
    for _ in range(1500):
        raw = json.loads(rng.choice(bases))
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            # a later defect may not apply once an earlier one broke the shape
            with contextlib.suppress(LookupError, TypeError, ValueError, AttributeError):
                _mutate(raw, rng)
        texts.append(json.dumps(raw, indent=rng.choice([None, 2])))
    return texts


def test_load_matches_itemwise_oracle():
    seen = set()
    for text in _oracle_texts():
        parsed = outcome(parse_document, text)
        assert parsed == outcome(itemwise_parse_document, text), text
        seen.add(parsed[0])
        if parsed[0] == "ok":
            doc = parse_document(text)
            tree = outcome(build_tree, doc.edges, doc.capacity)
            assert tree == outcome(itemwise_build_tree, doc.edges, doc.capacity), text
            seen.add(tree[0])
    # the mutations reach every family of outcome
    assert {"ok", "SchemaError", "CycleOrForestError", "NonpositiveLengthError", "BadCapacityError"} <= seen


def test_model_is_filled_by_node_in_any_document_order():
    doc = parse_document(_demands_document('{"1": 1.0}', '{"2": 1.0}', '{"3": 1.0}'))
    doc = dataclasses.replace(doc, edges=((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
    shuffled = dataclasses.replace(doc, demands=tuple(reversed(doc.demands)))
    _, model = document_to_instance(shuffled)
    assert [pmf.mass for pmf in model.pmfs] == [((1, 1.0),), ((2, 1.0),), ((3, 1.0),)]
    assert document_to_instance(doc) == document_to_instance(shuffled)
    # a hand-built document may name a node by an equal float or bool
    odd = dataclasses.replace(shuffled, demands=tuple(
        (name, entries) for name, (_, entries) in zip((3.0, 2, True), shuffled.demands)
    ))
    assert document_to_instance(odd) == document_to_instance(doc)


def test_huge_integers_are_schema_errors():
    big = 10**400
    for edges, pmf, field in [
        (f"[[0, 1, {big}]]", '{"1": 1.0}', "edges[0].length"),
        ("[[0, 1, 1.0]]", f'{{"1": {big}}}', "demands[0].pmf['1']"),
    ]:
        text = (
            f'{{"name": "x", "capacity": 2, "edges": {edges}, '
            f'"demands": [{{"node": 1, "pmf": {pmf}}}]}}'
        )
        with pytest.raises(SchemaError) as info:
            parse_document(text)
        assert str(info.value) == f"{field}: an integer of 401 digits, too large for a float"
    # past the digit limit of int(), and nested past the recursion limit
    with pytest.raises(InstanceSyntaxError) as info:
        parse_document('{"name": "x", "capacity": ' + "9" * 5000 + "}")
    assert "4300 digits" in str(info.value) and len(str(info.value)) < 200
    with pytest.raises(InstanceSyntaxError):
        parse_document("[" * 100_000)


def _call_within(extra_frames: int, fn, *args):
    """Run ``fn`` with the recursion limit ``extra_frames`` above the caller."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + extra_frames)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def test_deep_path_loads_linearly_without_recursion():
    n = 100_000
    rng = random.Random(5)
    lengths = [rng.uniform(0.5, 2.0) for _ in range(n)]
    text = json.dumps({
        "name": "deep", "capacity": 3,
        "edges": [[v - 1, v, lengths[v - 1]] for v in range(1, n + 1)],
        "demands": [{"node": v, "pmf": {"1": 0.5, "3": 0.5}} for v in range(1, n + 1)],
    })
    tree, model = _call_within(60, lambda: document_to_instance(parse_document(text)))
    assert tree.depth == tuple(range(n + 1))
    running, dist = 0.0, [0.0]
    for length in lengths:
        running += length
        dist.append(running)
    assert tree.depot_dist == tuple(dist)
    assert all(pmf is model.pmfs[0] for pmf in model.pmfs)

    # a parent cycle through every customer that the depot cannot reach
    cycle = json.dumps({
        "name": "cycle", "capacity": 3,
        "edges": [[v % n + 1, v, 1.0] for v in range(1, n + 1)],
        "demands": [{"node": v, "pmf": {"1": 1.0}} for v in range(1, n + 1)],
    })
    with pytest.raises(CycleOrForestError) as info:
        _call_within(60, lambda: document_to_instance(parse_document(cycle)))
    assert str(info.value) == "edges: parent pointers contain a cycle"


def test_parse_pmf_spec_families():
    assert parse_pmf_spec("det:2", 3).mass == ((2, 1.0),)
    assert parse_pmf_spec("unif:1-3", 3).mass == ((1, 1 / 3), (2, 1 / 3), (3, 1 / 3))
    assert parse_pmf_spec("two:1,0.25,4", 4).mass == ((1, 0.25), (4, 0.75))
    # collapsing a two-point onto one value is fine
    assert parse_pmf_spec("two:2,0.5,2", 2).mass == ((2, 1.0),)


def test_parse_pmf_spec_rejects_garbage():
    for bad in [
        "det:",
        "det:x",
        "det:0",
        "det:5",  # above capacity 3
        "unif:3-1",
        "unif:1",
        "two:1,2",
        "two:1,1.5,2",
        "gauss:1",
        "",
    ]:
        with pytest.raises(BadParamsError):
            parse_pmf_spec(bad, 3)
    # ASCII digits only: int() alone reads 1_0 as 10, +1 as 1, and
    # fullwidth digits as digits; float() also reads 0.2_5, 1e-1 and .5
    for bad in [
        "det:1_0", "unif:+1-1_0", "det: 2", "det:+3", "det:\uff12", "two:+1,0.5,2", "two:1,0.5,1_0",
        "two:1,0.2_5,2", "two:1,1e-1,2", "two:1,.5,2", "two:1,1.,2", "two:1, 0.5,2", "two:1,nan,2",
    ]:
        with pytest.raises(BadParamsError) as info:
            parse_pmf_spec(bad, 12)
        assert str(info.value) == f"malformed pmf spec {bad!r}"


def test_pmf_keys_are_an_optional_minus_and_ascii_digits():
    for key in ["1_0", " 2", "+3", "\uff12", "2 ", "--1", "-"]:
        for parse in (parse_document, itemwise_parse_document):
            with pytest.raises(SchemaError) as info:
                parse(_demands_document(json.dumps({key: 1.0})))
            assert str(info.value) == f"demands[0].pmf: key {key!r} is not an integer"
    assert parse_document(_demands_document('{"03": 1.0}')).demands == ((1, ((3, 1.0),)),)
    # a negative key parses and meets the range check of make_pmf
    doc = parse_document(json.dumps({
        "name": "x", "capacity": 3, "edges": [[0, 1, 1.0]],
        "demands": [{"node": 1, "pmf": {"-1": 0.5, "1": 0.5}}],
    }))
    with pytest.raises(OutOfRangeError) as info:
        document_to_instance(doc)
    assert str(info.value) == "demands[0] (node 1): demand -1 outside 0..3"


def test_generator_topologies():
    rng_free = dict(capacity=3, pmf="det:1", seed=9)
    path = generate_document(GeneratorParams(n=4, topology="path", **rng_free))
    assert [e[:2] for e in path.edges] == [(0, 1), (1, 2), (2, 3), (3, 4)]
    star = generate_document(GeneratorParams(n=4, topology="star", **rng_free))
    assert [e[:2] for e in star.edges] == [(0, 1), (0, 2), (0, 3), (0, 4)]
    cat = generate_document(GeneratorParams(n=5, topology="caterpillar", **rng_free))
    # spine 1-2-3, legs 4 and 5 hang off spine vertices 1 and 2
    assert [e[:2] for e in cat.edges] == [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]
    ra = generate_document(GeneratorParams(n=6, topology="random-attachment", **rng_free))
    assert all(parent < child for parent, child, _ in ra.edges)


def test_generator_lengths_and_determinism():
    params = GeneratorParams(
        n=5, capacity=2, topology="random-attachment", pmf="unif:1-2",
        seed=77, length_range=(0.5, 2.0),
    )
    a = generate_document(params)
    b = generate_document(params)
    assert a == b
    assert all(0.5 <= length <= 2.0 for _, _, length in a.edges)
    c = generate_document(
        GeneratorParams(n=5, capacity=2, topology="random-attachment",
                        pmf="unif:1-2", seed=78, length_range=(0.5, 2.0))
    )
    assert a != c
    # degenerate range pins lengths without consuming randomness
    d = generate_document(GeneratorParams(n=3, capacity=2, topology="path", pmf="det:1", seed=1))
    assert all(length == 1.0 for _, _, length in d.edges)


def test_generator_validation():
    with pytest.raises(BadParamsError):
        generate(GeneratorParams(n=-1, capacity=2, topology="path", pmf="det:1", seed=0))
    with pytest.raises(BadParamsError):
        generate(GeneratorParams(n=2, capacity=2, topology="ring", pmf="det:1", seed=0))
    with pytest.raises(BadParamsError):
        generate(GeneratorParams(n=2, capacity=0, topology="path", pmf="det:1", seed=0))
    with pytest.raises(BadParamsError):
        generate(
            GeneratorParams(n=2, capacity=2, topology="path", pmf="det:1", seed=0,
                            length_range=(0.0, 1.0))
        )
    with pytest.raises(BadParamsError):
        generate(
            GeneratorParams(n=2, capacity=2, topology="path", pmf="det:1", seed=0,
                            length_range=(2.0, 1.0))
        )
    with pytest.raises(BadParamsError):
        generate(GeneratorParams(n=2, capacity=2, topology="path", pmf="det:3", seed=0))
    with pytest.raises(BadParamsError) as info:
        generate(
            GeneratorParams(n=2, capacity=2, topology="path", pmf="det:1", seed=0,
                            length_range=("a", 1.0))
        )
    assert str(info.value) == "length_range must hold two reals, got ('a', 1.0)"


def test_default_name_and_override():
    params = GeneratorParams(n=3, capacity=2, topology="star", pmf="det:1", seed=4)
    assert default_name(params) == "star-n3-q2-s4"
    assert generate_document(params).name == "star-n3-q2-s4"
    named = GeneratorParams(n=3, capacity=2, topology="star", pmf="det:1", seed=4, name="mine")
    assert generate_document(named).name == "mine"


def test_generated_instances_are_valid():
    rng = random.Random(0)
    for _ in range(20):
        capacity = rng.randint(1, 6)
        params = GeneratorParams(
            n=rng.randint(0, 8),
            capacity=capacity,
            topology=rng.choice(["path", "star", "random-attachment", "caterpillar"]),
            pmf=f"unif:1-{min(2, capacity)}" if rng.random() < 0.5 else "det:1",
            seed=rng.randint(0, 10**6),
            length_range=(0.5, 2.5),
        )
        tree, model = generate(params)
        assert tree.n_customers == params.n
        assert model.capacity == params.capacity


def test_corpus_has_expected_shape():
    docs = corpus_documents()
    assert len(docs) == len(WORKED_PARAMS) + len(GENERATED_PARAMS) == 24
    names = [doc.name for doc in docs]
    assert len(set(names)) == 24
    assert names[:4] == ["E1", "E2", "E3", "E4"]
    for doc in docs:
        document_to_instance(doc)  # every bundled instance validates


def test_committed_corpus_matches_regeneration(tmp_path, corpus_dir):
    paths = write_corpus(tmp_path)
    committed = sorted(p.name for p in corpus_dir.glob("*.json"))
    assert sorted(p.name for p in paths) == committed
    for path in paths:
        fresh = path.read_text(encoding="utf-8")
        stored = (corpus_dir / path.name).read_text(encoding="utf-8")
        assert fresh == stored, f"{path.name} drifted from the generator"


def test_generated_corpus_instances_stay_exact_enumerable():
    from treevrpsd import exact_expected_cost

    for doc in corpus_documents():
        tree, model = document_to_instance(doc)
        for policy in ("split", "unsplit"):
            assert exact_expected_cost(tree, model, policy) > 0.0


def test_write_corpus_over_longer_files_matches_the_committed_corpus(tmp_path, corpus_dir):
    for path in corpus_dir.glob("*.json"):
        (tmp_path / path.name).write_bytes(b"x" * (path.stat().st_size + 4096))
    for path in write_corpus(tmp_path):
        assert path.read_bytes() == (corpus_dir / path.name).read_bytes(), path.name
