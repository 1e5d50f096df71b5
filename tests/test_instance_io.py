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
    DemandModel,
    GeneratorParams,
    InstanceDocument,
    ValidationError,
    build_tree,
    generate_document,
    make_pmf,
    parse_document,
    parse_instance,
    parse_pmf_spec,
    serialize_document,
)
from treevrpsd import cli
from treevrpsd.instance_io import TOPOLOGIES, default_name, document_to_instance

from conftest import CORPUS_DIR
from helpers import generate, itemwise_build_tree, itemwise_parse_document, json_dumps_serialize, outcome

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


def corpus_gen_lines() -> list[list[str]]:
    """The ``gen`` flags of each committed document, from ``corpus/gen.txt``;
    each line ends in ``--out corpus/<name>.json``."""
    return [line.split() for line in (CORPUS_DIR / "gen.txt").read_text(encoding="utf-8").splitlines()]


def corpus_documents() -> list:
    """The committed corpus documents, in ``corpus/gen.txt`` order."""
    return [
        parse_document((CORPUS_DIR / Path(args[-1]).name).read_text(encoding="utf-8"))
        for args in corpus_gen_lines()
    ]


def test_parse_e1_document():
    tree, model = parse_instance(E1_TEXT)
    assert tree.n_customers == 2
    assert tree.capacity == 2
    assert tree.depot_dist == (0.0, 1.0, 2.0)
    assert [pmf.mass for pmf in model.pmfs] == [((1, 1.0),), ((1, 1.0),)]


def test_serialize_then_parse_round_trips():
    doc = parse_document(E1_TEXT)
    text = serialize_document(doc)
    again = parse_document(text)
    assert again == doc
    assert document_to_instance(again) == document_to_instance(doc)
    # canonical text is a fixed point
    assert serialize_document(again) == text


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
    with pytest.raises(ValidationError) as info:
        parse_document("{not json")
    assert str(info.value) == (
        "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )
    for text, message in [
        ("[1, 2]", "top level must be an object, got list"),
        ('{"name": "x", "capacity": 2, "edges": []}', "missing keys ['demands']"),
        ('{"name": "x", "capacity": 2, "edges": [], "demands": [], "extra": 1}', "unknown keys ['extra']"),
        ('{"name": 7, "capacity": 2, "edges": [], "demands": []}', "name: expected a string, got 7"),
        (
            '{"name": "x", "capacity": true, "edges": [], "demands": []}',
            "capacity: expected an integer >= 1, got True",
        ),
        (
            '{"name": "x", "capacity": 2, "edges": [[0, 1]], "demands": []}',
            "edges[0]: expected [parent, child, length]",
        ),
        (
            '{"name": "x", "capacity": 2, "edges": [], "demands": [{"node": 1}]}',
            "demands[0]: expected an object with keys node, pmf",
        ),
        (
            '{"name": "x", "capacity": 2, "edges": [], "demands": [{"node": 1, "pmf": {"one": 1.0}}]}',
            "demands[0].pmf: key 'one' is not an integer",
        ),
        # json reads all three as floats; the tree refuses them as lengths
        *[
            (
                f'{{"name": "x", "capacity": 2, "edges": [[0, 1, {length}]], '
                '"demands": [{"node": 1, "pmf": {"1": 1.0}}]}',
                f"edges: edge (0, 1) length: expected a positive finite number, got {shown}",
            )
            for length, shown in [("Infinity", "inf"), ("NaN", "nan"), ("1e400", "inf")]
        ],
    ]:
        with pytest.raises(ValidationError) as info:
            parse_instance(text)
        assert str(info.value) == message, text
    for key in ("edges", "demands"):
        raw = {"name": "x", "capacity": 2, "edges": [], "demands": []}
        raw[key] = {}
        with pytest.raises(ValidationError) as info:
            parse_document(json.dumps(raw))
        assert str(info.value) == f"{key}: expected an array"


def test_parse_rejects_demand_node_mismatch():
    cover = "demands must cover each customer 1..1 exactly once: node"
    with pytest.raises(ValidationError) as info:
        parse_instance(
            '{"name": "x", "capacity": 2, "edges": [[0, 1, 1.0]], "demands": []}'
        )
    assert str(info.value) == f"{cover} 1 is missing (0 entries)"
    with pytest.raises(ValidationError) as info:
        parse_instance(
            '{"name": "x", "capacity": 2, "edges": [[0, 1, 1.0]], '
            '"demands": [{"node": 2, "pmf": {"1": 1.0}}]}'
        )
    assert str(info.value) == f"{cover} 2 at position 0 is outside 1..1 or repeated"


def test_semantic_errors_carry_field_context():
    with pytest.raises(ValidationError) as info:
        parse_instance(
            '{"name": "x", "capacity": 2, "edges": [[0, 1, 1.0]], '
            '"demands": [{"node": 1, "pmf": {"1": 0.9}}]}'
        )
    assert str(info.value) == "demands[0] (node 1): pmf mass sums to 0.9, expected 1 within 1e-12"
    with pytest.raises(ValidationError) as info:
        parse_instance('{"name": "x", "capacity": 2, "edges": [[1, 0, 1.0]], "demands": []}')
    assert str(info.value) == "edges: the depot (vertex 0) cannot appear as a child"


def test_demand_node_errors_stay_short_at_scale():
    n = 10_000
    doc = generate_document(GeneratorParams(n=n, capacity=3, topology="path", pmf="unif:1-3", seed=1))
    missing = dataclasses.replace(doc, demands=doc.demands[:500] + doc.demands[501:])
    with pytest.raises(ValidationError) as info:
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
    with pytest.raises(ValidationError) as info:
        document_to_instance(bad)
    assert str(info.value) == "demands[2] (node 3): pmf mass sums to 0.5, expected 1 within 1e-12"


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
    # parse_document refuses an empty pmf; a hand-built document may hold one
    docs.append(InstanceDocument(name="empty", capacity=2, edges=((0, 1, 1.0),), demands=((1, ()),)))
    for doc in docs:
        assert serialize_document(doc) == json_dumps_serialize(doc), doc.name


def _demands_document(*pmfs: str) -> str:
    listings = ", ".join(
        f'{{"node": {node}, "pmf": {pmf}}}' for node, pmf in enumerate(pmfs, 1)
    )
    return f'{{"name": "x", "capacity": 3, "edges": [], "demands": [{listings}]}}'


def test_parse_memo_keeps_value_types_apart():
    with pytest.raises(ValidationError) as info:
        parse_document(_demands_document('{"1": 1}', '{"1": true}'))
    assert str(info.value) == "demands[1].pmf['1']: expected a number, got True"


def test_parse_memo_raises_at_first_bad_listing():
    good, bad = '{"1": 1.0}', '{"x": 1.0}'
    with pytest.raises(ValidationError) as info:
        parse_document(_demands_document(good, bad, good, bad))
    assert str(info.value) == "demands[1].pmf: key 'x' is not an integer"
    # a listing that cannot be hashed gets the full check and its message
    with pytest.raises(ValidationError) as info:
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
        seen.add("ok" if parsed[0] == "ok" else parsed[1])
        if parsed[0] == "ok":
            doc = parse_document(text)
            tree = outcome(build_tree, doc.edges, doc.capacity)
            assert tree == outcome(itemwise_build_tree, doc.edges, doc.capacity), text
            seen.add("ok" if tree[0] == "ok" else tree[1])
    # the mutations reach every family of outcome: a schema error, a
    # capacity below 1, a tree of the wrong shape and a bad length
    for family in (
        "ok", "expected [parent, child, length]", "capacity: expected an integer >= 1",
        "parent pointers contain a cycle", "expected a positive finite number",
    ):
        assert any(family in message for message in seen), family


def test_model_is_filled_by_node_in_any_document_order():
    doc = parse_document(_demands_document('{"1": 1.0}', '{"2": 1.0}', '{"3": 1.0}'))
    doc = dataclasses.replace(doc, edges=((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
    shuffled = dataclasses.replace(doc, demands=tuple(reversed(doc.demands)))
    _, model = document_to_instance(shuffled)
    assert [pmf.mass for pmf in model.pmfs] == [((1, 1.0),), ((2, 1.0),), ((3, 1.0),)]
    assert document_to_instance(doc) == document_to_instance(shuffled)
    # a hand-built document may not name a node by an equal float or bool
    odd = dataclasses.replace(shuffled, demands=tuple(
        (name, entries) for name, (_, entries) in zip((3.0, 2, True), shuffled.demands)
    ))
    with pytest.raises(ValidationError, match=r"^demands\[0\]\.node: expected an integer, got 3\.0$"):
        document_to_instance(odd)


@pytest.mark.parametrize("demands, message", [
    ((("a", ((1, 1.0),)), (2, ((1, 1.0),))), "demands[0].node: expected an integer, got 'a'"),
    (((1, ((1, 1.0),)), (2, ((1, 1.0),)), (True, ((1, 1.0),))), "demands[2].node: expected an integer, got True"),
    (((1, ((1, 1.0),)), (2,)), "demands[1]: expected a (node, entries) pair, got (2,)"),
    (((1, [(1, 1.0)]), (2, ((1, 1.0),))),
     "demands[0] (node 1): expected a tuple of (value, probability) pairs, got [(1, 1.0)]"),
    (((1, ((1, 1.0),)), (2, ((1, [1.0]),))),
     "demands[1] (node 2): probability for demand 1 must be a finite real, got [1.0]"),
    (((1, ((1, 1.0),)), (2, (5,))), "demands[1] (node 2): expected a tuple of (value, probability) pairs, got (5,)"),
    (((1, ((1, 1.0),)), (1, ((1, 1.0),))),
     "demands must cover each customer 1..2 exactly once: node 1 at position 1 is outside 1..2 or repeated"),
    (((0, ((1, 1.0),)), (2, ((1, 1.0),))),
     "demands must cover each customer 1..2 exactly once: node 0 at position 0 is outside 1..2 or repeated"),
    # a bad pmf before a repeated node: the first fault by position is named
    (((1, ((3, 1.0),)), (1, ((1, 1.0),))), "demands[0] (node 1): demand 3 outside 0..2"),
], ids=["str-node", "bool-node", "not-a-pair", "list-entries", "list-probability", "bare-entry",
        "repeated-node", "node-outside", "first-of-two-faults"])
def test_hand_built_documents_refuse_bad_nodes_and_listings(demands, message):
    # Each of these once escaped as a plain TypeError or ValueError.
    doc = InstanceDocument(name="x", capacity=2, edges=((0, 1, 1.0), (0, 2, 1.0)), demands=demands)
    with pytest.raises(ValidationError) as info:
        document_to_instance(doc)
    assert str(info.value) == message


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
        with pytest.raises(ValidationError) as info:
            parse_document(text)
        assert str(info.value) == f"{field}: an integer of 401 digits, too large for a float"
    # past the digit limit of int(), and nested past the recursion limit
    with pytest.raises(ValidationError) as info:
        parse_document('{"name": "x", "capacity": ' + "9" * 5000 + "}")
    assert str(info.value).startswith("not valid JSON: ")
    assert "4300 digits" in str(info.value) and len(str(info.value)) < 200
    with pytest.raises(ValidationError, match="^not valid JSON: maximum recursion depth exceeded"):
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
    assert tree.parent == (-1, *range(n))
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
    with pytest.raises(ValidationError) as info:
        _call_within(60, lambda: document_to_instance(parse_document(cycle)))
    assert str(info.value) == "edges: parent pointers contain a cycle"


def test_parse_pmf_spec_families():
    assert parse_pmf_spec("det:2", 3).mass == ((2, 1.0),)
    assert parse_pmf_spec("unif:1-3", 3).mass == ((1, 1 / 3), (2, 1 / 3), (3, 1 / 3))
    assert parse_pmf_spec("two:1,0.25,4", 4).mass == ((1, 0.25), (4, 0.75))
    # collapsing a two-point onto one value is fine
    assert parse_pmf_spec("two:2,0.5,2", 2).mass == ((2, 1.0),)


def test_parse_pmf_spec_rejects_garbage():
    for bad, message in [
        ("det:", None),
        ("det:x", None),
        ("det:0", "positive probability at demand 0 is not allowed"),
        ("det:5", "demand 5 outside 0..3"),  # above capacity 3
        ("unif:3-1", "empty range 3-1"),
        ("unif:1-5", "demand 4 outside 0..3"),  # refused before the list is built
        ("unif:7-9", "demand 7 outside 0..3"),
        ("unif:0-5", "positive probability at demand 0 is not allowed"),  # demand 0 is refused first
        ("unif:1", None),
        ("two:1,2", None),
        ("two:1,1.5,2", "probability 1.5 outside [0,1]"),
        ("gauss:1", "unknown pmf family 'gauss'"),
        ("", "unknown pmf family ''"),
    ]:
        with pytest.raises(ValidationError) as info:
            parse_pmf_spec(bad, 3)
        # a spec that parses names what is wrong with it
        want = f"malformed pmf spec {bad!r}" if message is None else f"pmf spec {bad!r}: {message}"
        assert str(info.value) == want
    # ASCII digits only: int() alone reads 1_0 as 10, +1 as 1, and
    # fullwidth digits as digits; float() also reads 0.2_5, 1e-1 and .5
    for bad in [
        "det:1_0", "unif:+1-1_0", "det: 2", "det:+3", "det:\uff12", "two:+1,0.5,2", "two:1,0.5,1_0",
        "two:1,0.2_5,2", "two:1,1e-1,2", "two:1,.5,2", "two:1,1.,2", "two:1, 0.5,2", "two:1,nan,2",
    ]:
        with pytest.raises(ValidationError) as info:
            parse_pmf_spec(bad, 12)
        assert str(info.value) == f"malformed pmf spec {bad!r}"


def test_a_unif_spec_past_the_capacity_is_refused_before_its_weight_or_list():
    # 1 / (hi - lo + 1) overflows a float here; the range is refused first
    spec = "unif:1-" + "9" * 400
    with pytest.raises(ValidationError) as info:
        parse_pmf_spec(spec, 3)
    assert str(info.value) == "pmf spec 'unif:1-9999999999999' ... (407 characters): demand 4 outside 0..3"


def test_pmf_keys_are_an_optional_minus_and_ascii_digits():
    for key in ["1_0", " 2", "+3", "\uff12", "2 ", "--1", "-"]:
        for parse in (parse_document, itemwise_parse_document):
            with pytest.raises(ValidationError) as info:
                parse(_demands_document(json.dumps({key: 1.0})))
            assert str(info.value) == f"demands[0].pmf: key {key!r} is not an integer"
    assert parse_document(_demands_document('{"03": 1.0}')).demands == ((1, ((3, 1.0),)),)
    # a negative key parses and meets the range check of make_pmf
    doc = parse_document(json.dumps({
        "name": "x", "capacity": 3, "edges": [[0, 1, 1.0]],
        "demands": [{"node": 1, "pmf": {"-1": 0.5, "1": 0.5}}],
    }))
    with pytest.raises(ValidationError) as info:
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
    with pytest.raises(ValidationError, match="^n: expected an integer >= 0, got -1$"):
        generate_document(GeneratorParams(n=-1, capacity=2, topology="path", pmf="det:1", seed=0))
    with pytest.raises(ValidationError) as info:
        generate_document(GeneratorParams(n=2, capacity=2, topology="ring", pmf="det:1", seed=0))
    assert str(info.value) == f"topology must be one of {TOPOLOGIES}, got 'ring'"
    with pytest.raises(ValidationError, match="^capacity: expected an integer >= 1, got 0$"):
        generate_document(GeneratorParams(n=2, capacity=0, topology="path", pmf="det:1", seed=0))
    for length_range in ((0.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValidationError) as info:
            generate_document(
                GeneratorParams(n=2, capacity=2, topology="path", pmf="det:1", seed=0,
                                length_range=length_range)
            )
        assert str(info.value) == f"length_range must satisfy 0 < low <= high, got {length_range!r}"
    with pytest.raises(ValidationError) as info:
        generate_document(GeneratorParams(n=2, capacity=2, topology="path", pmf="det:3", seed=0))
    assert str(info.value) == "pmf spec 'det:3': demand 3 outside 0..2"
    with pytest.raises(ValidationError) as info:
        generate_document(
            GeneratorParams(n=2, capacity=2, topology="path", pmf="det:1", seed=0,
                            length_range=("a", 1.0))
        )
    assert str(info.value) == "length_range must hold two reals, got ('a', 1.0)"
    # refused before it is unpacked
    for length_range in (5, None, (1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(ValidationError) as info:
            generate_document(
                GeneratorParams(n=2, capacity=2, topology="path", pmf="det:1", seed=0,
                                length_range=length_range)
            )
        assert str(info.value) == f"length_range must hold two reals, got {length_range!r}"


@pytest.mark.parametrize("length_range", [(True, 2.0), (0.5, True)])
def test_generator_refuses_bools_in_length_range(length_range):
    # True is an int, and once passed as the length 1.0; reals exclude bools
    # as integer checks do.
    with pytest.raises(ValidationError) as info:
        generate_document(GeneratorParams(n=2, capacity=2, topology="path", pmf="det:1", seed=0,
                                          length_range=length_range))
    assert str(info.value) == f"length_range must hold two reals, got {length_range!r}"


@pytest.mark.parametrize("field, value, shown", [
    ("name", 5, "5"),
    ("name", b"x" * 30, "b'xxxxxxxxxxxxxxxxxx ... (33 characters)"),
    ("pmf", 5, "5"),
    ("pmf", ["det:1"], "['det:1']"),
])
def test_generator_refuses_a_name_or_pmf_that_is_not_a_string(field, value, shown):
    params = GeneratorParams(n=2, capacity=2, topology="path", pmf="det:1", seed=0)
    with pytest.raises(ValidationError) as info:
        generate_document(dataclasses.replace(params, **{field: value}))
    assert str(info.value) == f"{field}: expected a string, got {shown}"


def test_generator_checks_the_lengths_it_drew_against_the_loaders_limit():
    # n * high passes the limit at n = 2 (the largest float over 12): seed 4
    # draws two lengths whose sum stays under it, seed 0 two whose sum does not.
    largest = sys.float_info.max
    params = GeneratorParams(n=2, capacity=2, topology="path", pmf="det:1", seed=4,
                             length_range=(largest / 48, largest / 16))
    tree, _ = generate(params)
    assert tree.total_edge_length <= largest / 12
    with pytest.raises(ValidationError) as info:
        generate_document(dataclasses.replace(params, seed=0))
    assert str(info.value).startswith(f"length_range: edge lengths sum past {largest / 12!r}: at n = 2 ")


def test_default_name_and_override():
    params = GeneratorParams(n=3, capacity=2, topology="star", pmf="det:1", seed=4)
    assert default_name(params) == "star-n3-q2-s4"
    assert generate_document(params).name == "star-n3-q2-s4"
    named = GeneratorParams(n=3, capacity=2, topology="star", pmf="det:1", seed=4, name="mine")
    assert generate_document(named).name == "mine"


def test_generator_refuses_a_name_parse_document_refuses():
    # A name from the command line keeps undecodable bytes as lone surrogates.
    message = "name: a lone surrogate at character 1 cannot be encoded as UTF-8"
    params = GeneratorParams(n=1, capacity=2, topology="star", pmf="det:1", seed=4, name="x\udcff")
    with pytest.raises(ValidationError) as info:
        generate_document(params)
    assert str(info.value) == message
    text = serialize_document(generate_document(dataclasses.replace(params, name="x")))
    with pytest.raises(ValidationError) as info:
        parse_document(text.replace('"x"', '"x\\udcff"'))
    assert str(info.value) == message


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


def test_corpus_has_expected_shape(corpus_dir):
    lines = corpus_gen_lines()
    assert len(lines) == 24
    assert sorted(args[-1] for args in lines) == sorted(f"corpus/{p.name}" for p in corpus_dir.glob("*.json"))
    docs = corpus_documents()
    names = [doc.name for doc in docs]
    assert len(set(names)) == 24
    assert names[:4] == ["E1", "E2", "E3", "E4"]
    for args, doc in zip(lines, docs):
        assert args[-2:] == ["--out", f"corpus/{doc.name}.json"]
        document_to_instance(doc)  # every bundled instance validates


def test_committed_corpus_matches_regeneration(tmp_path, corpus_dir):
    for args in corpus_gen_lines():
        out = tmp_path / Path(args[-1]).name
        assert cli.main(["gen", *args[:-1], str(out)]) == 0
        assert out.read_bytes() == (corpus_dir / out.name).read_bytes(), f"{out.name} drifted from its gen line"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in corpus_dir.glob("*.json"))


def test_generated_corpus_instances_stay_exact_enumerable():
    from treevrpsd import exact_expected_cost

    for doc in corpus_documents():
        tree, model = document_to_instance(doc)
        for policy in ("split", "unsplit"):
            assert exact_expected_cost(tree, model, policy) > 0.0
