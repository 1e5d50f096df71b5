from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from treevrpsd import (
    BadParamsError,
    CycleOrForestError,
    GeneratorParams,
    InstanceSyntaxError,
    NotNormalizedError,
    SchemaError,
    generate,
    generate_document,
    make_pmf,
    parse_document,
    parse_instance,
    parse_pmf_spec,
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

from helpers import json_dumps_serialize

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
