from __future__ import annotations

import ast
import contextlib
import io
import json
import tokenize
from pathlib import Path

import pytest

from treevrpsd import (
    InstanceDocument,
    Realization,
    ValidationError,
    bound_set,
    build_tree,
    cli,
    monte_carlo_cost,
    parse_document,
    parse_instance,
    parse_pmf_spec,
    point_model,
    run_split,
)
from treevrpsd.instance_io import document_to_instance

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_prints_its_commented_values():
    # Run README's library example; an expression whose comment (on its own
    # last line, or alone on the line below) is a Python literal must equal it.
    block = _library_block()
    comments = {
        token.start[0]: token.string.lstrip("#").strip()
        for token in tokenize.generate_tokens(io.StringIO(block).readline)
        if token.type == tokenize.COMMENT
    }
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(block).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        last = statement.end_lineno
        below = last + 1
        comment = comments.get(last)
        if comment is None and below <= len(lines) and lines[below - 1].lstrip().startswith("#"):
            comment = comments[below]
        try:
            want = ast.literal_eval(comment or "")
        except (SyntaxError, ValueError):
            continue  # a prose comment, such as "floor 4.0, ub 7.0, ..."
        assert value == want, f"README line {last}: {value!r} != {want!r}"
        checked.append(want)
    # the exact cost, the trace length and the breakpoint list
    assert checked == [5.0, 6.0, [("breakpoint", 1, "exact")]]


def _library_error(fn, *args) -> str:
    with pytest.raises(ValidationError) as info:
        fn(*args)
    return str(info.value)


def _cli_error(*argv: str) -> str:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert cli.main(list(argv)) == 2
    return stderr.getvalue().removeprefix("error: ").removesuffix("\n")


def _document(capacity: int, pmfs: list[dict]) -> str:
    return json.dumps({
        "name": "x", "capacity": capacity, "edges": [[v - 1, v, 1.0] for v in range(1, len(pmfs) + 1)],
        "demands": [{"node": v, "pmf": pmf} for v, pmf in enumerate(pmfs, 1)],
    })


def _utf8_error() -> str:
    Path("bad.json").write_bytes(b"\xff{}")
    return _cli_error("bounds", "--instance", "bad.json")


E1 = str(README.parent / "corpus" / "E1.json")
PATH2 = [(0, 1, 1.0), (1, 2, 1.0)]


def _hand_built(*demands) -> InstanceDocument:
    return InstanceDocument(name="x", capacity=2, edges=tuple(PATH2), demands=demands)

# Each error message README quotes, and a call that raises it.
README_ERRORS = [
    (lambda: _library_error(parse_pmf_spec, "unif:3-1", 3), "pmf spec 'unif:3-1': empty range 3-1"),
    (lambda: _library_error(parse_pmf_spec, "unif:1-5", 3), "pmf spec 'unif:1-5': demand 4 outside 0..3"),
    (lambda: _cli_error("evaluate", "--instance", E1, "--policy", "split", "--seed", "+1"),
     "--seed must be an integer: value is '+1'"),
    (lambda: _cli_error("gen", "--n", "1", "--capacity", "1", "--pmf", "det:1", "--out", "missing/x.json"),
     "--out 'missing/x.json': 'missing' is not a directory"),
    (lambda: _library_error(parse_document, _document(0, [])), "capacity: expected an integer >= 1, got 0"),
    (lambda: _library_error(parse_instance, _document(2, [{"1": 1.0}, {"1": 1.0}, {"1": 0.5}])),
     "demands[2] (node 3): pmf mass sums to 0.5, expected 1 within 1e-12"),
    (lambda: _library_error(parse_instance, json.dumps({
        "name": "x", "capacity": 2, "edges": [[1, 0, 1.0]], "demands": []})),
     "edges: the depot (vertex 0) cannot appear as a child"),
    (lambda: _library_error(parse_instance, _document(2, [{"1": 1.0}]).replace("[0, 1, 1.0]", "[0, 1, Infinity]")),
     "edges: edge (0, 1) length: expected a positive finite number, got inf"),
    (lambda: _library_error(bound_set, build_tree(PATH2 + [(2, 3, 1.0)], 2), point_model((1, 1), 2)),
     "2 demand pmfs for 3 customers"),
    (lambda: _library_error(monte_carlo_cost, build_tree(PATH2, 2), point_model((1, 1), 2), "split", 1, 0),
     "samples: expected an integer >= 2, got 1"),
    (lambda: _library_error(run_split, build_tree(PATH2, 2), (1, 2), Realization((1, 3), 1)),
     "demand of customer 2: expected an integer in 1..2, got 3"),
    (lambda: _library_error(run_split, build_tree(PATH2, 2), (1, 2), Realization((1, 1), 3)),
     "initial load: expected an integer in 1..2, got 3"),
    (lambda: _library_error(run_split, build_tree(PATH2, 2), (1, 2), Realization((1,), 1)),
     "1 demands for 2 customers"),
    (lambda: _library_error(build_tree, PATH2, 2**1100), "capacity: an integer of 332 digits, too large for a float"),
    (lambda: _library_error(build_tree, PATH2, "x" * 100_000),
     "capacity: expected an integer >= 1, got 'xxxxxxxxxxxxxxxxxxxx' ... (100000 characters)"),
    (_utf8_error, "not valid UTF-8: invalid start byte at byte 0"),
    (lambda: _library_error(document_to_instance, _hand_built(("a", ((1, 1.0),)), (2, ((1, 1.0),)))),
     "demands[0].node: expected an integer, got 'a'"),
    (lambda: _library_error(document_to_instance, _hand_built((1, ((1, 1.0),)), (2, (5,)))),
     "demands[1] (node 2): expected a tuple of (value, probability) pairs, got (5,)"),
]


@pytest.mark.parametrize("raise_it, message", README_ERRORS)
def test_readme_quotes_the_messages_the_code_raises(tmp_path, monkeypatch, raise_it, message):
    monkeypatch.chdir(tmp_path)  # no "missing" directory; room for "bad.json"
    assert raise_it() == message
    # README wraps lines inside a quote; compare with each line break as a space
    assert f"`{message}`" in " ".join(README.read_text(encoding="utf-8").split())


def test_readme_counts_the_top_level_names():
    import treevrpsd

    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"`treevrpsd` exports {len(treevrpsd.__all__)} names" in text
    assert all(hasattr(treevrpsd, name) for name in treevrpsd.__all__)
    # joint enumeration serves the partition oracle only and stays in demand
    assert not {"enumerate_joint", "joint_support_size"} & set(treevrpsd.__all__)
