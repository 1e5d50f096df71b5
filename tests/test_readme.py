from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

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
