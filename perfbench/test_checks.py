"""Tests of the benchmark's own output checks.

Run from the root of the repository with ``python3 -m pytest perfbench``.
Each doctored output must be counted as a failed operation, and the
closed-form reference must equal the program's exact enumeration.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from treevrpsd import cli, exact_expected_cost, parse_instance  # noqa: E402

import run  # noqa: E402
from reference import Instance  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

CORPUS = sorted((BENCH_DIR.parent / "corpus").glob("*.json"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_closed_form_matches_exact_enumeration(path):
    text = path.read_text(encoding="utf-8")
    tree, model = parse_instance(text)
    inst = Instance(json.loads(text))
    for policy in ("split", "unsplit"):
        want = exact_expected_cost(tree, model, policy)
        assert math.isclose(inst.expected_cost(policy), want, rel_tol=1e-12, abs_tol=1e-12)


def first_op(name: str, tmp_path: Path) -> Op:
    workload = WORKLOADS[name](7, tmp_path)
    for directory in workload.dirs:
        directory.mkdir(parents=True, exist_ok=True)
    for argv in workload.gens:
        run.call_cli(cli, argv)
    return workload.make_ops()[0]


def attempt(op: Op) -> run.Run:
    result = run.Run()
    result.attempt(cli, op)
    return result


def doctored(op: Op, edit) -> Op:
    """The same operation with ``edit`` applied to its outputs before the check."""
    return Op(op.argvs, lambda outputs: op.check(edit(outputs)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untouched_operation_passes(name, tmp_path):
    result = attempt(first_op(name, tmp_path))
    assert (result.attempted, result.failures, len(result.latencies)) == (1, [], 1)


def test_perturbed_exact_cost_fails(tmp_path):
    op = first_op("report-exact", tmp_path)
    out_csv = Path(op.argvs[0][op.argvs[0].index("--out-csv") + 1])

    def perturb(outputs):
        header, split_row, *rest = out_csv.read_text(encoding="utf-8").splitlines()
        cells = split_row.split(",")
        column = header.split(",").index("expected_cost")
        cells[column] = repr(float(cells[column]) * (1 + 1e-6))
        out_csv.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
        return outputs

    result = attempt(doctored(op, perturb))
    assert len(result.failures) == 1 and "expected_cost" in result.failures[0]


def test_altered_move_distance_fails(tmp_path):
    op = first_op("simulate-deep", tmp_path)

    def alter(outputs):
        lines = outputs[1].splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("MOVE "))
        kind, a, b, dist = lines[k].split()
        lines[k] = f"MOVE {a} {b} {float(dist) + 0.25!r}"
        return [outputs[0], "\n".join(lines) + "\n"]

    result = attempt(doctored(op, alter))
    assert len(result.failures) == 1 and "unsplit: MOVE" in result.failures[0]


def move_one_unit(trace: str) -> str:
    """Move one served unit between two customers served back to back, keeping the stock consistent."""
    lines = trace.splitlines()
    serves = [i for i, line in enumerate(lines) if line.startswith("SERVE ")]
    for i, j in zip(serves, serves[1:]):
        between = [lines[k].split() for k in range(i + 1, j)]
        _, u, units, before, after = lines[i].split()
        _, v, *_ = lines[j].split()
        if u != v and int(units) >= 2 and all(f[0] == "MOVE" and f[2] != "0" for f in between):
            break
    else:
        raise AssertionError("no two customers served back to back")
    lines[i] = f"SERVE {u} {int(units) - 1} {before} {int(after) + 1}"
    _, v, units, before, after = lines[j].split()
    lines[j] = f"SERVE {v} {int(units) + 1} {int(before) + 1} {after}"
    return "\n".join(lines) + "\n"


def test_moved_served_unit_fails(tmp_path):
    op = first_op("simulate-deep", tmp_path)
    result = attempt(doctored(op, lambda outputs: [move_one_unit(outputs[0]), outputs[1]]))
    assert len(result.failures) == 1 and "realization drawn from the seed" in result.failures[0]


def test_simulation_with_another_seed_fails(tmp_path):
    op = first_op("simulate-deep", tmp_path)
    argvs = [[*argv[:-1], str(int(argv[-1]) + 1)] for argv in op.argvs]
    result = attempt(Op(argvs, op.check))
    assert len(result.failures) == 1 and "split:" in result.failures[0]


def test_shifted_monte_carlo_mean_fails(tmp_path):
    op = first_op("io-large", tmp_path)

    def shift(outputs):
        payload = json.loads(outputs[1])
        payload["estimate"]["mean"] += 10 * payload["estimate"]["stderr"]
        payload["expected_cost"] = payload["estimate"]["mean"]
        return [outputs[0], json.dumps(payload)]

    result = attempt(doctored(op, shift))
    assert len(result.failures) == 1 and "standard errors" in result.failures[0]
