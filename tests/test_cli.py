from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from treevrpsd import (
    WalkGeometry,
    expected_clairvoyant_lb,
    parse_document,
    parse_instance,
    replication_rng,
)
from treevrpsd import bounds, cli, demand, evaluator, oracle
from treevrpsd.cli import build_parser, main

import pinned_outputs
from helpers import linear_scan_realization


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_canonical_file_and_prints_path(tmp_path, capsys):
    out = tmp_path / "e1.json"
    code, stdout, _ = run_cli(
        capsys, "gen", "--n", "2", "--capacity", "2", "--topology", "path",
        "--pmf", "det:1", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    assert stdout.strip() == str(out)
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert doc.name == "path-n2-q2-s7"
    assert doc.capacity == 2
    assert doc.edges == ((0, 1, 1.0), (1, 2, 1.0))
    assert doc.demands == ((1, ((1, 1.0),)), (2, ((1, 1.0),)))


def test_gen_structure_matches_bundled_e1_apart_from_name(tmp_path, capsys, corpus_dir):
    out = tmp_path / "e1.json"
    run_cli(
        capsys, "gen", "--n", "2", "--capacity", "2", "--topology", "path",
        "--pmf", "det:1", "--seed", "7", "--out", str(out),
    )
    generated = parse_document(out.read_text(encoding="utf-8"))
    bundled = parse_document((corpus_dir / "E1.json").read_text(encoding="utf-8"))
    assert generated.capacity == bundled.capacity
    assert generated.edges == bundled.edges
    assert generated.demands == bundled.demands
    # with the name pinned, the bytes match the bundled file
    named = tmp_path / "named.json"
    run_cli(
        capsys, "gen", "--n", "2", "--capacity", "2", "--topology", "path",
        "--pmf", "det:1", "--seed", "7", "--name", "E1", "--out", str(named),
    )
    assert named.read_text(encoding="utf-8") == (corpus_dir / "E1.json").read_text(
        encoding="utf-8"
    )


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--n", "5", "--capacity", "3", "--topology", "random-attachment",
            "--pmf", "unif:1-3", "--seed", "123", "--length-range", "0.5", "2.0"]
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_bad_params(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    code, _, stderr = run_cli(
        capsys, "gen", "--n", "-1", "--capacity", "2", "--pmf", "det:1", "--out", out
    )
    assert code == 2
    assert "error:" in stderr
    code, _, _ = run_cli(
        capsys, "gen", "--n", "2", "--capacity", "2", "--pmf", "det:9", "--out", out
    )
    assert code == 2


def test_unknown_flag_exits_2(tmp_path, corpus_dir):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--n", "2", "--capacity", "2", "--pmf", "det:1",
              "--out", str(tmp_path / "x.json"), "--bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["evaluate", "--instance", str(corpus_dir / "E1.json"), "--policy", "split", "--mode", "guess"])
    assert info.value.code == 2
    # report is exact only: it has no Monte Carlo --samples or --seed
    out = tmp_path / "r.csv"
    for flag in ("--samples", "--seed"):
        with pytest.raises(SystemExit) as info:
            main(["report", "--corpus-dir", str(corpus_dir), "--out-csv", str(out), flag, "1"])
        assert info.value.code == 2
    assert not out.exists()


def test_unreadable_instance_exits_1(capsys):
    code, _, stderr = run_cli(capsys, "bounds", "--instance", "/nonexistent/file.json")
    assert code == 1
    assert "error:" in stderr


def test_bounds_output(capsys, corpus_dir):
    code, stdout, _ = run_cli(
        capsys, "bounds", "--instance", str(corpus_dir / "E1.json")
    )
    assert code == 0
    assert stdout == (
        "tour_floor 4.0\n"
        "bertsimas 3.0\n"
        "combined_lb 4.0\n"
        "split_ub 7.0\n"
        "unsplit_ub 10.0\n"
    )


def test_simulate_explicit_realization(capsys, corpus_dir):
    code, stdout, _ = run_cli(
        capsys, "simulate", "--instance", str(corpus_dir / "E1.json"),
        "--policy", "split", "--demands", "1,1", "--load", "1",
    )
    assert code == 0
    assert stdout == (
        "MOVE 0 1 1.0\n"
        "BREAKPOINT 1 exact\n"
        "SERVE 1 1 1 0\n"
        "MOVE 1 0 1.0\n"
        "MOVE 0 2 2.0\n"
        "SERVE 2 1 2 1\n"
        "MOVE 2 0 2.0\n"
        "TOTAL 6.0\n"
    )


def test_simulate_seeded_is_reproducible(capsys, corpus_dir):
    args = ["simulate", "--instance", str(corpus_dir / "E4.json"),
            "--policy", "unsplit", "--seed", "11"]
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.endswith(f"TOTAL {out_a.splitlines()[-1].split()[-1]}\n")


def test_simulate_seed_draws_the_linear_scan_realization(tmp_path, capsys):
    path = tmp_path / "big.json"
    run_cli(
        capsys, "gen", "--n", "2000", "--capacity", "10", "--topology", "random-attachment",
        "--pmf", "unif:1-10", "--seed", "4", "--length-range", "0.5", "2.0", "--out", str(path),
    )
    _, model = parse_instance(path.read_text(encoding="utf-8"))
    seed = 5
    real = linear_scan_realization(model, replication_rng(seed, 0))
    for policy in ("split", "unsplit"):
        args = ["simulate", "--instance", str(path), "--policy", policy]
        code, seeded, _ = run_cli(capsys, *args, "--seed", str(seed))
        assert code == 0
        _, explicit, _ = run_cli(
            capsys, *args, "--demands", ",".join(map(str, real.demands)),
            "--load", str(real.initial_load),
        )
        assert seeded == explicit


def test_simulate_demands_require_load(capsys, corpus_dir):
    code, _, stderr = run_cli(
        capsys, "simulate", "--instance", str(corpus_dir / "E1.json"),
        "--policy", "split", "--demands", "1,1",
    )
    assert code == 2
    assert "--load" in stderr
    code, _, _ = run_cli(
        capsys, "simulate", "--instance", str(corpus_dir / "E1.json"),
        "--policy", "split", "--demands", "1,x", "--load", "1",
    )
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["--load", "9" * 500],
     "initial load: expected an integer in 1..2, got <an integer of 500 digits, too large for a float>"),
    (["--demands", "1," + "9" * 500, "--load", "1"],
     "demand of customer 2: expected an integer in 1..2, got <an integer of 500 digits, too large for a float>"),
    (["--demands", "1," * 3000 + "x", "--load", "1"],
     "--demands must be comma-separated integers: entry 3000 is 'x'"),
    # past the interpreter's 4300-digit limit on int(str)
    (["--demands", "1," + "9" * 5000, "--load", "1"],
     "--demands must be comma-separated integers: entry 1 is '99999999999999999999' ... (5000 characters)"),
    (["--load", "9" * 5000], "--load must be an integer: value is '99999999999999999999' ... (5000 characters)"),
    # int() reads these too; only ASCII digits are taken
    (["--demands", " +2,1", "--load", "1"], "--demands must be comma-separated integers: entry 0 is ' +2'"),
    (["--demands", "1_0,1", "--load", "1"], "--demands must be comma-separated integers: entry 0 is '1_0'"),
    (["--demands", "1,\uff12", "--load", "1"], "--demands must be comma-separated integers: entry 1 is '\uff12'"),
    (["--demands", "2,1", "--load", "0_1"], "--load must be an integer: value is '0_1'"),
    (["--demands", "2,1", "--load", " 1"], "--load must be an integer: value is ' 1'"),
    (["--demands", "2,1", "--load", "\uff11"], "--load must be an integer: value is '\uff11'"),
    (["--load", "-1"], "--load must be an integer: value is '-1'"),
], ids=[
    "huge-load", "huge-demand", "bad-entry", "over-digit-limit", "load-over-digit-limit",
    "signed-demand", "underscore-demand", "fullwidth-demand",
    "underscore-load", "spaced-load", "fullwidth-load", "negative-load",
])
def test_simulate_errors_stay_short(capsys, corpus_dir, argv, message):
    code, _, stderr = run_cli(
        capsys, "simulate", "--instance", str(corpus_dir / "E1.json"), "--policy", "split", *argv
    )
    assert code == 2
    assert stderr == f"error: {message}\n"


GEN_FLAGS = {"--n": "4", "--capacity": "4", "--pmf": "det:1"}
LONG_SEED = "--seed must be an integer of at most 20 digits: value"


@pytest.mark.parametrize("command, flags, message", [
    ("gen", {"--n": " 1_0"}, "--n must be an integer: value is ' 1_0'"),
    ("gen", {"--capacity": "+3"}, "--capacity must be an integer: value is '+3'"),
    ("gen", {"--seed": "0_7"}, "--seed must be an integer: value is '0_7'"),
    ("gen", {"--n": "1_" * 30}, "--n must be an integer: value is '1_1_1_1_1_1_1_1_1_1_' ... (60 characters)"),
    ("gen", {"--pmf": "two:1,0.2_5,3"}, "malformed pmf spec 'two:1,0.2_5,3'"),
    ("gen", {"--pmf": "two:1,1e-1,3"}, "malformed pmf spec 'two:1,1e-1,3'"),
    ("gen", {"--pmf": "two:1,.5,3"}, "malformed pmf spec 'two:1,.5,3'"),
    ("gen", {"--length-range": ("1_0", " 2_0")}, "--length-range must be a decimal number: value is '1_0'"),
    ("gen", {"--length-range": ("1", "1e-1")}, "--length-range must be a decimal number: value is '1e-1'"),
    ("gen", {"--length-range": ("1.", "2")}, "--length-range must be a decimal number: value is '1.'"),
    ("evaluate", {"--samples": " 1_00"}, "--samples must be an integer: value is ' 1_00'"),
    ("evaluate", {"--seed": "+1"}, "--seed must be an integer: value is '+1'"),
    ("simulate", {"--seed": " 3"}, "--seed must be an integer: value is ' 3'"),
    *[
        (command, {"--seed": "9" * 60}, f"{LONG_SEED} is '{'9' * 20}' ... (60 characters)")
        for command in ("gen", "evaluate", "simulate")
    ],
    ("evaluate", {"--seed": "0" * 20 + "1"}, f"{LONG_SEED} is '{'0' * 20}' ... (21 characters)"),
], ids=[
    "gen-n", "gen-capacity", "gen-seed", "gen-n-long", "two-underscore", "two-exponent",
    "two-bare-point", "length-underscore", "length-exponent", "length-trailing-point",
    "evaluate-samples", "evaluate-seed", "simulate-seed",
    "gen-seed-long", "evaluate-seed-long", "simulate-seed-long",
    "evaluate-seed-zero-padded",
])
def test_flags_take_ascii_digits_only(tmp_path, capsys, corpus_dir, command, flags, message):
    out = tmp_path / "out.csv"
    base = {
        "gen": {**GEN_FLAGS, "--out": str(out)},
        "evaluate": {"--instance": str(corpus_dir / "E1.json"), "--policy": "split", "--mode": "mc"},
        "simulate": {"--instance": str(corpus_dir / "E1.json"), "--policy": "split"},
        "report": {"--corpus-dir": str(corpus_dir), "--out-csv": str(out)},
    }[command]
    argv = [command]
    for flag, value in {**base, **flags}.items():
        argv += [flag, *value] if isinstance(value, tuple) else [flag, value]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_flags_keep_plain_digits_and_decimals(tmp_path, capsys, corpus_dir):
    out = tmp_path / "inst.json"
    code, _, _ = run_cli(
        capsys, "gen", "--n", "10", "--capacity", "10", "--pmf", "two:1,0.25,10", "--seed", "9",
        "--length-range", "1", "2.0", "--out", str(out),
    )
    assert code == 0
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert doc.name == "path-n10-q10-s9"
    assert doc.demands[0][1] == ((1, 0.25), (10, 0.75))
    assert all(1.0 <= length <= 2.0 for _, _, length in doc.edges)
    code, _, _ = run_cli(
        capsys, "evaluate", "--instance", str(out), "--policy", "unsplit",
        "--mode", "mc", "--samples", "0100", "--seed", "00",
    )
    assert code == 0


@pytest.mark.parametrize("seed", ["9", "18446744073709551615"])
def test_every_seed_flag_takes_up_to_twenty_digits(tmp_path, capsys, corpus_dir, seed):
    e1 = str(corpus_dir / "E1.json")
    out = tmp_path / "inst.json"
    code, _, _ = run_cli(capsys, "gen", "--n", "3", "--capacity", "2", "--pmf", "det:1",
                         "--seed", seed, "--out", str(out))
    assert code == 0
    assert parse_document(out.read_text(encoding="utf-8")).name == f"path-n3-q2-s{int(seed)}"
    code, stdout, _ = run_cli(capsys, "evaluate", "--instance", e1, "--policy", "split",
                              "--mode", "mc", "--samples", "3", "--seed", seed)
    assert (code, json.loads(stdout)["estimate"]["seed"]) == (0, int(seed))
    assert run_cli(capsys, "simulate", "--instance", e1, "--policy", "split", "--seed", seed)[0] == 0


def test_evaluate_exact_json(capsys, corpus_dir):
    code, stdout, _ = run_cli(
        capsys, "evaluate", "--instance", str(corpus_dir / "E1.json"),
        "--policy", "split", "--mode", "exact", "--format", "json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload == {
        "instance": "E1",
        "policy": "split",
        "mode": "exact",
        "expected_cost": 5.0,
        "tour_floor": 4.0,
        "bertsimas": 3.0,
        "combined_lb": 4.0,
        "formula_ub": 7.0,
        "ratio_vs_lb": 1.25,
        "ub_respected": True,
    }


def test_evaluate_e3_unsplit_value(capsys, corpus_dir):
    code, stdout, _ = run_cli(
        capsys, "evaluate", "--instance", str(corpus_dir / "E3.json"),
        "--policy", "unsplit", "--mode", "exact",
    )
    assert code == 0
    assert json.loads(stdout)["expected_cost"] == pytest.approx(22.0 / 3.0, rel=1e-9)


def test_evaluate_mc_csv_contains_estimate_free_columns(capsys, corpus_dir):
    code, stdout, _ = run_cli(
        capsys, "evaluate", "--instance", str(corpus_dir / "E4.json"),
        "--policy", "split", "--mode", "mc", "--samples", "500",
        "--seed", "3", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(stdout.splitlines()))
    assert rows[0][:4] == ["instance", "policy", "mode", "expected_cost"]
    assert rows[1][0] == "E4"
    assert rows[1][2] == "monte_carlo"


def test_evaluate_mc_json_prints_the_estimate_mean_as_the_cost(capsys, corpus_dir):
    for mode in ("mc", "monte_carlo"):
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--instance", str(corpus_dir / "E1.json"),
            "--policy", "unsplit", "--mode", mode, "--samples", "64", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["mode"] == "monte_carlo"
        assert payload["expected_cost"] == payload["estimate"]["mean"]
        assert payload["formula_ub"] == 10.0


def test_depot_only_instance_has_ratio_one(tmp_path, capsys):
    # With no customers every cost and bound is 0; the ratio convention is 1.0.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "empty.json"
    assert run_cli(capsys, "gen", "--n", "0", "--capacity", "2", "--pmf", "det:1", "--out", str(path))[0] == 0
    rows = []
    for policy in ("split", "unsplit"):
        for mode in (("--mode", "exact"), ("--mode", "mc", "--samples", "5")):
            code, stdout, _ = run_cli(capsys, "evaluate", "--instance", str(path), "--policy", policy, *mode)
            assert code == 0
            rows.append(json.loads(stdout))
    out_csv = tmp_path / "report.csv"
    assert run_cli(capsys, "report", "--corpus-dir", str(corpus), "--out-csv", str(out_csv))[0] == 0
    report = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert len(report) == 2
    for row in report:
        assert (row["expected_cost"], row["combined_lb"]) == ("0.0", "0.0")
        assert (row["ratio_vs_lb"], row["ub_respected"]) == ("1.0", "true")
    for row in rows:
        assert (row["expected_cost"], row["combined_lb"]) == (0.0, 0.0)
        assert (row["ratio_vs_lb"], row["ub_respected"]) == (1.0, True)


def test_evaluate_mc_single_sample_exits_2(capsys, corpus_dir):
    code, _, stderr = run_cli(
        capsys, "evaluate", "--instance", str(corpus_dir / "E1.json"),
        "--policy", "split", "--mode", "mc", "--samples", "1",
    )
    assert code == 2
    assert "error:" in stderr


def test_enum_limit_of_one_only_empties_the_partition_cell(tmp_path, capsys, corpus_dir, monkeypatch):
    # Only the partition oracle enumerates: with a cap of 1 every
    # subcommand still exits 0, exact evaluation gives the same value,
    # and the report leaves just the unsplit partition cell empty.
    e4 = str(corpus_dir / "E4.json")
    exact = ("evaluate", "--instance", e4, "--policy", "split", "--mode", "exact")
    _, unlimited, _ = run_cli(capsys, *exact)
    monkeypatch.setattr(demand, "ENUM_LIMIT", 1)
    code, stdout, stderr = run_cli(capsys, *exact)
    assert (code, stderr) == (0, "")
    assert json.loads(stdout) == json.loads(unlimited)
    assert json.loads(stdout)["expected_cost"] == 2.5
    for argv in (
        ("gen", "--n", "3", "--capacity", "2", "--pmf", "unif:1-2", "--out", str(tmp_path / "g.json")),
        ("bounds", "--instance", e4),
        ("simulate", "--instance", e4, "--policy", "split"),
        ("simulate", "--instance", e4, "--policy", "unsplit", "--seed", "7"),
        ("evaluate", "--instance", e4, "--policy", "unsplit", "--mode", "mc", "--samples", "50"),
    ):
        assert run_cli(capsys, *argv)[::2] == (0, ""), argv

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "E4.json").write_text(Path(e4).read_text(encoding="utf-8"), encoding="utf-8")
    out_csv = tmp_path / "report.csv"
    code, _, stderr = run_cli(capsys, "report", "--corpus-dir", str(corpus), "--out-csv", str(out_csv))
    assert (code, stderr) == (0, "")
    rows = {row["policy"]: row for row in csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines())}
    assert rows["unsplit"]["clairvoyant_lb"] == ""
    assert rows["unsplit"]["sharpened_ratio"] == ""
    assert rows["split"]["clairvoyant_lb"] == "2.0"
    assert all(row["mode"] == "exact" for row in rows.values())


def test_report_bytes_on_corpus_are_pinned(tmp_path, corpus_dir):
    assert pinned_outputs.report_digests(corpus_dir, tmp_path) == (
        pinned_outputs.CORPUS_REPORT_SHA256, pinned_outputs.CORPUS_PLOT_SHA256,
    )


def test_sampled_trace_bounds_and_gen_bytes_are_pinned(tmp_path, corpus_dir):
    digest = pinned_outputs.sampled_outputs_digest(corpus_dir, tmp_path)
    assert digest == pinned_outputs.SAMPLED_OUTPUTS_SHA256


def test_evaluate_bytes_are_pinned(tmp_path, corpus_dir):
    digest = pinned_outputs.evaluate_outputs_digest(corpus_dir, tmp_path)
    assert digest == pinned_outputs.EVALUATE_OUTPUTS_SHA256


def test_report_over_worked_examples(tmp_path, capsys, corpus_dir):
    small = tmp_path / "corpus"
    small.mkdir()
    for name in ("E1", "E2", "E3", "E4"):
        (small / f"{name}.json").write_text(
            (corpus_dir / f"{name}.json").read_text(encoding="utf-8"), encoding="utf-8"
        )
    out_csv = tmp_path / "report.csv"
    code, stdout, _ = run_cli(
        capsys, "report", "--corpus-dir", str(small), "--out-csv", str(out_csv)
    )
    assert code == 0
    assert stdout.strip() == str(out_csv)
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 8
    assert all(row["ub_respected"] == "true" for row in rows)
    for row in rows:
        limit = 2.0 if row["policy"] == "split" else 3.0
        assert float(row["ratio_vs_lb"]) <= limit
        assert float(row["sharpened_ratio"]) <= limit
    assert [row["instance"] for row in rows] == [
        "E1", "E1", "E2", "E2", "E3", "E3", "E4", "E4"
    ]
    plot = (tmp_path / "report.plot.csv").read_text(encoding="utf-8").splitlines()
    assert plot[0] == "policy,bin_low,bin_high,count"
    assert len(plot) == 41  # 20 bins per policy
    counts = [int(line.rsplit(",", 1)[1]) for line in plot[1:]]
    assert sum(counts) == 8


def test_histogram_counts_a_ratio_on_an_edge_in_the_bin_above():
    # Each of the 20 printed lower edges, as a ratio, counts in its own bin.
    edges = [format(1.0 + i * 0.1, ".2f") for i in range(21)]
    rows = [{"policy": "split", "ratio_vs_lb": float(low)} for low in edges[:-1]]
    rows += [{"policy": "unsplit", "ratio_vs_lb": r} for r in (0.5, 1.25, 2.999, 3.0, 7.0)]
    lines = cli._histogram(rows).splitlines()
    assert lines[0] == "policy,bin_low,bin_high,count"
    assert lines[1:21] == [f"split,{low},{high},1" for low, high in zip(edges, edges[1:])]
    unsplit = [int(line.rsplit(",", 1)[1]) for line in lines[21:]]
    assert unsplit == [1, 0, 1] + [0] * 16 + [3]


def test_report_files_an_edge_ratio_in_the_bin_it_starts(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    code, _, _ = run_cli(
        capsys, "gen", "--n", "1", "--capacity", "5", "--topology", "path",
        "--pmf", "det:2", "--out", str(corpus / "edge.json"),
    )
    assert code == 0
    out_csv = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "report", "--corpus-dir", str(corpus), "--out-csv", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert [row["ratio_vs_lb"] for row in rows] == ["1.2", "1.2"]
    plot = (tmp_path / "report.plot.csv").read_text(encoding="utf-8").splitlines()
    assert [line for line in plot[1:] if not line.endswith(",0")] == [
        "split,1.20,1.30,1", "unsplit,1.20,1.30,1",
    ]


def test_report_large_instance_is_exact_with_bounds(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    code, _, _ = run_cli(
        capsys, "gen", "--n", "200", "--capacity", "10", "--topology", "random-attachment",
        "--pmf", "unif:1-10", "--seed", "3", "--out", str(corpus / "big.json"),
    )
    assert code == 0
    out_csv = tmp_path / "report.csv"
    code, _, stderr = run_cli(
        capsys, "report", "--corpus-dir", str(corpus), "--out-csv", str(out_csv)
    )
    assert code == 0
    assert stderr == ""
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert [row["policy"] for row in rows] == ["split", "unsplit"]
    for row in rows:
        assert row["mode"] == "exact"
        clairvoyant = float(row["clairvoyant_lb"])
        assert float(row["tour_floor"]) <= clairvoyant <= float(row["expected_cost"])
        assert float(row["sharpened_ratio"]) == float(row["expected_cost"]) / clairvoyant


def test_report_empty_directory(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    out_csv = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys, "report", "--corpus-dir", str(empty), "--out-csv", str(out_csv)
    )
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("instance,policy,mode,expected_cost")


def test_report_partial_failure(tmp_path, capsys, corpus_dir):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "E1.json").write_text(
        (corpus_dir / "E1.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    (mixed / "broken.json").write_text("{nope", encoding="utf-8")
    out_csv = tmp_path / "report.csv"
    code, _, stderr = run_cli(
        capsys, "report", "--corpus-dir", str(mixed), "--out-csv", str(out_csv)
    )
    assert code == 1
    assert "broken.json" in stderr
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert [row["instance"] for row in rows] == ["E1", "E1"]


HUGE_LENGTH_DOC = (
    '{"name": "huge", "capacity": 2, "edges": [[0, 1, ' + "1" + "0" * 400 + ']], '
    '"demands": [{"node": 1, "pmf": {"1": 1.0}}]}'
)


def test_huge_integer_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(HUGE_LENGTH_DOC, encoding="utf-8")
    code, _, stderr = run_cli(capsys, "bounds", "--instance", str(path))
    assert code == 2
    assert "edges[0].length: an integer of 401 digits, too large for a float" in stderr
    assert len(stderr) < 200


def test_report_lists_a_huge_integer_instance_as_failed(tmp_path, capsys, corpus_dir):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "E1.json").write_text(
        (corpus_dir / "E1.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    (mixed / "huge.json").write_text(HUGE_LENGTH_DOC, encoding="utf-8")
    out_csv = tmp_path / "report.csv"
    code, _, stderr = run_cli(
        capsys, "report", "--corpus-dir", str(mixed), "--out-csv", str(out_csv)
    )
    assert code == 1
    assert "error: huge.json: edges[0].length: an integer of 401 digits" in stderr
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert [row["instance"] for row in rows] == ["E1", "E1"]


HUGE = "1" + "0" * 400
HUGE_CAPACITY_DOC = (
    '{"name": "huge", "capacity": ' + HUGE + ', "edges": [[0, 1, 1.0]], '
    '"demands": [{"node": 1, "pmf": {"1": 1.0}}]}'
)
CAPACITY_MESSAGE = "capacity: an integer of 401 digits, too large for a float"


@pytest.mark.parametrize("argv", [["bounds"], ["evaluate", "--policy", "split"]])
def test_huge_capacity_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "huge.json"
    path.write_text(HUGE_CAPACITY_DOC, encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, *argv, "--instance", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {CAPACITY_MESSAGE}\n"


def test_report_lists_a_huge_capacity_instance_as_failed(tmp_path, capsys, corpus_dir):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "E1.json").write_text(
        (corpus_dir / "E1.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    (mixed / "huge.json").write_text(HUGE_CAPACITY_DOC, encoding="utf-8")
    out_csv = tmp_path / "report.csv"
    code, _, stderr = run_cli(
        capsys, "report", "--corpus-dir", str(mixed), "--out-csv", str(out_csv)
    )
    assert code == 1
    assert f"error: huge.json: {CAPACITY_MESSAGE}\n" in stderr
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert [row["instance"] for row in rows] == ["E1", "E1"]


def test_gen_refuses_a_capacity_too_large_for_a_float(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, stdout, stderr = run_cli(
        capsys, "gen", "--n", "2", "--capacity", "9" * 400, "--pmf", "det:1", "--out", str(out)
    )
    assert (code, stdout) == (2, "")
    assert stderr == "error: capacity: an integer of 400 digits, too large for a float\n"
    assert not out.exists()


SURROGATE_MESSAGE = "name: a lone surrogate at character 2 cannot be encoded as UTF-8"


def _surrogate_named_e1(corpus_dir, path):
    doc = json.loads((corpus_dir / "E1.json").read_text(encoding="utf-8"))
    doc["name"] = "E1\ud800"
    path.write_text(json.dumps(doc), encoding="utf-8")  # ASCII: the surrogate is escaped


def test_evaluate_refuses_a_name_that_is_not_utf8(tmp_path, capsys, corpus_dir):
    path = tmp_path / "bad.json"
    _surrogate_named_e1(corpus_dir, path)
    code, stdout, stderr = run_cli(
        capsys, "evaluate", "--instance", str(path), "--policy", "split", "--format", "csv"
    )
    assert (code, stdout, stderr) == (2, "", f"error: {SURROGATE_MESSAGE}\n")


def test_report_lists_a_name_that_is_not_utf8_as_failed(tmp_path, capsys, corpus_dir):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "E1.json").write_text(
        (corpus_dir / "E1.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    _surrogate_named_e1(corpus_dir, mixed / "bad.json")
    out_csv = tmp_path / "report.csv"
    code, _, stderr = run_cli(
        capsys, "report", "--corpus-dir", str(mixed), "--out-csv", str(out_csv)
    )
    assert code == 1
    assert f"error: bad.json: {SURROGATE_MESSAGE}\n" in stderr
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert [row["instance"] for row in rows] == ["E1", "E1"]


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe", "invalid start byte at byte 0"),
    # past the first read buffer, the offset is still the file's
    (b" " * 10_000 + b"{\xc3(", "invalid continuation byte at byte 10001"),
], ids=["first-byte", "past-the-read-buffer"])
@pytest.mark.parametrize("argv", [["bounds"], ["evaluate", "--policy", "split"], ["simulate", "--policy", "split"]])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv, data, message):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert run_cli(capsys, *argv, "--instance", str(path)) == (2, "", f"error: not valid UTF-8: {message}\n")


def test_report_lists_a_file_that_is_not_utf8_as_failed(tmp_path, capsys, corpus_dir):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "E1.json").write_bytes((corpus_dir / "E1.json").read_bytes())
    (mixed / "bad.json").write_bytes(b"\xff\xfe")
    out_csv = tmp_path / "report.csv"
    code, stdout, stderr = run_cli(
        capsys, "report", "--corpus-dir", str(mixed), "--out-csv", str(out_csv)
    )
    assert (code, stdout) == (1, f"{out_csv}\n")
    assert stderr == (
        "error: bad.json: not valid UTF-8: invalid start byte at byte 0\n"
        "report: 1 instance(s) failed\n"
    )
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert [row["instance"] for row in rows] == ["E1", "E1"]


@pytest.mark.parametrize("capacity", ["0", "-1"])
def test_a_capacity_below_one_is_named_as_the_capacity(tmp_path, capsys, capacity):
    path = tmp_path / "x.json"
    path.write_text(
        '{"name": "x", "capacity": ' + capacity + ', "edges": [[0, 1, 1.0]], '
        '"demands": [{"node": 1, "pmf": {"1": 1.0}}]}',
        encoding="utf-8",
    )
    code, stdout, stderr = run_cli(capsys, "bounds", "--instance", str(path))
    assert (code, stdout, stderr) == (2, "", f"error: capacity: expected an integer >= 1, got {capacity}\n")


@pytest.mark.parametrize("spec, message", [
    ("unif:3-1", "empty range 3-1"),
    ("unif:1-5", "demand 4 outside 0..3"),
    ("two:1,1.5,2", "probability 1.5 outside [0,1]"),
    ("foo:1", "unknown pmf family 'foo'"),
])
def test_gen_names_what_is_wrong_with_a_pmf_spec(tmp_path, capsys, spec, message):
    out = tmp_path / "x.json"
    code, stdout, stderr = run_cli(capsys, "gen", "--n", "2", "--capacity", "3", "--pmf", spec, "--out", str(out))
    assert (code, stdout, stderr) == (2, "", f"error: pmf spec {spec!r}: {message}\n")
    assert not out.exists()


def test_gen_refuses_a_unif_range_past_the_capacity_before_listing_it(tmp_path, capsys):
    out = tmp_path / "x.json"
    spec = "unif:1-" + "9" * 400  # its weight 1 / (hi - lo + 1) would overflow a float
    code, stdout, stderr = run_cli(capsys, "gen", "--n", "1", "--capacity", "3", "--pmf", spec, "--out", str(out))
    assert (code, stdout, stderr) == (
        2, "", "error: pmf spec 'unif:1-9999999999999' ... (407 characters): demand 4 outside 0..3\n",
    )
    assert not out.exists()


def _long_edged_document(path, lengths, capacity=2, pmf='{"1": 0.5, "2": 0.5}'):
    """A path of ``len(lengths)`` customers, each with demand ``pmf`` (by
    default 1 or 2, with Q = 2)."""
    edges = ", ".join(f"[{v - 1}, {v}, {length!r}]" for v, length in enumerate(lengths, 1))
    demands = ", ".join(f'{{"node": {v}, "pmf": {pmf}}}' for v in range(1, len(lengths) + 1))
    path.write_text(f'{{"name": "long", "capacity": {capacity}, "edges": [{edges}], "demands": [{demands}]}}',
                    encoding="utf-8")


def _overflow_message(n):
    return (f"error: edges: edge lengths sum past {sys.float_info.max / (4 * (n + 1))!r}: at n = {n} "
            "a walk can cost up to (2 + 4n) times the sum, which must stay a finite float\n")


@pytest.mark.parametrize("lengths", [(1e308, 1e308), (1e308,)])
@pytest.mark.parametrize("command", [
    ("bounds",),
    ("evaluate", "--policy", "unsplit"),
    ("evaluate", "--policy", "split", "--mode", "mc", "--samples", "2"),
    ("simulate", "--policy", "split", "--load", "1"),
])
def test_commands_refuse_lengths_whose_costs_could_overflow(tmp_path, capsys, lengths, command):
    # The sum of two lengths of 1e308 overflowed build_tree's fsum; one made
    # 2S infinite, so an exact cost summed inf and -inf, and a trace with a
    # deficit overflowed its own fsum.  Each died with a traceback.
    path = tmp_path / "long.json"
    _long_edged_document(path, lengths)
    if command[0] == "simulate":
        command += ("--demands", ",".join(["2"] * len(lengths)))
    code, stdout, stderr = run_cli(capsys, command[0], "--instance", str(path), *command[1:])
    assert (code, stdout, stderr) == (2, "", _overflow_message(len(lengths)))


def test_report_lists_lengths_whose_costs_could_overflow_as_failed(tmp_path, capsys, corpus_dir):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "E1.json").write_text((corpus_dir / "E1.json").read_text(encoding="utf-8"), encoding="utf-8")
    _long_edged_document(mixed / "long.json", (1e308, 1e308))
    out_csv = tmp_path / "report.csv"
    code, _, stderr = run_cli(capsys, "report", "--corpus-dir", str(mixed), "--out-csv", str(out_csv))
    assert code == 1
    assert "error: long.json: " + _overflow_message(2)[len("error: "):] in stderr
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert [row["instance"] for row in rows] == ["E1", "E1"]


def test_lengths_at_the_overflow_limit_load_and_every_cost_is_finite(tmp_path, capsys):
    half = sys.float_info.max / 24  # two edges summing to the limit at n = 2
    # With demand 100 at Q = 100 a radial term d(0, i) * E[D_i], and the edge
    # bound's 2 * len * E[D], pass the largest float; the bounds do not.
    documents = {"long": (2, '{"1": 0.5, "2": 0.5}'), "demanding": (100, '{"100": 1.0}')}
    outputs = []
    for name, (capacity, pmf) in documents.items():
        (tmp_path / name).mkdir()
        path = tmp_path / name / f"{name}.json"
        _long_edged_document(path, (half, half), capacity, pmf)
        for command in (
            ("bounds",),
            ("evaluate", "--policy", "split", "--format", "csv"),
            ("evaluate", "--policy", "unsplit", "--format", "csv"),
            ("evaluate", "--policy", "split", "--mode", "mc", "--samples", "20"),
            ("evaluate", "--policy", "unsplit", "--mode", "mc", "--samples", "20"),
            # a deficit at both stops: unsplit's costliest walk
            ("simulate", "--policy", "unsplit", "--demands", "2,2", "--load", "1"),
            ("simulate", "--policy", "split", "--demands", "2,2", "--load", "1"),
        ):
            code, stdout, stderr = run_cli(capsys, command[0], "--instance", str(path), *command[1:])
            assert (code, stderr) == (0, "")
            outputs.append(stdout)
        out_csv = tmp_path / f"{name}.csv"
        code, _, stderr = run_cli(capsys, "report", "--corpus-dir", str(path.parent), "--out-csv", str(out_csv))
        assert (code, stderr) == (0, "")
        outputs.append(out_csv.read_text(encoding="utf-8"))
    assert "inf" not in "".join(outputs) and "nan" not in "".join(outputs)


def test_monte_carlo_squares_long_deviations_without_overflow(tmp_path, capsys):
    # A deviation past about 1.3e154 overflowed its square with a traceback.
    path = tmp_path / "long.json"
    _long_edged_document(path, (1e160, 1e160))
    for policy in ("split", "unsplit"):
        code, stdout, stderr = run_cli(
            capsys, "evaluate", "--instance", str(path), "--policy", policy,
            "--mode", "mc", "--samples", "20",
        )
        assert (code, stderr) == (0, "")
        estimate = json.loads(stdout)["estimate"]
        assert 4e160 <= estimate["mean"] <= 2e161  # every cost lies in [2S, (2 + 4n)S]
        assert 1e158 < estimate["stderr"] < 1e161


def test_radial_bound_at_a_capacity_near_the_largest_float(tmp_path, capsys):
    # 2^-bit_length(Q) would be subnormal here; the scale stops at 2^-1022.
    capacity = 2**1023
    path = tmp_path / "huge.json"
    _long_edged_document(path, (sys.float_info.max / 24,) * 2, capacity, f'{{"{capacity}": 1.0}}')
    outputs = []
    for command in (("bounds",), *(("evaluate", "--policy", p, "--format", "csv") for p in ("split", "unsplit"))):
        code, stdout, stderr = run_cli(capsys, command[0], "--instance", str(path), *command[1:])
        assert (code, stderr) == (0, "")
        outputs.append(stdout)
    assert "inf" not in "".join(outputs) and "nan" not in "".join(outputs)
    # every demand is Q, so R = 2 * sum_i d(0, i) = 6 * (largest / 24)
    assert outputs[0].splitlines()[1] == f"bertsimas {6 * (sys.float_info.max / 24)!r}"


def test_gen_refuses_lengths_that_every_loader_refuses(tmp_path, capsys):
    out = tmp_path / "g.json"
    out.write_text("old\n", encoding="utf-8")
    length = "1" + "0" * 307  # two edges of 1e307 sum past the limit at n = 2
    code, stdout, stderr = run_cli(capsys, "gen", "--n", "2", "--capacity", "2", "--pmf", "det:1",
                                   "--length-range", length, length, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == "error: length_range: " + _overflow_message(2)[len("error: edges: "):]
    assert out.read_text(encoding="utf-8") == "old\n"


def test_gen_writes_lengths_at_the_limit_and_they_load(tmp_path, capsys):
    out = tmp_path / "g.json"
    length = f"{sys.float_info.max / 24:.0f}"  # as digits; reads back exactly
    code, _, _ = run_cli(capsys, "gen", "--n", "2", "--capacity", "2", "--pmf", "det:1",
                         "--length-range", length, length, "--out", str(out))
    assert code == 0
    code, stdout, stderr = run_cli(capsys, "bounds", "--instance", str(out))
    assert (code, stderr) == (0, "")
    assert stdout.splitlines()[0] == f"tour_floor {sys.float_info.max / 6!r}"


@pytest.mark.parametrize("edges, node, pmf, message", [
    (f"[[{HUGE}, 1, 1.0]]", "1", '{"1": 1.0}',
     "edges: edge (<an integer of 401 digits, too large for a float>, 1) names a vertex "
     "outside 0..1; vertices must be dense"),
    ("[[0, 1, 1.0]]", "1", f'{{"{HUGE}": 1.0}}',
     "demands[0] (node 1): demand <an integer of 401 digits, too large for a float> "
     "outside 0..2"),
    ("[[0, 1, 1.0]]", HUGE, '{"1": 1.0}',
     "demands must cover each customer 1..1 exactly once: node <an integer of 401 digits, "
     "too large for a float> at position 0 is outside 1..1 or repeated"),
])
def test_range_messages_name_huge_integers_by_size(tmp_path, capsys, edges, node, pmf, message):
    path = tmp_path / "huge.json"
    path.write_text(
        f'{{"name": "x", "capacity": 2, "edges": {edges}, '
        f'"demands": [{{"node": {node}, "pmf": {pmf}}}]}}',
        encoding="utf-8",
    )
    code, _, stderr = run_cli(capsys, "bounds", "--instance", str(path))
    assert code == 2
    assert stderr == f"error: {message}\n"
    assert len(stderr) < 160  # the value in full would take 401 bytes


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("first, second", [
    (["simulate", "--policy", "split", "--seed", "3", "--load", "2"],
     ["simulate", "--policy", "split", "--seed", "3"]),
    (["evaluate", "--policy", "unsplit", "--format", "csv"],
     ["evaluate", "--policy", "unsplit"]),
])
def test_cached_parser_carries_nothing_between_calls(capsys, corpus_dir, first, second):
    # Each call prints what it prints on a freshly built parser, so an
    # option of the first call does not leak into the second.
    instance = ["--instance", str(corpus_dir / "caterpillar-n7-q6-s114.json")]
    cached = [run_cli(capsys, *argv, *instance) for argv in (first, second)]
    fresh = []
    for argv in (first, second):
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv, *instance))
    assert cached == fresh
    assert cached[0][0] == 0 and cached[0][1] != cached[1][1]


def _count_report_work(monkeypatch) -> tuple[Counter, list[str]]:
    """Count walk geometries, evaluator preorders, bound sets, radial bounds
    and edge bounds built; list the clairvoyant modes the report asks for."""
    calls: Counter = Counter()
    modes: list[str] = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def clairvoyant(tree, model, mode):
        modes.append(mode)
        return expected_clairvoyant_lb(tree, model, mode=mode)

    monkeypatch.setattr(WalkGeometry, "__init__", counted("geometry", WalkGeometry.__init__))
    monkeypatch.setattr(evaluator, "dfs_order", counted("dfs_order", evaluator.dfs_order))
    monkeypatch.setattr(cli, "bound_set", counted("bound_set", cli.bound_set))
    monkeypatch.setattr(evaluator, "bound_set", counted("bound_set", evaluator.bound_set))
    radial = counted("radial", bounds.bertsimas_lb)
    monkeypatch.setattr(bounds, "bertsimas_lb", radial)
    # the evaluator once imported the radial bound under its own name
    monkeypatch.setattr(evaluator, "bertsimas_lb", radial, raising=False)
    monkeypatch.setattr(oracle, "_expected_edge_lb", counted("edge", oracle._expected_edge_lb))
    monkeypatch.setattr(cli, "expected_clairvoyant_lb", clairvoyant)
    return calls, modes


@pytest.mark.parametrize("n", [12, 6])
def test_report_builds_bounds_and_edge_bound_once_and_no_walk(tmp_path, capsys, monkeypatch, n):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "inst.json"
    run_cli(
        capsys, "gen", "--n", str(n), "--capacity", "4", "--topology", "random-attachment",
        "--pmf", "unif:1-3", "--seed", "2", "--length-range", "0.5", "2.0", "--out", str(path),
    )
    calls, modes = _count_report_work(monkeypatch)
    out_csv = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "report", "--corpus-dir", str(corpus), "--out-csv", str(out_csv))
    assert code == 0
    # the exact costs are arithmetic on the bounds: no WalkGeometry, no preorder
    assert (calls["geometry"], calls["dfs_order"]) == (0, 0)
    # both exact costs read the one bound set's radial bound
    assert calls == {"bound_set": 1, "radial": 1, "edge": 1}
    rows = {row["policy"]: row for row in csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines())}
    tree, model = parse_instance(path.read_text(encoding="utf-8"))
    edge = expected_clairvoyant_lb(tree, model, mode="edge")
    assert float(rows["split"]["clairvoyant_lb"]) == edge
    if n <= oracle.PARTITION_MAX_CUSTOMERS:
        # the unsplit row still reads the partition oracle
        assert modes == ["edge", "partition"]
        partition = expected_clairvoyant_lb(tree, model, mode="partition")
        assert float(rows["unsplit"]["clairvoyant_lb"]) == partition != edge
    else:
        assert modes == ["edge"]
        assert float(rows["unsplit"]["clairvoyant_lb"]) == edge


def test_report_skips_the_partition_oracle_over_the_enumeration_cap(tmp_path, capsys, monkeypatch):
    # 3^10 = 59,049 joint vectors, over the 4096 cap: report must not
    # start the partition search, which would take minutes here.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    code, _, _ = run_cli(
        capsys, "gen", "--n", "10", "--capacity", "4", "--topology", "path", "--pmf", "unif:1-3",
        "--seed", "5", "--length-range", "0.5", "2.0", "--out", str(corpus / "inst.json"),
    )
    assert code == 0

    def refuse(*args):
        raise AssertionError("the partition oracle ran over the enumeration cap")

    monkeypatch.setattr(oracle, "optimal_unsplit_partition", refuse)
    out_csv = tmp_path / "report.csv"
    code, _, stderr = run_cli(capsys, "report", "--corpus-dir", str(corpus), "--out-csv", str(out_csv))
    assert (code, stderr) == (0, "")
    rows = {row["policy"]: row for row in csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines())}
    assert rows["unsplit"]["clairvoyant_lb"] == rows["unsplit"]["sharpened_ratio"] == ""


def test_report_leaves_the_edge_bound_empty_over_its_transform_cap(tmp_path, capsys, monkeypatch):
    # Two customers in a row, each demanding 1 or Q = 10^8: the edge bound's
    # transforms would hold 1.5 * 10^8 entries, minutes of work.  The split
    # row's bound cells are left empty; the unsplit row reads the partition
    # oracle, which enumerates 4 vectors.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    capacity = 10**8
    pmf = {"1": 0.5, str(capacity): 0.5}
    text = json.dumps({
        "name": "two", "capacity": capacity, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
        "demands": [{"node": v, "pmf": pmf} for v in (1, 2)],
    })
    (corpus / "two.json").write_text(text, encoding="utf-8")

    def refuse(*args):
        raise AssertionError("a transform was built over the edge bound's cap")

    monkeypatch.setattr(oracle, "_transform", refuse)
    out_csv = tmp_path / "report.csv"
    start = time.perf_counter()
    code, _, stderr = run_cli(capsys, "report", "--corpus-dir", str(corpus), "--out-csv", str(out_csv))
    assert time.perf_counter() - start < 10
    assert (code, stderr) == (0, "")
    rows = {row["policy"]: row for row in csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines())}
    assert rows["split"]["clairvoyant_lb"] == rows["split"]["sharpened_ratio"] == ""
    tree, model = parse_instance(text)
    assert float(rows["unsplit"]["clairvoyant_lb"]) == expected_clairvoyant_lb(tree, model, mode="partition")
    assert rows["unsplit"]["sharpened_ratio"] != ""


@pytest.mark.parametrize("spelling", ["same.csv", "./same.csv", "link.csv"])
def test_report_refuses_a_plot_file_that_is_its_csv(tmp_path, capsys, corpus_dir, monkeypatch, spelling):
    monkeypatch.chdir(tmp_path)
    before = {}
    if spelling == "link.csv":  # an existing CSV and a hard link to it
        (tmp_path / "same.csv").write_text("old\n", encoding="utf-8")
        os.link(tmp_path / "same.csv", tmp_path / "link.csv")
        before = {"same.csv": "old\n", "link.csv": "old\n"}
    code, stdout, stderr = run_cli(
        capsys, "report", "--corpus-dir", str(corpus_dir), "--out-csv", "same.csv", "--out-plot", spelling,
    )
    assert (code, stdout) == (2, "")
    assert stderr == f"error: --out-plot {spelling!r} names the same file as --out-csv 'same.csv'\n"
    assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("flags, message", [
    (["--out-csv", "missing/r.csv"], "--out-csv 'missing/r.csv': 'missing' is not a directory"),
    (["--out-csv", "file.txt/r.csv"], "--out-csv 'file.txt/r.csv': 'file.txt' is not a directory"),
    (["--out-csv", "r.csv", "--out-plot", "missing/p.csv"],
     "--out-plot 'missing/p.csv': 'missing' is not a directory"),
    (["--out-csv", "r.csv", "--out-plot", "file.txt/p.csv"],
     "--out-plot 'file.txt/p.csv': 'file.txt' is not a directory"),
], ids=["csv-missing", "csv-under-a-file", "plot-missing", "plot-under-a-file"])
def test_report_refuses_an_output_outside_a_directory(tmp_path, capsys, corpus_dir, monkeypatch, flags, message):
    # Checked before any work: an existing CSV keeps its bytes and nothing is created.
    monkeypatch.chdir(tmp_path)
    before = {"r.csv": "old\n", "file.txt": "text\n"}
    for name, text in before.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "report", "--corpus-dir", str(corpus_dir), *flags)
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("flags", [
    ["--out-csv", "r.csv", "--out-plot", "taken"],
    ["--out-csv", "taken", "--out-plot", "r.csv"],
], ids=["plot-is-a-directory", "csv-is-a-directory"])
def test_report_leaves_the_other_output_when_one_cannot_be_opened(
    tmp_path, capsys, corpus_dir, monkeypatch, flags
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    (tmp_path / "r.csv").write_text("old\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "report", "--corpus-dir", str(corpus_dir), *flags)
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: [Errno 21] Is a directory: 'taken'")
    assert (tmp_path / "r.csv").read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "taken"]


GEN_ARGS = ("gen", "--n", "40", "--capacity", "5", "--topology", "random-attachment",
            "--pmf", "unif:1-5", "--seed", "3", "--length-range", "0.5", "2.0")


@pytest.mark.parametrize("command", ["report", "gen"])
def test_outputs_written_over_longer_files_equal_fresh_writes(tmp_path, capsys, corpus_dir, command):
    def run(directory: Path) -> dict[str, bytes]:
        if command == "report":
            argv = ["report", "--corpus-dir", str(corpus_dir), "--out-csv", str(directory / "r.csv")]
        else:
            argv = [*GEN_ARGS, "--out", str(directory / "g.json")]
        assert run_cli(capsys, *argv)[0] == 0
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    fresh_dir, old_dir = tmp_path / "fresh", tmp_path / "old"
    fresh_dir.mkdir()
    old_dir.mkdir()
    fresh = run(fresh_dir)
    assert sorted(fresh) == (["r.csv", "r.plot.csv"] if command == "report" else ["g.json"])
    for name, data in fresh.items():
        (old_dir / name).write_bytes(b"x" * (len(data) + 4096))
    assert run(old_dir) == fresh


def test_report_whose_plot_fails_leaves_both_outputs_as_they_were(tmp_path, capsys, corpus_dir, monkeypatch):
    out_csv, plot = tmp_path / "r.csv", tmp_path / "r.plot.csv"
    out_csv.write_bytes(b"old table\n")
    plot.write_bytes(b"x" * 4096)

    def fail(rows):
        raise OSError("no space left")

    monkeypatch.setattr(cli, "_histogram", fail)
    code, stdout, stderr = run_cli(capsys, "report", "--corpus-dir", str(corpus_dir), "--out-csv", str(out_csv))
    assert (code, stdout, stderr) == (1, "", "error: no space left\n")
    assert out_csv.read_bytes() == b"old table\n"
    assert plot.read_bytes() == b"x" * 4096


@pytest.mark.parametrize("out, message", [
    ("missing/x.json", "--out 'missing/x.json': 'missing' is not a directory"),
    ("file.txt/x.json", "--out 'file.txt/x.json': 'file.txt' is not a directory"),
], ids=["missing", "under-a-file"])
def test_gen_refuses_an_output_outside_a_directory_before_generating(tmp_path, capsys, monkeypatch, out, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.txt").write_text("text\n", encoding="utf-8")

    def generate(params):
        raise AssertionError("generated before the output directory was checked")

    monkeypatch.setattr(cli, "generate_document", generate)
    code, stdout, stderr = run_cli(capsys, *GEN_ARGS, "--out", out)
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_gen_writes_to_a_file_that_cannot_be_cut(capsys):
    # A character device takes the text but has no length to cut it to.
    code, stdout, stderr = run_cli(capsys, *GEN_ARGS, "--out", os.devnull)
    assert (code, stdout, stderr) == (0, f"{os.devnull}\n", "")


def test_report_missing_directory_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "report", "--corpus-dir", str(tmp_path / "missing"),
        "--out-csv", str(tmp_path / "r.csv"),
    )
    assert code == 2


def test_console_entry_point_runs():
    # The child process finds the package where this suite imported it
    # from, also when only pytest's own pythonpath setting put it there.
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "treevrpsd", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "gen" in result.stdout and "report" in result.stdout


def test_benchmark_tracer_finds_every_traced_name():
    # perfbench/tracing.py wraps program names where the modules import them
    # (evaluator.enumerate_joint, oracle.clairvoyant_edge_lb,
    # policy.path_distance, ...), so some imports exist only for the tracer.
    # Dropping one, or renaming a traced method, fails here rather than in
    # the benchmark's traced mode.
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def module(name):
        return importlib.import_module(f"{tracing.PACKAGE}.{name}")

    missing = [f"{m}.{name}" for m, name, _ in tracing.FUNCTIONS if not hasattr(module(m), name)]
    missing += [
        f"{m}.{cls}.{method}"
        for m, cls, method, _ in tracing.METHODS
        if method not in vars(getattr(module(m), cls, object))
    ]
    assert missing == []
    tracing.Tracer()


def test_benchmark_tracer_times_both_costs(tmp_path, corpus_dir):
    # The tracer patches evaluator.exact_expected_cost and
    # evaluator.monte_carlo_cost; the CLI must call them through the module,
    # or the two layers would read 0 in the benchmark's traced mode.
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    instance = corpus / "E3.json"
    instance.write_bytes((corpus_dir / "E3.json").read_bytes())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["report", "--corpus-dir", str(corpus), "--out-csv", str(tmp_path / "r.csv")]) == 0
            assert main(["evaluate", "--instance", str(instance), "--policy", "split",
                         "--mode", "mc", "--samples", "20"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.self_time["evaluator.exact_expected_cost"] > 0
    assert tracer.self_time["evaluator.monte_carlo_cost"] > 0


def test_every_tracer_only_import_is_traced():
    # The reverse of the check above: an import kept only for the tracer
    # ("# noqa: F401" in src/) must still be a (module, name) pair in
    # FUNCTIONS, so that one the benchmark stops wrapping does not linger.
    import ast
    import importlib.util

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_tracing", root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {(module, name) for module, name, _ in tracing.FUNCTIONS}

    kept = []
    for path in sorted((root / "src" / "treevrpsd").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                kept += [(path.stem, alias.asname or alias.name) for alias in node.names]
    assert kept, "no tracer-only imports found"
    assert [pair for pair in kept if pair not in traced] == []


def test_scale_script_imports_resolve():
    # perfbench/scale.py imports program names directly; a move such as a
    # function leaving src/ for tests/helpers.py must not break it silently.
    import ast
    import importlib

    path = Path(__file__).resolve().parent.parent / "perfbench" / "scale.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("treevrpsd")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
