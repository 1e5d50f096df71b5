"""The benchmark's three workloads: their inputs, operations and output checks.

Each workload draws a fixed list of inputs from its seed and cycles
through it, one operation per input.  All inputs of a workload are of
one size class, so every operation does about the same work and every
run, whatever its seed, does the same mix.

* ``report-exact``: ``report`` over a directory holding one 12-customer
  instance with two-valued pmfs (joint support 2^12), on all four
  topologies.  Exact enumeration and the edge-mode clairvoyant bound do
  nearly all the work; the partition oracle stays off above 10
  customers.
* ``simulate-deep``: ``simulate`` split then unsplit on one deep tree
  with the same seed.  Full trace execution and formatting dominate.
* ``io-large``: ``gen`` then ``evaluate --mode mc`` on a shallow tree
  with 10-valued pmfs.  Serializing, parsing and building the instance
  take most of the time, the sampler and the walk-cost kernel most of
  the rest.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import CheckError, Instance, at_most, close, replay_trace

TOPOLOGIES = ("path", "star", "random-attachment", "caterpillar")
POLICIES = ("split", "unsplit")
LENGTH_RANGE = ("0.5", "2.0")

# A Monte Carlo estimate passes when it lies within this many standard
# errors of the closed form: wide enough that a correct new random
# stream does not fail by chance, narrow enough that a biased one does.
MC_SIGMAS = 6.0

REPORT_CUSTOMERS, REPORT_CAPACITY = 12, 4
# Two-valued pmfs keep the documents small, so trace execution rather
# than parsing takes most of a simulate operation.
DEEP_CUSTOMERS = {"path": 1100, "caterpillar": 1400}
DEEP_CAPACITY, DEEP_PMF = 10, "two:3,0.5,10"
IO_CUSTOMERS, IO_CAPACITY, IO_SAMPLES = 2000, 10, 48


@dataclass
class Op:
    """One operation: CLI calls run in sequence, then a check of their stdout."""

    argvs: list[list[str]]
    check: Callable[[list[str]], None]


@dataclass
class Workload:
    """Generator calls run at set-up, and the operations built from their files."""

    gens: list[list[str]]
    dirs: list[Path]
    make_ops: Callable[[], list[Op]]


def gen_argv(out: Path, n: int, capacity: int, topology: str, pmf: str, seed: int) -> list[str]:
    return [
        "gen", "--n", str(n), "--capacity", str(capacity), "--topology", topology,
        "--pmf", pmf, "--seed", str(seed), "--length-range", *LENGTH_RANGE, "--out", str(out),
    ]


def mc_argv(path: Path, policy: str, samples: int, seed: int) -> list[str]:
    return [
        "evaluate", "--instance", str(path), "--policy", policy, "--mode", "mc",
        "--samples", str(samples), "--seed", str(seed),
    ]


def check_bounds(row: dict, inst: Instance, policy: str) -> None:
    close(float(row["tour_floor"]), inst.tour_floor, "tour_floor")
    close(float(row["bertsimas"]), inst.bertsimas, "bertsimas")
    close(float(row["combined_lb"]), max(inst.tour_floor, inst.bertsimas), "combined_lb")
    close(float(row["formula_ub"]), inst.formula_ub(policy), "formula_ub")


def check_estimate(payload: dict, inst: Instance, policy: str, samples: int, seed: int) -> None:
    """Check one ``evaluate --mode mc`` JSON payload against the closed form."""
    if (payload["instance"], payload["policy"], payload["mode"]) != (inst.name, policy, "monte_carlo"):
        raise CheckError(f"unexpected header {payload['instance']}/{payload['policy']}/{payload['mode']}")
    check_bounds(payload, inst, policy)
    est = payload["estimate"]
    if (est["samples"], est["seed"]) != (samples, seed) or payload["expected_cost"] != est["mean"]:
        raise CheckError("estimate does not echo its samples, seed and mean")
    want = inst.expected_cost(policy)
    if not est["stderr"] > 0 or abs(est["mean"] - want) > MC_SIGMAS * est["stderr"]:
        raise CheckError(
            f"{policy} estimate {est['mean']!r} +- {est['stderr']!r} is more than "
            f"{MC_SIGMAS} standard errors from the closed form {want!r}"
        )


def check_report(csv_text: str, plot_text: str, inst: Instance) -> None:
    """Check one single-instance ``report`` CSV and its histogram file."""
    rows = list(csv.DictReader(csv_text.splitlines()))
    if sorted(row["policy"] for row in rows) != list(POLICIES):
        raise CheckError(f"expected one row per policy, got {len(rows)} rows")
    cost = {}
    for row in rows:
        policy = row["policy"]
        if row["instance"] != inst.name or row["mode"] != "exact" or row["ub_respected"] != "true":
            raise CheckError(f"{policy}: unexpected instance, mode or ub_respected")
        expected = float(row["expected_cost"])
        close(expected, inst.expected_cost(policy), f"{policy} expected_cost")
        check_bounds(row, inst, policy)
        at_most(float(row["combined_lb"]), expected, f"{policy} combined_lb <= expected_cost")
        at_most(expected, float(row["formula_ub"]), f"{policy} expected_cost <= formula_ub")
        clairvoyant = float(row["clairvoyant_lb"])
        at_most(inst.tour_floor, clairvoyant, f"{policy} tour_floor <= clairvoyant_lb")
        at_most(clairvoyant, expected, f"{policy} clairvoyant_lb <= expected_cost")
        cost[policy] = expected
    at_most(cost["split"], cost["unsplit"], "split <= unsplit")
    counted = sum(int(row["count"]) for row in csv.DictReader(plot_text.splitlines()))
    if counted != len(rows):
        raise CheckError(f"histogram counts {counted} ratios for {len(rows)} rows")


def check_traces(inst: Instance, seed: int, split_text: str, unsplit_text: str) -> None:
    """Replay both traces against the realization drawn from ``seed``."""
    demands, load = inst.realization(seed)
    split_bps = replay_trace(inst, "split", split_text, demands, load)
    unsplit_bps = replay_trace(inst, "unsplit", unsplit_text, demands, load)
    if set(split_bps) != set(unsplit_bps):
        raise CheckError("split and unsplit break at different customers")


def report_exact(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    gens, dirs = [], []
    for topology in TOPOLOGIES:
        for family in ("two", "unif"):
            if family == "two":
                pmf = f"two:1,{rng.choice((0.25, 0.5, 0.75))},{rng.randint(2, REPORT_CAPACITY)}"
            else:
                low = rng.randint(1, REPORT_CAPACITY - 1)
                pmf = f"unif:{low}-{low + 1}"
            directory = workdir / f"{topology}-{family}"
            dirs.append(directory)
            gens.append(gen_argv(
                directory / "instance.json", REPORT_CUSTOMERS, REPORT_CAPACITY, topology, pmf,
                rng.randrange(10**6),
            ))

    def make_ops() -> list[Op]:
        ops = []
        for directory in dirs:
            inst = Instance.from_path(directory / "instance.json")
            out_csv = directory / "report.csv"

            def check(outputs, inst=inst, out_csv=out_csv):
                check_report(
                    out_csv.read_text(encoding="utf-8"),
                    out_csv.with_suffix(".plot.csv").read_text(encoding="utf-8"),
                    inst,
                )

            ops.append(Op([["report", "--corpus-dir", str(directory), "--out-csv", str(out_csv)]], check))
        return ops

    return Workload(gens, dirs, make_ops)


def simulate_deep(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    inputs = []
    for k, topology in enumerate(("path", "caterpillar") * 2):
        path = workdir / f"{topology}-{k}.json"
        gen = gen_argv(path, DEEP_CUSTOMERS[topology], DEEP_CAPACITY, topology, DEEP_PMF, rng.randrange(10**6))
        inputs.append((gen, path, rng.randrange(10**6)))

    def make_ops() -> list[Op]:
        ops = []
        for _, path, sim_seed in inputs:
            inst = Instance.from_path(path)
            argvs = [
                ["simulate", "--instance", str(path), "--policy", policy, "--seed", str(sim_seed)]
                for policy in POLICIES
            ]

            def check(outputs, inst=inst, sim_seed=sim_seed):
                check_traces(inst, sim_seed, *outputs)

            ops.append(Op(argvs, check))
        return ops

    return Workload([gen for gen, _, _ in inputs], [workdir], make_ops)


def io_large(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    inputs = []
    for k, topology in enumerate(("random-attachment", "star") * 2):
        path = workdir / f"{topology}-{k}.json"
        gen = gen_argv(path, IO_CUSTOMERS, IO_CAPACITY, topology, f"unif:1-{IO_CAPACITY}", rng.randrange(10**6))
        inputs.append((gen, path, POLICIES[k // 2], rng.randrange(10**6)))

    def make_ops() -> list[Op]:
        ops = []
        for gen, path, policy, mc_seed in inputs:
            out = path.with_suffix(".op.json")
            want = path.read_bytes()

            def check(outputs, out=out, want=want, policy=policy, mc_seed=mc_seed):
                written = out.read_bytes()
                if written != want:
                    raise CheckError(f"{out.name}: gen is not byte-reproducible")
                inst = Instance(json.loads(written))
                check_estimate(json.loads(outputs[1]), inst, policy, IO_SAMPLES, mc_seed)

            argvs = [[*gen[:-1], str(out)], mc_argv(out, policy, IO_SAMPLES, mc_seed)]
            ops.append(Op(argvs, check))
        return ops

    return Workload([gen for gen, _, _, _ in inputs], [workdir], make_ops)


WORKLOADS = {
    "report-exact": report_exact,
    "simulate-deep": simulate_deep,
    "io-large": io_large,
}
