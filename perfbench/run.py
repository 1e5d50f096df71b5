"""Closed-loop benchmark of the treevrpsd command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload report-exact --seed 1 --seconds 36 --trace 0

One process, one thread and one caller: each operation enters through
``treevrpsd.cli.main`` in process with stdout captured, and the next
starts when it returns.  Every output is checked against computations
made apart from the program (``reference.py``); an operation that
errors or fails its check counts as failed.  A run cycles its
workload's fixed input list in whole rounds until it has spent
``--seconds`` in them and attempted at least 100 operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and prints per-op layer metrics instead
(``tracing.py``).  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it gives the time of a fixed reference loop before and after the
operations, a diagnostic of machine speed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from reference import CheckError  # noqa: E402
from tracing import OP_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# Enough operations per run that ten or more lie beyond the 90th percentile.
MIN_OPS = 100
MAX_REPORTED_FAILURES = 5


def call_cli(cli, argv: list[str], span=None) -> str:
    """Run one CLI command in process; return its stdout or raise on a non-zero exit."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = span(OP_SPAN, cli.main, argv) if span else cli.main(argv)
    if code != 0:
        raise CheckError(f"exit code {code} from {' '.join(argv[:1])}")
    return buffer.getvalue()


def set_up(workload):
    """Import the package afresh and generate the workload's inputs; return (cli, seconds)."""
    for directory in workload.dirs:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
    for name in [m for m in sys.modules if m.split(".")[0] == "treevrpsd"]:
        del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("treevrpsd.cli")
    for argv in workload.gens:
        call_cli(cli, argv)
    return cli, perf_counter() - start


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's current speed."""
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(perf_counter() - start)
    return statistics.median(times)


class Run:
    """Attempted and failed counts, latencies of the operations that passed, and busy time.

    ``busy`` adds up the time spent inside the program's commands, failed
    operations included; the benchmark's own checks are left out.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.busy = 0.0

    def attempt(self, cli, op, span=None) -> float | None:
        """Run and check one operation; return its latency, or None if it failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            try:
                outputs = [call_cli(cli, argv, span) for argv in op.argvs]
            finally:
                latency = perf_counter() - start
                self.busy += latency
            op.check(outputs)
        except CheckError as exc:
            self.failures.append(f"{op.argvs[0][0]}: {exc}")
            return None
        except Exception:  # a crash inside the program is one failed operation
            self.failures.append(traceback.format_exc())
            return None
        self.latencies.append(latency)
        return latency


def measure(workload, seconds: float) -> tuple[Run, dict]:
    """Cycle whole rounds for ``seconds``, with SETUP_REPEATS set-ups spread over the run.

    The run spends ``seconds`` in rounds (operations and their checks;
    set-ups are not counted) and attempts at least MIN_OPS operations.
    Set-ups are spread rather than run back to back so that their median,
    like the operations, spans the machine's slow and fast phases.
    """
    cli, first = set_up(workload)
    setups = [first]
    ops = workload.make_ops()
    run = Run()
    elapsed = 0.0
    while True:
        start = perf_counter()
        for op in ops:
            run.attempt(cli, op)
        elapsed += perf_counter() - start
        if elapsed >= seconds and run.attempted >= MIN_OPS:
            break
        if len(setups) < SETUP_REPEATS * elapsed / seconds:
            cli, setup = set_up(workload)
            setups.append(setup)
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(workload)[1])
    lat = run.latencies
    if len(lat) < 2:
        return run, {}
    metrics = {
        "ops_per_s": (len(lat) / run.busy, "ops/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10)[-1], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return run, metrics


def measure_traced(workload, seconds: float) -> tuple[Run, dict]:
    """Alternate each operation untraced and traced; layer metrics per traced op."""
    cli, _ = set_up(workload)
    ops = workload.make_ops()
    run = Run()
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while True:
        for op in ops:
            plain = run.attempt(cli, op)
            tracer.install()
            try:
                spanned = run.attempt(cli, op, tracer.span)
            finally:
                tracer.uninstall()
            if plain is not None and spanned is not None:
                untraced.append(plain)
                traced.append(spanned)
        if perf_counter() - start >= seconds:
            break
    if not traced:
        return run, {}
    overhead = statistics.fmean(traced) - statistics.fmean(untraced)
    metrics = layer_metrics(tracer, len(traced), overhead)
    units = {name: "s" if name.endswith(".s") else "count" for name in metrics}
    units["instance_io.document.bytes"] = "bytes"
    units["trace.coverage"] = "share"
    return run, {name: (value, units[name]) for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, default=36.0, help="time to spend in rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treevrpsd" / "cli.py").is_file():
        print(f"error: no treevrpsd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        machine_before = reference_loop_s()
        run, metrics = (measure_traced if args.trace else measure)(workload, args.seconds)
        machine_after = reference_loop_s()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_DIR.rmdir()

    for failure in run.failures[:MAX_REPORTED_FAILURES]:
        print(f"failed: {failure}", file=sys.stderr)
    if not metrics:
        print(f"error: {len(run.failures)} of {run.attempted} operations failed", file=sys.stderr)
        return 1
    print(f"machine reference loop: {machine_before:.6f} s before, {machine_after:.6f} s after; "
          f"{len(run.latencies)} ops passed")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
