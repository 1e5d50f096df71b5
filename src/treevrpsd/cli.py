"""Command-line front end: generate, inspect, simulate, evaluate, report.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage or validation
error.  Exact evaluation is a closed form, so no subcommand enumerates
demand vectors except the partition oracle inside ``report``, which
leaves its cell empty when the joint support is over the enumeration
cap, as the edge bound does over its transform cap.  All outputs are
byte-reproducible for identical flags and seeds.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from bisect import bisect_right
from pathlib import Path
from typing import Iterable, Sequence

from .bounds import BoundSet, bound_set
from .demand import Realization, replication_rng, sample_realization
from .errors import TooLargeError, ValidationError, describe_int
# The costs are called as evaluator.<name>: the benchmark tracer
# (perfbench/tracing.py) patches them there, so a name bound here at import
# would never be timed.
from . import evaluator
from .evaluator import Estimate
from .instance_io import (
    TOPOLOGIES,
    GeneratorParams,
    digits_float,
    digits_int,
    generate_document,
    parse_document,
    document_to_instance,
    serialize_document,
    write_texts,
)
from .oracle import EDGE, PARTITION, PARTITION_MAX_CUSTOMERS, expected_clairvoyant_lb
from .policy import POLICIES, SPLIT, UNSPLIT, format_trace, run_split, run_unsplit
from .tree import dfs_order

REPORT_COLUMNS = (
    "instance",
    "policy",
    "mode",
    "expected_cost",
    "tour_floor",
    "bertsimas",
    "combined_lb",
    "formula_ub",
    "ratio_vs_lb",
    "ub_respected",
    "clairvoyant_lb",
    "sharpened_ratio",
)

EXACT = "exact"
MONTE_CARLO = "monte_carlo"

# expected_cost <= formula_ub is asserted with this relative slack.
UB_REL_TOL = 1e-9

# Ratio histogram for the plot-data file: [1.0, 3.0) in steps of 0.1,
# with the bin edges as the file prints them.
HIST_BINS = 20
HIST_LOW = 1.0
HIST_STEP = 0.1
HIST_EDGES = tuple(format(HIST_LOW + i * HIST_STEP, ".2f") for i in range(HIST_BINS + 1))

# Outputs echo the seed, so its length is capped; 20 digits hold every
# 64-bit seed.
SEED_DIGITS = 20


def _cell(value) -> str:
    """Render one CSV cell; floats use repr so bytes round-trip."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: Sequence[str], lines: Iterable[Sequence]) -> str:
    """CSV text of a header line and ``lines``, each ending in a bare newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(lines)
    return buffer.getvalue()


def _load_instance(path: str | Path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # the offset is the file's: read_text decodes all bytes at once
        raise ValidationError(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from None
    doc = parse_document(text)
    tree, model = document_to_instance(doc)
    return doc, tree, model


# -- subcommand handlers ----------------------------------------------------

def _cmd_gen(args: argparse.Namespace) -> int:
    low, high = (
        _parse_digits(text, "--length-range must be a decimal number: value", digits_float)
        for text in args.length_range
    )
    params = GeneratorParams(
        n=_int_flag(args.n, "--n"),
        capacity=_int_flag(args.capacity, "--capacity"),
        topology=args.topology,
        pmf=args.pmf,
        seed=_seed_flag(args.seed),
        length_range=(low, high),
        name=args.name,
    )
    out = Path(args.out)
    _check_out_dir("--out", out)
    write_texts((out, serialize_document(generate_document(params))))
    print(args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    _, tree, model = _load_instance(args.instance)
    bounds = bound_set(tree, model)
    for field in ("tour_floor", "bertsimas", "combined_lb", "split_ub", "unsplit_ub"):
        print(f"{field} {getattr(bounds, field)!r}")
    return 0


def _parse_digits(text: str, what: str, read=digits_int):
    """``read(text)``: by default ``text`` as an integer when it is ASCII
    digits only.

    ``what`` names the value; the text is cut so the message stays short.
    """
    try:
        return read(text)
    except ValueError:
        raise ValidationError(f"{what} is {describe_int(text)}") from None


def _int_flag(text: str, flag: str) -> int:
    return _parse_digits(text, f"{flag} must be an integer: value")


def _seed_flag(text: str) -> int:
    seed = _int_flag(text, "--seed")
    if len(text) > SEED_DIGITS:
        raise ValidationError(
            f"--seed must be an integer of at most {SEED_DIGITS} digits: value is {describe_int(text)}"
        )
    return seed


def _parse_demand_list(text: str) -> tuple[int, ...]:
    # Name the entry, not the list.
    return tuple(
        _parse_digits(part, f"--demands must be comma-separated integers: entry {pos}")
        for pos, part in enumerate(text.split(","))
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    _, tree, model = _load_instance(args.instance)
    seed = _seed_flag(args.seed)
    load = None if args.load is None else _int_flag(args.load, "--load")
    if args.demands is not None:
        if load is None:
            raise ValidationError("--load is required when --demands is given")
        realization = Realization(_parse_demand_list(args.demands), load)
    else:
        rng = replication_rng(seed, 0)
        realization = sample_realization(model, rng)
        if load is not None:
            realization = Realization(realization.demands, load)
    run = run_split if args.policy == SPLIT else run_unsplit
    trace = run(tree, dfs_order(tree), realization)
    sys.stdout.write(format_trace(trace))
    print(f"TOTAL {trace.total_length!r}")
    return 0


def _row(instance: str, policy: str, bounds: BoundSet, cost: float | Estimate) -> dict:
    """The printed record of one evaluation: the ten columns, plus the
    ``estimate`` object when ``cost`` is a Monte Carlo estimate.  The ratio
    of a depot-only instance (combined_lb = 0) is 1.0."""
    sampled = isinstance(cost, Estimate)
    expected = cost.mean if sampled else cost
    formula_ub = bounds.split_ub if policy == SPLIT else bounds.unsplit_ub
    row = {
        "instance": instance,
        "policy": policy,
        "mode": MONTE_CARLO if sampled else EXACT,
        "expected_cost": expected,
        "tour_floor": bounds.tour_floor,
        "bertsimas": bounds.bertsimas,
        "combined_lb": bounds.combined_lb,
        "formula_ub": formula_ub,
        "ratio_vs_lb": expected / bounds.combined_lb if bounds.combined_lb > 0 else 1.0,
        "ub_respected": expected <= formula_ub + UB_REL_TOL * formula_ub,
    }
    if sampled:
        row["estimate"] = dict(vars(cost))
    return row


def _cmd_evaluate(args: argparse.Namespace) -> int:
    samples, seed = _int_flag(args.samples, "--samples"), _seed_flag(args.seed)
    doc, tree, model = _load_instance(args.instance)
    bounds = bound_set(tree, model)
    if args.mode == EXACT:
        cost = evaluator.exact_expected_cost(tree, model, args.policy, bounds=bounds)
    else:
        cost = evaluator.monte_carlo_cost(tree, model, args.policy, samples, seed)
    row = _row(doc.name, args.policy, bounds, cost)
    if args.format == "json":
        print(json.dumps(row, indent=2))
    else:
        columns = [c for c in REPORT_COLUMNS if c in row]
        sys.stdout.write(_csv_text(columns, [[_cell(row[c]) for c in columns]]))
    return 0


def _evaluate_rows(doc, tree, model) -> list[dict]:
    # Both policy rows read one bound set and one edge bound.
    bounds = bound_set(tree, model)
    try:
        edge_lb = expected_clairvoyant_lb(tree, model, mode=EDGE)
    except TooLargeError:
        edge_lb = None
    rows = []
    for policy in POLICIES:
        cost = evaluator.exact_expected_cost(tree, model, policy, bounds=bounds)
        row = _row(doc.name, policy, bounds, cost)
        # The per-realization optimum is unsplit-shaped, so its partition
        # oracle bounds only the unsplit policy; the edge bound holds for
        # both.  An instance over the enumeration limit, or the edge bound's
        # transform limit, leaves that bound's cells empty.
        clair = edge_lb
        if policy == UNSPLIT and tree.n_customers <= PARTITION_MAX_CUSTOMERS:
            try:
                clair = expected_clairvoyant_lb(tree, model, mode=PARTITION)
            except TooLargeError:
                clair = None
        row["clairvoyant_lb"] = clair
        if clair is None:
            row["sharpened_ratio"] = None
        else:
            row["sharpened_ratio"] = row["expected_cost"] / clair if clair > 0 else 1.0
        rows.append(row)
    return rows


def _histogram(rows: Sequence[dict]) -> str:
    # A ratio on a printed edge counts in the bin that starts there.
    # Ratios below 1 or at/above 3 cannot occur for these policies; they
    # would count in the end bins, so a row is never dropped silently.
    inner_edges = [float(edge) for edge in HIST_EDGES[1:-1]]
    counts = {policy: [0] * HIST_BINS for policy in POLICIES}
    for row in rows:
        counts[row["policy"]][bisect_right(inner_edges, row["ratio_vs_lb"])] += 1
    lines = [(p, HIST_EDGES[i], HIST_EDGES[i + 1], n) for p in POLICIES for i, n in enumerate(counts[p])]
    return _csv_text(("policy", "bin_low", "bin_high", "count"), lines)


def _check_out_dir(flag: str, path: Path) -> None:
    # A missing output directory is a usage error, refused before any work.
    if not path.parent.is_dir():
        raise ValidationError(f"{flag} {str(path)!r}: {str(path.parent)!r} is not a directory")


def _same_file(a: Path, b: Path) -> bool:
    """Whether ``a`` and ``b`` are two names (links) of one existing file,
    or one path spelled two ways."""
    try:
        return a.samefile(b)
    except OSError:  # not both exist yet; a stat is cheaper than resolving
        return a.resolve() == b.resolve()


def _cmd_report(args: argparse.Namespace) -> int:
    corpus_dir = Path(args.corpus_dir)
    if not corpus_dir.is_dir():
        raise ValidationError(f"--corpus-dir {args.corpus_dir!r} is not a directory")
    out_csv = Path(args.out_csv)
    out_plot = Path(args.out_plot) if args.out_plot else out_csv.with_suffix(".plot.csv")
    _check_out_dir("--out-csv", out_csv)
    _check_out_dir("--out-plot", out_plot)
    if _same_file(out_plot, out_csv):
        raise ValidationError(
            f"--out-plot {args.out_plot!r} names the same file as --out-csv {args.out_csv!r}"
        )

    rows: list[dict] = []
    failures: list[tuple[str, str]] = []
    for path in sorted(corpus_dir.glob("*.json")):
        try:
            rows.extend(_evaluate_rows(*_load_instance(path)))
        except (ValidationError, OSError) as exc:
            failures.append((path.name, str(exc)))
    rows.sort(key=lambda row: (row["instance"], row["policy"]))

    # Both texts are rendered before either file is opened, so a failure
    # while rendering leaves both outputs as they were.
    table = _csv_text(REPORT_COLUMNS, ([_cell(row[c]) for c in REPORT_COLUMNS] for row in rows))
    write_texts((out_csv, table), (out_plot, _histogram(rows)))
    print(out_csv)

    if failures:
        for name, message in failures:
            print(f"error: {name}: {message}", file=sys.stderr)
        print(f"report: {len(failures)} instance(s) failed", file=sys.stderr)
        return 1
    return 0


# -- parser -------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves no
    state in it; building it takes about a millisecond)."""
    parser = argparse.ArgumentParser(
        prog="treevrpsd",
        description="Vehicle routing with stochastic demands on tree networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance document")
    gen.add_argument("--n", required=True, help="number of customers")
    gen.add_argument("--capacity", required=True, help="vehicle capacity Q")
    gen.add_argument("--topology", choices=TOPOLOGIES, default="path")
    gen.add_argument("--pmf", required=True, help="det:<k> | unif:<lo>-<hi> | two:<k1>,<p1>,<k2>")
    gen.add_argument("--seed", default="0")
    gen.add_argument(
        "--length-range",
        nargs=2,
        default=("1.0", "1.0"),
        metavar=("LOW", "HIGH"),
    )
    gen.add_argument("--name", default=None, help="override the derived instance name")
    gen.add_argument("--out", required=True, help="output file path")
    gen.set_defaults(handler=_cmd_gen)

    bounds = sub.add_parser("bounds", help="print the bound set of an instance")
    bounds.add_argument("--instance", required=True, help="instance document path")
    bounds.set_defaults(handler=_cmd_bounds)

    simulate = sub.add_parser("simulate", help="run one realization and dump the trace")
    simulate.add_argument("--instance", required=True, help="instance document path")
    simulate.add_argument("--policy", choices=POLICIES, required=True)
    simulate.add_argument("--demands", default=None, help="explicit demands, e.g. 2,1,3")
    simulate.add_argument("--load", default=None, help="initial load (1..Q)")
    simulate.add_argument("--seed", default="0", help="seed when demands are drawn")
    simulate.set_defaults(handler=_cmd_simulate)

    ev = sub.add_parser(
        "evaluate",
        help="expected cost, bounds, and ratio for one instance",
        description="Expected cost, bounds, and ratio for one instance. "
        "--mode exact is an O(n) closed form with no size limit; "
        "--mode mc is a seeded Monte Carlo estimate with a 95% interval.",
    )
    ev.add_argument("--instance", required=True, help="instance document path")
    ev.add_argument("--policy", choices=POLICIES, required=True)
    ev.add_argument("--mode", choices=(EXACT, "mc", MONTE_CARLO), default=EXACT)
    ev.add_argument("--samples", default="10000")
    ev.add_argument("--seed", default="0")
    ev.add_argument("--format", choices=("json", "csv"), default="json")
    ev.set_defaults(handler=_cmd_evaluate)

    report = sub.add_parser(
        "report",
        help="evaluate a corpus directory into CSV",
        description="Evaluate every *.json in a directory exactly (closed form) into CSV, "
        "with the expected clairvoyant bound: partition oracle for unsplit up to "
        f"{PARTITION_MAX_CUSTOMERS} customers, edge bound otherwise.",
    )
    report.add_argument("--corpus-dir", required=True)
    report.add_argument("--out-csv", required=True)
    report.add_argument("--out-plot", default=None, help="histogram CSV (default: <out-csv>.plot.csv)")
    report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
