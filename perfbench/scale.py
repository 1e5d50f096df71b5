"""One-off layer timings on one large random-attachment instance.

Usage, from the root of the repository:

    python3 perfbench/scale.py

Generates one instance (n = 10^5, Q = 10, ``unif:1-10``, lengths in [0.5, 2]) and
times each layer once, calling the library directly; prints a Markdown
table.  This continues the n = 10^5 baseline in ROADMAP.md and is not
part of the benchmark runs, whose operations are kept small enough to
repeat.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treevrpsd import (  # noqa: E402
    GeneratorParams,
    WalkGeometry,
    bound_set,
    dfs_order,
    generate_document,
    parse_document,
    replication_rng,
    run_split,
    sample_realization,
    serialize_document,
)
from treevrpsd.instance_io import document_to_instance  # noqa: E402

N, SEED = 100_000, 1


def timed(rows: list, label: str, fn, *args):
    start = perf_counter()
    result = fn(*args)
    rows.append((label, perf_counter() - start))
    return result


def main() -> int:
    params = GeneratorParams(
        n=N, capacity=10, topology="random-attachment", pmf="unif:1-10",
        seed=SEED, length_range=(0.5, 2.0),
    )
    rows: list[tuple[str, float]] = []
    doc = generate_document(params)
    text = timed(rows, "serialize", serialize_document, doc)
    parsed = timed(rows, "parse", parse_document, text)
    tree, model = timed(rows, "`document_to_instance`", document_to_instance, parsed)
    order = dfs_order(tree)
    geometry = timed(rows, "`WalkGeometry`", WalkGeometry, tree, order)
    timed(rows, "`bound_set`", bound_set, tree, model)

    def one_sample():
        realization = sample_realization(model, replication_rng(SEED, 0))
        geometry.split_cost(realization.demands, realization.initial_load)
        return realization

    realization = timed(rows, "one MC sample (draw + `split_cost`)", one_sample)
    timed(rows, "`run_split` full trace", run_split, tree, order, realization)
    print(f"n = {N}, random-attachment, Q = 10, unif:1-10, {len(text)} bytes\n")
    print("| Step | Time |\n|---|---|")
    for label, seconds in rows:
        print(f"| {label} | {seconds:.3f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
