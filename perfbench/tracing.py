"""Per-layer spans recorded from outside the program.

The tracer replaces each traced function with a wrapper under the name
the calling module imported it by (``cli.parse_document``,
``policy.path_distance``, ...), so the program's source is untouched.
Every wrapper call is a span; a span's self time is its duration minus
the time its child spans cover.  Counters are taken at the same
boundaries.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module that imports the name, name, layer it is reported under)
FUNCTIONS = (
    ("cli", "generate_document", "instance_io.generate_document"),
    ("cli", "serialize_document", "instance_io.serialize_document"),
    ("cli", "parse_document", "instance_io.parse_document"),
    ("cli", "document_to_instance", "instance_io.document_to_instance"),
    ("instance_io", "build_tree", "tree.build_tree"),
    ("instance_io", "make_pmf", "demand.make_pmf"),
    ("evaluator", "enumerate_joint", "demand.enumerate_joint"),
    ("oracle", "enumerate_joint", "demand.enumerate_joint"),
    ("evaluator", "exact_expected_cost", "evaluator.exact_expected_cost"),
    ("oracle", "clairvoyant_edge_lb", "bounds.clairvoyant_edge_lb"),
    ("cli", "expected_clairvoyant_lb", "oracle.expected_clairvoyant_lb"),
    ("cli", "replication_rng", "demand.replication_rng"),
    ("evaluator", "replication_rng", "demand.replication_rng"),
    ("cli", "sample_realization", "demand.sample_realization"),
    ("evaluator", "sample_realization", "demand.sample_realization"),
    ("evaluator", "monte_carlo_cost", "evaluator.monte_carlo_cost"),
    ("evaluator", "WalkGeometry", "policy.WalkGeometry"),
    ("cli", "bound_set", "bounds.bound_set"),
    ("evaluator", "bound_set", "bounds.bound_set"),
    ("cli", "dfs_order", "tree.dfs_order"),
    ("evaluator", "dfs_order", "tree.dfs_order"),
    ("cli", "run_split", "policy.run_trace"),
    ("cli", "run_unsplit", "policy.run_trace"),
    ("policy", "path_distance", "tree.path_distance"),
    ("cli", "format_trace", "policy.format_trace"),
)

# (module, class, method, layer): methods wrapped on the class itself.
METHODS = (
    ("policy", "WalkGeometry", "split_cost", "policy.walk_cost"),
    ("policy", "WalkGeometry", "unsplit_cost", "policy.walk_cost"),
)

# Layers whose iterator results are timed item by item, with the item
# count kept under the second name.
ITERATORS = {"demand.enumerate_joint": "demand.joint_vectors"}

# Counters other than call counts: layer -> (counter, size of one call).
SIZES = {
    "instance_io.parse_document": ("instance_io.document.bytes", lambda args, result: len(args[0])),
    "instance_io.serialize_document": ("instance_io.document.bytes", lambda args, result: len(result)),
    "policy.run_trace": ("policy.trace_events", lambda args, result: len(result.events)),
}
CALL_COUNTS = {
    "demand.make_pmf": "demand.make_pmf.calls",
    "bounds.clairvoyant_edge_lb": "bounds.clairvoyant_edge_lb.calls",
    "policy.walk_cost": "policy.walk_cost.calls",
    "tree.path_distance": "tree.path_distance.calls",
    "demand.sample_realization": "demand.samples",
}

OP_SPAN = "cli.main"
PACKAGE = "treevrpsd"


class Tracer:
    """Self time per layer and counters, accumulated over traced calls."""

    def __init__(self):
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_time = 0.0
        self._children = [0.0]
        self._patches = []
        for module_name, attr, layer in FUNCTIONS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(layer, original)))
        for module_name, cls_name, attr, layer in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, self._wrap(layer, original)))

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` as one span of ``layer``."""
        children = self._children
        children.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.self_time[layer] += elapsed - children.pop()
            children[-1] += elapsed
            if layer == OP_SPAN:
                self.op_time += elapsed

    def _wrap(self, layer: str, fn):
        size = SIZES.get(layer)
        calls = CALL_COUNTS.get(layer)
        items = ITERATORS.get(layer)

        def wrapper(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            if calls:
                self.counts[calls] += 1
            if size:
                self.counts[size[0]] += size[1](args, result)
            if items:
                return self._timed_items(layer, items, result)
            return result

        return wrapper

    def _timed_items(self, layer: str, counter: str, iterator):
        iterator = iter(iterator)
        while True:
            try:
                item = self.span(layer, next, iterator)
            except StopIteration:
                return
            self.counts[counter] += 1
            yield item

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, ops: int, overhead_s: float) -> dict[str, float]:
    """Per-op layer metrics, named as in ``BENCHMARK.json``; layers not called read 0."""
    layers = {layer for *_, layer in (*FUNCTIONS, *METHODS)}
    counters = {*ITERATORS.values(), *CALL_COUNTS.values(), *(name for name, _ in SIZES.values())}
    metrics = {f"{layer}.s": tracer.self_time[layer] / ops for layer in sorted(layers)}
    metrics.update((name, tracer.counts[name] / ops) for name in sorted(counters))
    main_self = tracer.self_time[OP_SPAN]
    metrics["cli.main.self.s"] = main_self / ops
    metrics["trace.coverage"] = 1.0 - main_self / tracer.op_time
    metrics["trace.overhead.s"] = overhead_s
    return metrics
