"""Instance documents: parse, serialize, generate, and the golden corpus.

Document format is JSON with top-level keys ``name``, ``capacity``,
``edges`` (arrays ``[parent, child, length]``), and ``demands`` (array
of ``{"node": i, "pmf": {"k": prob}}``).  Serialization is canonical:
keys in that fixed order, edges sorted by child index, pmf keys
ascending, probabilities as plain decimal literals.  Parsing a
serialized document reproduces the instance exactly, and serializing is
byte-stable, which keeps the corpus diffable and the report runs
reproducible.

Vertices are dense integers 0..n in the file with the depot at 0; no
remapping happens on load.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import stat
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterator, TextIO

from .demand import DemandModel, DemandPMF, make_pmf
from .errors import (
    BadParamsError,
    InstanceSyntaxError,
    SchemaError,
    ValidationError,
    describe_large_int,
)
from .tree import TreeInstance, build_tree, describe_non_permutation

TOPOLOGIES = ("path", "star", "random-attachment", "caterpillar")


@dataclass(frozen=True)
class InstanceDocument:
    """Structured form of one instance file."""

    name: str
    capacity: int
    edges: tuple[tuple[int, int, float], ...]
    demands: tuple[tuple[int, tuple[tuple[int, float], ...]], ...]


# -- parsing ---------------------------------------------------------------

def digits_int(text: str) -> int:
    """``int(text)`` for ASCII digits only; anything else raises ValueError.

    ``int()`` alone also reads signs, spaces, underscores and non-ASCII
    digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not ASCII digits: {text!r}")
    return int(text)  # ValueError past the int(str) digit limit


def digits_float(text: str) -> float:
    """``float(text)`` for ASCII digits with at most one ``.`` between
    digits; anything else raises ValueError.

    ``float()`` alone also reads signs, spaces, underscores, exponents,
    ``inf`` and ``nan``.
    """
    if not re.fullmatch(r"[0-9]+(\.[0-9]+)?", text):
        raise ValueError(f"not a plain decimal: {text!r}")
    return float(text)


def _require_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: {describe_large_int(value)}") from None


_DEMAND_KEYS = frozenset({"node", "pmf"})

# The full checks of one item: they word every message, and the loops in
# parse_document call them for each item that fails its exact-type test.

def _checked_edge(item, k: int) -> tuple[int, int, float]:
    where = f"edges[{k}]"
    if not isinstance(item, list) or len(item) != 3:
        raise SchemaError(f"{where}: expected [parent, child, length]")
    return (
        _require_int(item[0], f"{where}.parent"),
        _require_int(item[1], f"{where}.child"),
        _require_number(item[2], f"{where}.length"),
    )


def _checked_demand(item, k: int) -> tuple[int, tuple[tuple[int, float], ...]]:
    where = f"demands[{k}]"
    if not isinstance(item, dict) or item.keys() != _DEMAND_KEYS:
        raise SchemaError(f"{where}: expected an object with keys node, pmf")
    node = _require_int(item["node"], f"{where}.node")
    pmf_raw = item["pmf"]
    if not isinstance(pmf_raw, dict) or not pmf_raw:
        raise SchemaError(f"{where}.pmf: expected a non-empty object")
    entries = []
    for key, prob in pmf_raw.items():
        # An optional "-" and ASCII digits: a negative key then meets
        # make_pmf's range check.
        digits = key.removeprefix("-")
        try:
            value = digits_int(digits) if digits == key else -digits_int(digits)
        except ValueError:
            raise SchemaError(f"{where}.pmf: key {key!r} is not an integer") from None
        if type(prob) is not float:
            prob = _require_number(prob, f"{where}.pmf[{key!r}]")
        entries.append((value, prob))
    return node, tuple(sorted(entries))


def _shape(pmf_raw: dict) -> tuple[list, list]:
    return list(pmf_raw), list(map(type, pmf_raw.values()))


def parse_document(text: str) -> InstanceDocument:
    """Decode and schema-check one JSON instance document."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: too many digits
        raise InstanceSyntaxError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"top level must be an object, got {type(raw).__name__}")
    expected = {"name", "capacity", "edges", "demands"}
    missing = expected - raw.keys()
    extra = raw.keys() - expected
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        if extra:
            parts.append(f"unknown keys {sorted(extra)}")
        raise SchemaError("; ".join(parts))
    if not isinstance(raw["name"], str):
        raise SchemaError(f"name: expected a string, got {raw['name']!r}")
    capacity = _require_int(raw["capacity"], "capacity")
    _require_number(capacity, "capacity")  # names a capacity too large for a float

    # json.loads yields exact types, so ``type(x) is int`` also excludes bool.
    if not isinstance(raw["edges"], list):
        raise SchemaError("edges: expected an array")
    edges = []
    for k, item in enumerate(raw["edges"]):
        if type(item) is list and len(item) == 3:
            p, c, ln = item
            if type(p) is int and type(c) is int and type(ln) is float:
                edges.append((p, c, ln))
                continue
        edges.append(_checked_edge(item, k))

    if not isinstance(raw["demands"], list):
        raise SchemaError("demands: expected an array")
    demands = []
    # Customers usually repeat one listing.  One that equals the previous
    # checked listing shares its entries: equal values give equal entries,
    # except that ``true`` equals 1 and 0.0 equals -0.0, and the sort keeps
    # the listing's order when two keys name one value.  So a listing with a
    # zero probability is never shared, and key order and value types are
    # compared too when a value equals 1 or two keys name one value.
    last_pmf = last_shape = last_entries = None
    for k, item in enumerate(raw["demands"]):
        if type(item) is dict and len(item) == 2:
            node, pmf_raw = item.get("node"), item.get("pmf")
            if type(node) is int and type(pmf_raw) is dict and pmf_raw == last_pmf and (
                last_shape is None or last_shape == _shape(pmf_raw)
            ):
                demands.append((node, last_entries))
                continue
        node, entries = _checked_demand(item, k)
        demands.append((node, entries))
        if all(p for _, p in entries):
            last_pmf, last_entries = item["pmf"], entries
            ambiguous = 1 in last_pmf.values() or len({v for v, _ in entries}) < len(entries)
            last_shape = _shape(last_pmf) if ambiguous else None

    return InstanceDocument(
        name=raw["name"],
        capacity=capacity,
        edges=tuple(edges),
        demands=tuple(demands),
    )


def document_to_instance(doc: InstanceDocument) -> tuple[TreeInstance, DemandModel]:
    """Build and validate the (tree, demand model) pair of a document."""
    try:
        tree = build_tree(doc.edges, doc.capacity)
    except ValidationError as exc:
        raise type(exc)(f"edges: {exc}") from None
    n = tree.n_customers
    nodes = [node for node, _ in doc.demands]
    if sorted(nodes) != list(range(1, n + 1)):
        raise SchemaError(
            f"demands must cover each customer 1..{n} exactly once: node {describe_non_permutation(nodes, n)}"
        )
    # Generated documents give every customer the same pmf: validate each
    # distinct entries tuple (sorted by parse_document) once and share it.
    # A customer given the previous customer's entries object skips the hash.
    pmf_by_entries: dict[tuple[tuple[int, float], ...], DemandPMF] = {}
    pmfs: list[DemandPMF | None] = [None] * n
    last_entries = pmf = None
    for idx, (node, entries) in enumerate(doc.demands):
        if entries is not last_entries:
            last_entries = entries
            pmf = pmf_by_entries.get(entries)
            if pmf is None:
                try:
                    pmf = pmf_by_entries[entries] = make_pmf(entries, doc.capacity)
                except ValidationError as exc:
                    raise type(exc)(f"demands[{idx}] (node {node}): {exc}") from None
        pmfs[int(node) - 1] = pmf  # a hand-built document may say 2.0 or True
    return tree, DemandModel(pmfs=tuple(pmfs), capacity=doc.capacity)


def parse_instance(text: str) -> tuple[TreeInstance, DemandModel]:
    """Parse one document and return its validated pair."""
    return document_to_instance(parse_document(text))


# -- serialization ---------------------------------------------------------

def document_from_instance(tree: TreeInstance, model: DemandModel, name: str) -> InstanceDocument:
    if tree.n_customers != model.n_customers or tree.capacity != model.capacity:
        raise BadParamsError("tree and demand model disagree on customers or capacity")
    edges = tuple(
        (tree.parent[v], v, tree.edge_length[v]) for v in range(1, tree.vertex_count)
    )
    demands = tuple((i, pmf.mass) for i, pmf in enumerate(model.pmfs, 1))
    return InstanceDocument(name=name, capacity=tree.capacity, edges=edges, demands=demands)


# json spells the non-finite floats its own way; every other float is its repr.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = repr(float(x))
    return _NON_FINITE.get(text, text)


def _json_array(items: list[str]) -> str:
    """A top-level member's array of already indented items."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n  ]"


def _json_pmf(entries: tuple[tuple[int, float], ...]) -> str:
    # a dict, as json.dumps would see it: a repeated value keeps its first
    # position and its last probability
    pmf = {str(k): float(p) for k, p in sorted(entries)}
    if not pmf:
        return "{}"
    lines = ",\n".join(f"        {json.dumps(k)}: {_json_float(p)}" for k, p in pmf.items())
    return "{\n" + lines + "\n      }"


def serialize_document(doc: InstanceDocument) -> str:
    """Canonical JSON text of a document (byte-stable).

    The text is what ``json.dumps(payload, indent=2)`` gives, written
    directly: edges sorted by child, one value per line, demands sorted
    by node, pmf keys ascending.
    """
    edges = [
        f"    [\n      {p},\n      {c},\n      {_json_float(ln)}\n    ]"
        for p, c, ln in sorted(doc.edges, key=itemgetter(1))
    ]
    # One rendering per pmf object.  Keyed by identity: equal entries can
    # still print differently (0.0 == -0.0).
    pmf_text: dict[int, str] = {}
    demands = []
    for node, entries in sorted(doc.demands):
        text = pmf_text.get(id(entries))
        if text is None:
            text = pmf_text[id(entries)] = _json_pmf(entries)
        demands.append(f'    {{\n      "node": {node},\n      "pmf": {text}\n    }}')
    return (
        f'{{\n  "name": {json.dumps(doc.name)},\n  "capacity": {doc.capacity},\n'
        f'  "edges": {_json_array(edges)},\n'
        f'  "demands": {_json_array(demands)}\n}}\n'
    )


def serialize_instance(tree: TreeInstance, model: DemandModel, name: str) -> str:
    return serialize_document(document_from_instance(tree, model, name))


_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


@contextmanager
def rewrite(*paths: str | Path) -> Iterator[list[TextIO]]:
    """Write UTF-8 text over each of ``paths`` in place, creating missing files.

    Every file is opened, without truncating it, before the block runs,
    so when one cannot be opened the others keep their bytes.  On
    leaving the block, also on an exception, each regular file is cut
    at its handle's position: it then holds exactly what the block
    wrote, and a failed block leaves only the prefix it wrote.  This
    costs less than truncating to zero first.  Newlines are written as
    given, on every platform.  Nothing is synced to disk.
    """
    with ExitStack() as stack:
        handles = [
            stack.enter_context(open(os.open(path, _REWRITE_FLAGS, 0o666), "w", encoding="utf-8", newline=""))
            for path in paths
        ]
        # Registered after the closes, so each cut runs before its close.
        # /dev/null or a pipe takes the text but cannot be cut.
        for handle in handles:
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                stack.callback(handle.truncate)
        yield handles


# -- pmf mini-language ------------------------------------------------------

def parse_pmf_spec(spec: str, capacity: int) -> DemandPMF:
    """Parse ``det:<k>``, ``unif:<lo>-<hi>``, or ``two:<k1>,<p1>,<k2>``.

    Family parameters must lie in {1..Q}; anything malformed or out of
    range raises ``BadParamsError``.
    """
    try:
        family, _, arg = spec.partition(":")
        if family == "det":
            entries = [(digits_int(arg), 1.0)]
        elif family == "unif":
            lo_s, _, hi_s = arg.partition("-")
            lo, hi = digits_int(lo_s), digits_int(hi_s)
            if lo > hi:
                raise BadParamsError(f"empty range {lo}-{hi}")
            weight = 1.0 / (hi - lo + 1)
            entries = [(k, weight) for k in range(lo, hi + 1)]
        elif family == "two":
            k1_s, p1_s, k2_s = arg.split(",")
            k1, p1, k2 = digits_int(k1_s), digits_float(p1_s), digits_int(k2_s)
            if not (0.0 <= p1 <= 1.0):
                raise BadParamsError(f"probability {p1} outside [0,1]")
            entries = [(k1, p1), (k2, 1.0 - p1)]
        else:
            raise BadParamsError(f"unknown pmf family {family!r}")
    except (ValueError, TypeError):
        raise BadParamsError(f"malformed pmf spec {spec!r}") from None
    try:
        return make_pmf(entries, capacity)
    except ValidationError as exc:
        raise BadParamsError(f"pmf spec {spec!r}: {exc}") from None


# -- generation --------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorParams:
    """Recipe for one random instance; identical params give identical bytes."""

    n: int
    capacity: int
    topology: str
    pmf: str
    seed: int
    length_range: tuple[float, float] = (1.0, 1.0)
    name: str | None = None


def default_name(params: GeneratorParams) -> str:
    return f"{params.topology}-n{params.n}-q{params.capacity}-s{params.seed}"


def _check_params(params: GeneratorParams) -> None:
    if not isinstance(params.n, int) or isinstance(params.n, bool) or params.n < 0:
        raise BadParamsError(f"n must be an integer >= 0, got {params.n!r}")
    if params.topology not in TOPOLOGIES:
        raise BadParamsError(f"topology must be one of {TOPOLOGIES}, got {params.topology!r}")
    low, high = params.length_range
    if not (isinstance(low, (int, float)) and isinstance(high, (int, float))):
        raise BadParamsError(f"length_range must hold two reals, got {params.length_range!r}")
    if not (math.isfinite(low) and math.isfinite(high)) or low <= 0 or low > high:
        raise BadParamsError(f"length_range must satisfy 0 < low <= high, got {params.length_range!r}")
    if not isinstance(params.capacity, int) or isinstance(params.capacity, bool) or params.capacity < 1:
        raise BadParamsError(f"capacity must be an integer >= 1, got {params.capacity!r}")


def generate_document(params: GeneratorParams) -> InstanceDocument:
    """Deterministically generate one instance document.

    Topologies: ``path`` chains the vertices; ``star`` hangs every
    customer off the depot; ``random-attachment`` draws each new
    vertex's parent uniformly among existing vertices; ``caterpillar``
    builds a spine of ceil(n/2) vertices and attaches the remaining
    legs round robin.  The rng draws, in order, the parent of each
    vertex (random-attachment only) and then its edge length (only
    when the range is non-degenerate).
    """
    _check_params(params)
    pmf = parse_pmf_spec(params.pmf, params.capacity)
    rng = random.Random(params.seed)
    n = params.n
    low, high = params.length_range

    spine = (n + 1) // 2
    parents = []
    for v in range(1, n + 1):
        if params.topology == "path":
            parents.append(v - 1)
        elif params.topology == "star":
            parents.append(0)
        elif params.topology == "random-attachment":
            parents.append(rng.randrange(v))
        else:  # caterpillar
            parents.append(v - 1 if v <= spine else (v - spine - 1) % spine + 1)

    edges = tuple(
        (parents[v - 1], v, float(low) if low == high else rng.uniform(low, high))
        for v in range(1, n + 1)
    )
    demands = tuple((v, pmf.mass) for v in range(1, n + 1))
    return InstanceDocument(
        name=params.name if params.name is not None else default_name(params),
        capacity=params.capacity,
        edges=edges,
        demands=demands,
    )


def generate(params: GeneratorParams) -> tuple[TreeInstance, DemandModel]:
    """Generate and validate one instance pair."""
    return document_to_instance(generate_document(params))


# -- golden corpus ------------------------------------------------------------

# Worked examples: two tiny path instances per capacity regime plus the
# single-edge deterministic and uniform cases used throughout the tests.
WORKED_PARAMS = (
    GeneratorParams(n=2, capacity=2, topology="path", pmf="det:1", seed=1, name="E1"),
    GeneratorParams(n=1, capacity=2, topology="path", pmf="det:2", seed=1, name="E2"),
    GeneratorParams(n=2, capacity=3, topology="path", pmf="det:2", seed=1, name="E3"),
    GeneratorParams(n=1, capacity=2, topology="path", pmf="unif:1-2", seed=1, name="E4"),
)

GENERATED_PARAMS = (
    GeneratorParams(n=3, capacity=2, topology="path", pmf="det:1", seed=101),
    GeneratorParams(n=4, capacity=3, topology="path", pmf="unif:1-2", seed=102),
    GeneratorParams(n=6, capacity=4, topology="path", pmf="two:1,0.75,4", seed=103, length_range=(0.5, 2.0)),
    GeneratorParams(n=3, capacity=2, topology="star", pmf="unif:1-2", seed=104),
    GeneratorParams(n=5, capacity=3, topology="star", pmf="det:2", seed=105, length_range=(0.5, 2.0)),
    GeneratorParams(n=6, capacity=5, topology="star", pmf="two:2,0.5,5", seed=106),
    GeneratorParams(n=4, capacity=2, topology="random-attachment", pmf="unif:1-2", seed=107),
    GeneratorParams(n=5, capacity=4, topology="random-attachment", pmf="unif:2-4", seed=108, length_range=(0.5, 2.0)),
    GeneratorParams(n=6, capacity=3, topology="random-attachment", pmf="det:3", seed=109),
    GeneratorParams(n=7, capacity=5, topology="random-attachment", pmf="two:1,0.25,5", seed=110, length_range=(0.5, 2.0)),
    GeneratorParams(n=4, capacity=3, topology="caterpillar", pmf="unif:1-3", seed=111),
    GeneratorParams(n=5, capacity=2, topology="caterpillar", pmf="det:1", seed=112, length_range=(0.5, 2.0)),
    GeneratorParams(n=6, capacity=4, topology="caterpillar", pmf="two:2,0.625,3", seed=113),
    GeneratorParams(n=7, capacity=6, topology="caterpillar", pmf="unif:1-2", seed=114, length_range=(0.5, 2.0)),
    GeneratorParams(n=5, capacity=5, topology="path", pmf="unif:4-5", seed=115),
    GeneratorParams(n=7, capacity=4, topology="star", pmf="det:4", seed=116),
    GeneratorParams(n=3, capacity=6, topology="random-attachment", pmf="unif:5-6", seed=117, length_range=(0.5, 2.0)),
    GeneratorParams(n=3, capacity=3, topology="caterpillar", pmf="two:1,0.5,3", seed=118),
    GeneratorParams(n=7, capacity=2, topology="path", pmf="two:1,0.5,2", seed=119, length_range=(0.5, 2.0)),
    GeneratorParams(n=4, capacity=6, topology="star", pmf="unif:1-3", seed=120),
)


def corpus_documents() -> list[InstanceDocument]:
    """All bundled corpus documents (worked examples first)."""
    return [generate_document(p) for p in (*WORKED_PARAMS, *GENERATED_PARAMS)]


def write_corpus(directory: str | Path) -> list[Path]:
    """Write the corpus into ``directory`` as one file per instance."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in corpus_documents():
        path = base / f"{doc.name}.json"
        with rewrite(path) as (handle,):
            handle.write(serialize_document(doc))
        paths.append(path)
    return paths
