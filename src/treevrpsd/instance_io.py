"""Instance documents: parse, serialize and generate.

Document format is JSON with top-level keys ``name``, ``capacity``,
``edges`` (arrays ``[parent, child, length]``), and ``demands`` (array
of ``{"node": i, "pmf": {"k": prob}}``).  Serialization is canonical:
keys in that fixed order, edges sorted by child index, pmf keys
ascending, probabilities as plain decimal literals.  Parsing a
serialized document reproduces the instance exactly, and serializing is
byte-stable, which keeps the corpus diffable and the report runs
reproducible.  ``corpus/gen.txt`` lists the ``gen`` flags that write
each committed corpus document.

Vertices are dense integers 0..n in the file with the depot at 0; no
remapping happens on load.
"""

from __future__ import annotations

import json
import os
import random
import re
import stat
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .demand import DemandModel, DemandPMF, make_pmf
from .errors import ValidationError, check_capacity, check_int, describe_int, describe_large_int
from .tree import TreeInstance, build_tree, describe_non_permutation, length_sum

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


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {describe_int(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where}: {describe_large_int(value)}") from None


def _check_name(name) -> None:
    """Refuse a name that is not a string, or cannot be written as UTF-8:
    it holds a lone surrogate."""
    if not isinstance(name, str):
        raise ValidationError(f"name: expected a string, got {describe_int(name)}")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"name: a lone surrogate at character {exc.start} cannot be encoded as UTF-8") from None


_DEMAND_KEYS = frozenset({"node", "pmf"})

# The full checks of one item: they word every message, and the loops in
# parse_document call them for each item that fails its exact-type test.

def _checked_edge(item, k: int) -> tuple[int, int, float]:
    where = f"edges[{k}]"
    if not isinstance(item, list) or len(item) != 3:
        raise ValidationError(f"{where}: expected [parent, child, length]")
    return (
        check_int(item[0], f"{where}.parent"),
        check_int(item[1], f"{where}.child"),
        _require_number(item[2], f"{where}.length"),
    )


def _checked_demand(item, k: int) -> tuple[int, tuple[tuple[int, float], ...]]:
    where = f"demands[{k}]"
    if not isinstance(item, dict) or item.keys() != _DEMAND_KEYS:
        raise ValidationError(f"{where}: expected an object with keys node, pmf")
    node = check_int(item["node"], f"{where}.node")
    pmf_raw = item["pmf"]
    if not isinstance(pmf_raw, dict) or not pmf_raw:
        raise ValidationError(f"{where}.pmf: expected a non-empty object")
    entries = []
    for key, prob in pmf_raw.items():
        # An optional "-" and ASCII digits: a negative key then meets
        # make_pmf's range check.
        digits = key.removeprefix("-")
        try:
            value = digits_int(digits) if digits == key else -digits_int(digits)
        except ValueError:
            raise ValidationError(f"{where}.pmf: key {describe_int(key)} is not an integer") from None
        if type(prob) is not float:
            prob = _require_number(prob, f"{where}.pmf[{describe_int(key)}]")
        entries.append((value, prob))
    return node, tuple(sorted(entries))


def _shape(pmf_raw: dict) -> tuple[list, list]:
    return list(pmf_raw), list(map(type, pmf_raw.values()))


def parse_document(text: str) -> InstanceDocument:
    """Decode and schema-check one JSON instance document."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: too many digits
        raise ValidationError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"top level must be an object, got {type(raw).__name__}")
    expected = {"name", "capacity", "edges", "demands"}
    missing = expected - raw.keys()
    extra = raw.keys() - expected
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        if extra:
            parts.append(f"unknown keys {sorted(extra)}")
        raise ValidationError("; ".join(parts))
    _check_name(raw["name"])
    capacity = check_capacity(raw["capacity"])

    # json.loads yields exact types, so ``type(x) is int`` also excludes bool.
    if not isinstance(raw["edges"], list):
        raise ValidationError("edges: expected an array")
    edges = []
    for k, item in enumerate(raw["edges"]):
        if type(item) is list and len(item) == 3:
            p, c, ln = item
            if type(p) is int and type(c) is int and type(ln) is float:
                edges.append((p, c, ln))
                continue
        edges.append(_checked_edge(item, k))

    if not isinstance(raw["demands"], list):
        raise ValidationError("demands: expected an array")
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
        raise ValidationError(f"edges: {exc}") from None
    n = tree.n_customers
    demands = doc.demands
    # One exact-type pass; the full check runs only to word an error.
    if not all(type(item) is tuple and len(item) == 2 and type(item[0]) is int for item in demands):
        for k, item in enumerate(demands):
            if not isinstance(item, tuple) or len(item) != 2:
                raise ValidationError(f"demands[{k}]: expected a (node, entries) pair, got {describe_int(item)}")
            check_int(item[0], f"demands[{k}].node")
    nodes = [node for node, _ in demands]
    if sorted(nodes) != list(range(1, n + 1)):
        raise ValidationError(
            f"demands must cover each customer 1..{n} exactly once: node {describe_non_permutation(nodes, n)}"
        )
    # Generated documents give every customer the same pmf: validate each
    # distinct entries tuple (sorted by parse_document) once and share it.
    # A customer given the previous customer's entries object skips the hash.
    pmf_by_entries: dict[tuple[tuple[int, float], ...], DemandPMF] = {}
    pmfs: list[DemandPMF | None] = [None] * n
    last_entries = pmf = None
    for idx, (node, entries) in enumerate(demands):
        if entries is not last_entries:
            last_entries = entries
            try:
                # The exact types parse_document gives; anything else is
                # checked in full before it is hashed.
                if not (type(entries) is tuple and all(
                    type(e) is tuple and len(e) == 2 and type(e[0]) is int and type(e[1]) is float
                    for e in entries
                )):
                    _check_listing(entries, doc.capacity)
                pmf = pmf_by_entries.get(entries)
                if pmf is None:
                    pmf = pmf_by_entries[entries] = make_pmf(entries, doc.capacity)
            except ValidationError as exc:
                raise ValidationError(f"demands[{idx}] (node {node}): {exc}") from None
        pmfs[node - 1] = pmf
    return tree, DemandModel(pmfs=tuple(pmfs), capacity=doc.capacity)


def _check_listing(entries, capacity: int) -> None:
    """Raise ``ValidationError`` unless ``entries`` is a tuple of
    (value, probability) pairs that ``make_pmf`` accepts; such a tuple
    hashes."""
    if not isinstance(entries, tuple) or not all(isinstance(e, tuple) and len(e) == 2 for e in entries):
        raise ValidationError(f"expected a tuple of (value, probability) pairs, got {describe_int(entries)}")
    make_pmf(entries, capacity)


def parse_instance(text: str) -> tuple[TreeInstance, DemandModel]:
    """Parse one document and return its validated pair."""
    return document_to_instance(parse_document(text))


# -- serialization ---------------------------------------------------------

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


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_texts(*outputs: tuple[str | Path, str]) -> None:
    """Write each ``(path, text)`` pair's text over its file in place, as UTF-8.

    Every path is opened, creating a missing file and truncating none,
    before any is written, so when one cannot be opened the others keep
    their bytes.  Each regular file is then cut to its text's length;
    /dev/null or a pipe takes the text but cannot be cut.  A failure
    while writing can leave a file partly written.  Newlines are written
    as given, on every platform.  Nothing is synced to disk.
    """
    data = [text.encode("utf-8") for _, text in outputs]
    with ExitStack() as stack:
        files = [stack.enter_context(open(os.open(path, _WRITE_FLAGS, 0o666), "wb")) for path, _ in outputs]
        for file, chunk in zip(files, data):
            file.write(chunk)
            if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
                file.truncate(len(chunk))


# -- pmf mini-language ------------------------------------------------------

def parse_pmf_spec(spec: str, capacity: int) -> DemandPMF:
    """Parse ``det:<k>``, ``unif:<lo>-<hi>``, or ``two:<k1>,<p1>,<k2>``.

    Family parameters must lie in {1..Q}; anything malformed or out of
    range raises ``ValidationError``.
    """
    try:
        family, _, arg = spec.partition(":")
        if family == "det":
            entries = [(digits_int(arg), 1.0)]
        elif family == "unif":
            lo_s, _, hi_s = arg.partition("-")
            lo, hi = digits_int(lo_s), digits_int(hi_s)
            if lo > hi:
                raise ValidationError(f"empty range {describe_int(lo)}-{describe_int(hi)}")
            if hi > check_capacity(capacity):
                # list only the value make_pmf refuses first: 0, or the first past Q
                lo = hi = lo if lo == 0 else max(lo, capacity + 1)
            weight = 1.0 / (hi - lo + 1)
            entries = [(k, weight) for k in range(lo, hi + 1)]
        elif family == "two":
            k1_s, p1_s, k2_s = arg.split(",")
            k1, p1, k2 = digits_int(k1_s), digits_float(p1_s), digits_int(k2_s)
            if not (0.0 <= p1 <= 1.0):
                raise ValidationError(f"probability {p1} outside [0,1]")
            entries = [(k1, p1), (k2, 1.0 - p1)]
        else:
            raise ValidationError(f"unknown pmf family {describe_int(family)}")
        return make_pmf(entries, capacity)
    except ValidationError as exc:
        raise ValidationError(f"pmf spec {describe_int(spec)}: {exc}") from None
    except (ValueError, TypeError):
        raise ValidationError(f"malformed pmf spec {describe_int(spec)}") from None


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
    check_int(params.n, "n", 0)
    if params.topology not in TOPOLOGIES:
        raise ValidationError(f"topology must be one of {TOPOLOGIES}, got {describe_int(params.topology)}")
    if not isinstance(params.pmf, str):
        raise ValidationError(f"pmf: expected a string, got {describe_int(params.pmf)}")
    lengths = params.length_range
    if not (
        isinstance(lengths, (tuple, list)) and len(lengths) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in lengths)
    ):
        raise ValidationError(f"length_range must hold two reals, got {describe_int(lengths)}")
    low, high = lengths
    if not 0 < low <= high <= sys.float_info.max:  # exact for ints too large for a float
        raise ValidationError(f"length_range must satisfy 0 < low <= high, got {describe_int(lengths)}")
    check_capacity(params.capacity)
    check_int(params.seed, "seed")
    if params.name is not None:
        _check_name(params.name)


def generate_document(params: GeneratorParams) -> InstanceDocument:
    """Deterministically generate one instance document.

    Topologies: ``path`` chains the vertices; ``star`` hangs every
    customer off the depot; ``random-attachment`` draws each new
    vertex's parent uniformly among existing vertices; ``caterpillar``
    builds a spine of ceil(n/2) vertices and attaches the remaining
    legs round robin.  The rng draws, in order, the parent of each
    vertex (random-attachment only) and then its edge length (only
    when the range is non-degenerate).  Lengths drawn whose sum passes
    ``build_tree``'s limit raise ``ValidationError``, so every document
    generated loads.
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

    lengths = [float(low)] * n if low == high else [rng.uniform(low, high) for _ in range(n)]
    try:
        length_sum(lengths, n)  # the loaders' limit, on the lengths drawn
    except ValidationError as exc:
        raise ValidationError(f"length_range: {exc}") from None
    edges = tuple(zip(parents, range(1, n + 1), lengths))
    demands = tuple((v, pmf.mass) for v in range(1, n + 1))
    return InstanceDocument(
        name=params.name if params.name is not None else default_name(params),
        capacity=params.capacity,
        edges=edges,
        demands=demands,
    )
