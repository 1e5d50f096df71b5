"""Per-customer integer demand distributions.

Each customer's demand is an independent random variable on {1..Q}
described by an explicit probability mass function.  Zero demand is
rejected outright: a customer that might need nothing would not belong
to the instance.  The module supports exact expectations, inverse-CDF
sampling, and exhaustive enumeration of the joint demand space for the
one oracle that truly needs every demand vector, the partition oracle.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import TooLargeError, ValidationError, describe_int, describe_large_int

NORMALIZATION_TOL = 1e-12

# Joint enumeration is capped at 4096 vectors (4^6): the partition oracle
# inside ``report`` solves one tour-partition search per vector.
ENUM_LIMIT = 4096

# Counts above this are printed as a power of ten, not digit by digit.
EXACT_COUNT_MAX = 10**12


def format_count(count: int) -> str:
    """Render a count for messages: in full up to 10^12, else ``about 10^k``.

    Joint support sizes grow as a product over customers and can run to
    thousands of digits; k is the nearest integer to log10(count).
    """
    if count <= EXACT_COUNT_MAX:
        return str(count)
    return f"about 10^{round(math.log10(count))}"


@dataclass(frozen=True)
class DemandPMF:
    """Validated pmf over {1..Q}; ``mass`` holds (value, probability) ascending.

    ``mean`` and ``inverse_cdf`` are computed on first use and kept, so
    customers that share one pmf object share them too.
    """

    mass: tuple[tuple[int, float], ...]

    @cached_property
    def mean(self) -> float:
        """Exact mean of the demand."""
        return math.fsum(k * p for k, p in self.mass)

    @cached_property
    def inverse_cdf(self) -> tuple[tuple[float, ...], tuple[int, ...]]:
        """Running sums of the masses, and the values with the last one repeated.

        The sums are the floats a left-to-right scan adds up, so
        ``values[bisect_right(sums, u)]`` is the first value whose sum
        exceeds ``u``, or the last value when rounding leaves the final
        sum at or below ``u`` (u ~ 1.0).
        """
        sums = tuple(itertools.accumulate(p for _, p in self.mass))
        values = tuple(k for k, _ in self.mass)
        return sums, values + values[-1:]

    def max_value(self) -> int:
        return self.mass[-1][0]


def make_pmf(entries: Iterable[tuple[int, float]], capacity: int) -> DemandPMF:
    """Build a :class:`DemandPMF` from (value, probability) pairs.

    Duplicate values accumulate.  Entries with zero probability are
    dropped from the support; positive mass at 0 or outside {1..Q} is
    rejected, as is any negative mass or a total off 1 by more than
    ``NORMALIZATION_TOL``.
    """
    if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
        raise ValidationError(f"capacity must be an integer >= 1, got {capacity!r}")
    acc: dict[int, list[float]] = {}
    for k, p in entries:
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValidationError(f"demand value must be an integer, got {k!r}")
        try:
            finite = not isinstance(p, bool) and isinstance(p, (int, float)) and math.isfinite(p)
        except OverflowError:
            raise ValidationError(
                f"probability for demand {describe_int(k)} is {describe_large_int(p)}"
            ) from None
        if not finite:
            raise ValidationError(
                f"probability for demand {describe_int(k)} must be a finite real, got {p!r}"
            )
        if p < 0:
            raise ValidationError(f"negative probability {p!r} at demand {describe_int(k)}")
        if k < 0 or k > capacity:
            raise ValidationError(f"demand {describe_int(k)} outside 0..{describe_int(capacity)}")
        if k == 0:
            if p > 0:
                raise ValidationError("positive probability at demand 0 is not allowed")
            continue
        acc.setdefault(k, []).append(float(p))

    items = tuple(
        (k, total)
        for k in sorted(acc)
        if (total := math.fsum(acc[k])) > 0.0
    )
    total_mass = math.fsum(p for _, p in items)
    if abs(total_mass - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(f"pmf mass sums to {total_mass!r}, expected 1 within {NORMALIZATION_TOL}")
    return DemandPMF(mass=items)


@dataclass(frozen=True)
class DemandModel:
    """Independent demand pmfs for customers 1..n plus the capacity Q."""

    pmfs: tuple[DemandPMF, ...]
    capacity: int

    def __post_init__(self) -> None:
        if not isinstance(self.capacity, int) or isinstance(self.capacity, bool) or self.capacity < 1:
            raise ValidationError(f"capacity must be an integer >= 1, got {self.capacity!r}")
        # once per distinct pmf object, in order of first use
        for pmf in dict(zip(map(id, self.pmfs), self.pmfs)).values():
            if pmf.mass and pmf.max_value() > self.capacity:
                raise ValidationError(
                    f"customer {self.pmfs.index(pmf) + 1} pmf supports demand "
                    f"{pmf.max_value()} > capacity {self.capacity}"
                )

    @property
    def n_customers(self) -> int:
        return len(self.pmfs)

    @cached_property
    def inverse_cdfs(self) -> tuple[tuple[tuple[float, ...], tuple[int, ...]], ...]:
        """``DemandPMF.inverse_cdf`` of customers 1..n, in order."""
        return tuple(pmf.inverse_cdf for pmf in self.pmfs)


@dataclass(frozen=True)
class Realization:
    """One joint demand vector plus the randomized initial load."""

    demands: tuple[int, ...]
    initial_load: int


def sample_realization(model: DemandModel, rng: random.Random) -> Realization:
    """Draw one :class:`Realization` from ``rng``.

    Demands for customers 1..n are drawn first, each by inverse CDF over
    the pmf values in ascending order, then the initial load uniformly
    from {1..Q}.  The draw order is part of the determinism contract.
    """
    draw = rng.random
    demands = [values[bisect_right(sums, draw())] for sums, values in model.inverse_cdfs]
    load = rng.randrange(1, model.capacity + 1)
    return Realization(demands=tuple(demands), initial_load=load)


def replication_rng(master_seed: int, replication: int) -> random.Random:
    """Private generator for one replication.

    The seed is the pure function ``master_seed * 2**32 + replication``,
    so replications are reproducible individually and never share state.
    """
    return random.Random(master_seed * (2**32) + replication)


def joint_support_size(model: DemandModel) -> int:
    """Number of joint demand vectors (product of support sizes)."""
    size = 1
    for pmf in model.pmfs:
        size *= len(pmf.mass)
    return size


def enumerate_joint(model: DemandModel) -> Iterator[tuple[tuple[int, ...], float]]:
    """Yield every joint demand vector with its product probability.

    Vectors are emitted in odometer order (last customer fastest, values
    ascending).  Raises ``TooLargeError`` before yielding anything if
    the joint support exceeds ``ENUM_LIMIT``.
    """
    size = joint_support_size(model)
    if size > ENUM_LIMIT:
        raise TooLargeError(
            f"joint demand support has {format_count(size)} vectors, "
            f"over the limit {format_count(ENUM_LIMIT)}"
        )

    def generate() -> Iterator[tuple[tuple[int, ...], float]]:
        for combo in itertools.product(*(pmf.mass for pmf in model.pmfs)):
            prob = 1.0
            for _, p in combo:
                prob *= p
            yield tuple(k for k, _ in combo), prob

    return generate()


def point_model(values: Sequence[int], capacity: int) -> DemandModel:
    """Deterministic model: customer i always demands ``values[i-1]``."""
    return DemandModel(
        pmfs=tuple(make_pmf([(v, 1.0)], capacity) for v in values),
        capacity=capacity,
    )
