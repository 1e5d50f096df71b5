"""Exact and Monte Carlo expected policy cost.

Exact mode is a closed form in O(n).  Under both policies the stock on
arrival at the next stop is ``((U - D - 1) mod Q) + 1``, a shift of the
stock U on arrival at the current stop by an amount that depends only
on the current demand D.  With the initial load uniform on {1..Q} and
independent of the demands, the stock on arrival at every customer is
therefore uniform on {1..Q} and independent of that customer's demand:
customer i is an exact breakpoint with probability 1/Q and a deficit
breakpoint with probability (E[D_i] - 1)/Q.  Summed over the customers,
those detours make the expected cost affine in the two lower bounds of
:mod:`~treevrpsd.bounds`, so exact mode reads the bounds and no walk.
Monte Carlo mode prices each realization from the per-stop detours of
:class:`~treevrpsd.policy.WalkGeometry` and draws independent
replications, each from a private generator seeded by a pure function
of (master seed, replication index), so estimates are reproducible bit
for bit and replications could run in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BoundSet, bound_set, check_model
from .demand import DemandModel, replication_rng, sample_realization
# The benchmark tracer (perfbench/tracing.py) wraps evaluator.enumerate_joint by name.
from .demand import enumerate_joint  # noqa: F401
from .errors import ValidationError, check_int, describe_int
from .policy import DEFICIT_TRIPS, POLICIES, SPLIT, WalkGeometry
from .tree import TreeInstance, dfs_order


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error and normal 95% interval."""

    mean: float
    stderr: float
    ci95_low: float
    ci95_high: float
    samples: int
    seed: int


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValidationError(f"policy must be one of {POLICIES}, got {describe_int(policy)}")


def exact_expected_cost(
    tree: TreeInstance, model: DemandModel, policy: str, *, bounds: BoundSet | None = None,
) -> float:
    """Exact expectation over the demands and the uniform initial load.

    Arithmetic on the tour floor ``F`` and the radial bound ``R`` of
    :mod:`~treevrpsd.bounds`, with ``(inner, at_last)`` the policy's
    :data:`~treevrpsd.policy.DEFICIT_TRIPS` and ``last`` the last stop of
    the tree's stored ``preorder`` (see the README's derivation)::

        (1 - 1/Q)*F + inner*R + (2/Q)*(1 - inner)*sum_v d(0, v)
          + (2/Q)*(at_last - inner)*(E[D_last] - 1)*d(0, last)

    For split that is ``(1 - 1/Q)*F + R``.  ``F`` and ``R`` are read from
    ``bounds``, built unless given.  Linear in the number of customers;
    nothing is enumerated, so there is no size limit.
    """
    _check_policy(policy)
    check_model(tree, model)
    if bounds is None:
        bounds = bound_set(tree, model)
    inner, at_last = DEFICIT_TRIPS[policy]
    capacity = tree.capacity
    depot_dist = tree.depot_dist
    floor = bounds.tour_floor
    # F and -F/Q as two terms: one rounding fewer than (1 - 1/Q) * F.
    terms = [floor, -floor / capacity, inner * bounds.bertsimas]
    terms.append((2.0 / capacity) * (1 - inner) * math.fsum(depot_dist))
    terms += [(2.0 / capacity) * (at_last - inner) * (model.pmfs[v - 1].mean - 1.0) * depot_dist[v]
              for v in tree.preorder[-1:]]  # none in a depot-only walk
    return math.fsum(terms)


def monte_carlo_cost(
    tree: TreeInstance,
    model: DemandModel,
    policy: str,
    samples: int,
    master_seed: int,
) -> Estimate:
    """Sample-mean estimate of the expected walk cost.

    Replication r draws its realization from ``replication_rng(
    master_seed, r)``; the estimate is a pure function of the arguments.
    """
    _check_policy(policy)
    check_model(tree, model)
    check_int(samples, "samples", 2)
    walk = WalkGeometry(tree, dfs_order(tree))
    cost = walk.split_cost if policy == SPLIT else walk.unsplit_cost
    costs = []
    for r in range(samples):
        real = sample_realization(model, replication_rng(master_seed, r))
        costs.append(cost(real.demands, real.initial_load))
    # Every cost lies in [2S, (2 + 4n)S].  Scaled by a power of two near the
    # largest, the terms below stay normal floats that cannot overflow, and
    # the mean and stderr keep the bits of the unscaled formulas.
    scale = math.ldexp(1.0, -math.frexp(max(costs))[1])
    costs = [c * scale for c in costs]
    mean = math.fsum(costs) / samples
    variance = math.fsum((c - mean) ** 2 for c in costs) / (samples - 1)
    stderr = math.sqrt(variance / samples) / scale
    mean /= scale
    return Estimate(
        mean=mean,
        stderr=stderr,
        ci95_low=mean - 1.96 * stderr,
        ci95_high=mean + 1.96 * stderr,
        samples=samples,
        seed=master_seed,
    )
