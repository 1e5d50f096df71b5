"""Exact and Monte Carlo expected policy cost, plus ratio reports.

Exact mode is a closed form in O(n).  Under both policies the stock on
arrival at the next stop is ``((U - D - 1) mod Q) + 1``, a shift of the
stock U on arrival at the current stop by an amount that depends only
on the current demand D.  With the initial load uniform on {1..Q} and
independent of the demands, the stock on arrival at every customer is
therefore uniform on {1..Q} and independent of that customer's demand:
customer i is an exact breakpoint with probability 1/Q and a deficit
breakpoint with probability (E[D_i] - 1)/Q.  The expected cost is the
walk length 2S plus those probabilities times the detours: an exact
breakpoint reroutes to the next stop via the depot, and in a preorder
the next stop's parent is the two stops' common ancestor, so the
reroutes add ``2*d(0, parent v)`` once per customer v, whatever the
preorder; a deficit adds ``DEFICIT_TRIPS`` round trips to the depot.
Exact mode therefore reads per-vertex data and no walk.  Monte Carlo
mode draws independent replications, each from a private generator
seeded by a pure function of (master seed, replication index), so
estimates are reproducible bit for bit and replications could run in
any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BoundSet, bound_set
from .demand import DemandModel, replication_rng, sample_realization
# The benchmark tracer (perfbench/tracing.py) wraps evaluator.enumerate_joint by name.
from .demand import enumerate_joint  # noqa: F401
from .errors import BadParamsError
from .policy import DEFICIT_TRIPS, POLICIES, SPLIT, WalkGeometry
from .tree import TreeInstance, dfs_order

EXACT = "exact"
MONTE_CARLO = "monte_carlo"

# expected_cost <= formula_ub is asserted with this relative slack.
UB_REL_TOL = 1e-9


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error and normal 95% interval."""

    mean: float
    stderr: float
    ci95_low: float
    ci95_high: float
    samples: int
    seed: int


@dataclass(frozen=True)
class EvalReport:
    """One (instance, policy) evaluation with bounds and ratios."""

    instance_id: str
    policy: str
    mode: str
    expected_cost: float
    bounds: BoundSet
    ratio_vs_lb: float
    formula_ub: float
    ub_respected: bool
    estimate: Estimate | None = None


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise BadParamsError(f"policy must be one of {POLICIES}, got {policy!r}")


def exact_expected_cost(tree: TreeInstance, model: DemandModel, policy: str) -> float:
    """Exact expectation over the demands and the uniform initial load.

    ``2S + sum_v [2*d(0, parent v) / Q + (E[D_v] - 1)/Q * m_v * 2*d(0, v)]``
    over the customers v, where ``m_v`` is ``DEFICIT_TRIPS[policy]``'s
    inner count, or its last-stop count at the last stop of the tree's
    stored ``preorder``.  The sum is the same for every preorder with
    that last stop.
    Linear in the number of customers; nothing is enumerated, so there
    is no size limit.
    """
    _check_policy(policy)
    capacity = tree.capacity
    depot_dist = tree.depot_dist
    inner, at_last = DEFICIT_TRIPS[policy]
    last = tree.preorder[-1] if tree.preorder else 0
    terms = [2.0 * tree.total_edge_length]
    for v in range(1, tree.vertex_count):
        trips = at_last if v == last else inner
        terms.append(2.0 * depot_dist[tree.parent[v]] / capacity)
        terms.append((model.pmfs[v - 1].mean - 1.0) * (trips * (2.0 * depot_dist[v])) / capacity)
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
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 2:
        raise BadParamsError(f"samples must be an integer >= 2, got {samples!r}")
    walk = WalkGeometry(tree, dfs_order(tree))
    cost = walk.split_cost if policy == SPLIT else walk.unsplit_cost
    costs = []
    for r in range(samples):
        real = sample_realization(model, replication_rng(master_seed, r))
        costs.append(cost(real.demands, real.initial_load))
    mean = math.fsum(costs) / samples
    variance = math.fsum((c - mean) ** 2 for c in costs) / (samples - 1)
    stderr = math.sqrt(variance / samples)
    return Estimate(
        mean=mean,
        stderr=stderr,
        ci95_low=mean - 1.96 * stderr,
        ci95_high=mean + 1.96 * stderr,
        samples=samples,
        seed=master_seed,
    )


def evaluate(
    tree: TreeInstance,
    model: DemandModel,
    policy: str,
    mode: str = EXACT,
    *,
    samples: int = 10_000,
    master_seed: int = 0,
    instance_id: str = "",
    bounds: BoundSet | None = None,
) -> EvalReport:
    """Assemble an :class:`EvalReport` for one (instance, policy) pair.

    ``mode`` is ``"exact"`` or ``"monte_carlo"`` (``"mc"`` accepted).
    The ratio convention for a depot-only instance (combined_lb = 0) is
    1.0.  ``bounds`` is built unless given, so callers evaluating both
    policies of an instance build it once.
    """
    _check_policy(policy)
    if mode not in (EXACT, MONTE_CARLO, "mc"):
        raise BadParamsError(f"mode must be 'exact' or 'monte_carlo', got {mode!r}")
    if bounds is None:
        bounds = bound_set(tree, model)
    estimate = None
    if mode == EXACT:
        expected = exact_expected_cost(tree, model, policy)
    else:
        mode = MONTE_CARLO
        estimate = monte_carlo_cost(tree, model, policy, samples, master_seed)
        expected = estimate.mean
    formula_ub = bounds.split_ub if policy == SPLIT else bounds.unsplit_ub
    ratio = expected / bounds.combined_lb if bounds.combined_lb > 0 else 1.0
    return EvalReport(
        instance_id=instance_id,
        policy=policy,
        mode=mode,
        expected_cost=expected,
        bounds=bounds,
        ratio_vs_lb=ratio,
        formula_ub=formula_ub,
        ub_respected=expected <= formula_ub + UB_REL_TOL * formula_ub,
        estimate=estimate,
    )

