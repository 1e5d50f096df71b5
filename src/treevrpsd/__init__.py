"""Vehicle routing with stochastic demands on tree networks.

A depot-rooted tree, one vehicle of capacity Q, and customers with
random integer demands revealed on arrival.  The library builds fixed
depth-first visiting orders, executes the split and unsplit restocking
policies with a uniformly random initial load, computes lower and
upper bound formulas and expected costs, exactly or by Monte Carlo,
and cross-checks everything against brute-force oracles.  The command
line (:mod:`treevrpsd.cli`) puts a cost beside its bounds as a ratio.
"""

from .bounds import (
    BoundSet,
    bertsimas_lb,
    bound_set,
    clairvoyant_edge_lb,
    tour_floor,
    trace_certificate,
)
from .demand import (
    DemandModel,
    DemandPMF,
    Realization,
    make_pmf,
    point_model,
    replication_rng,
    sample_realization,
)
from .errors import TooLargeError, TreeVrpsdError, ValidationError
from .evaluator import (
    Estimate,
    exact_expected_cost,
    monte_carlo_cost,
)
from .instance_io import (
    GeneratorParams,
    InstanceDocument,
    generate_document,
    parse_document,
    parse_instance,
    parse_pmf_spec,
    serialize_document,
)
from .oracle import (
    expected_clairvoyant_lb,
    optimal_unsplit_partition,
)
from .policy import (
    RunTrace,
    WalkGeometry,
    format_trace,
    run_split,
    run_unsplit,
)
from .tree import (
    TreeInstance,
    build_tree,
    check_preorder,
    dfs_order,
    path_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BoundSet",
    "DemandModel",
    "DemandPMF",
    "Estimate",
    "GeneratorParams",
    "InstanceDocument",
    "Realization",
    "RunTrace",
    "TooLargeError",
    "TreeInstance",
    "TreeVrpsdError",
    "ValidationError",
    "WalkGeometry",
    "bertsimas_lb",
    "bound_set",
    "build_tree",
    "check_preorder",
    "clairvoyant_edge_lb",
    "dfs_order",
    "exact_expected_cost",
    "expected_clairvoyant_lb",
    "format_trace",
    "generate_document",
    "make_pmf",
    "monte_carlo_cost",
    "optimal_unsplit_partition",
    "parse_document",
    "parse_instance",
    "parse_pmf_spec",
    "path_distance",
    "point_model",
    "replication_rng",
    "run_split",
    "run_unsplit",
    "sample_realization",
    "serialize_document",
    "tour_floor",
    "trace_certificate",
]
