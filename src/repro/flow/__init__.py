"""Max concurrent multi-commodity flow engines.

Throughput in the paper is the optimum of the standard maximum concurrent
flow problem: maximize ``t`` such that every source-destination pair with
demand ``d`` simultaneously receives ``t * d`` units of fluid, splittable
flow within link capacities. Maximizing the minimum flow builds fairness
into the metric itself.

Three engines are provided:

- :func:`~repro.flow.edge_lp.max_concurrent_flow` — exact arc-based LP
  (scipy HiGHS) with commodities aggregated by source switch, and
  :func:`~repro.flow.edge_lp.min_hop_flow`, its least-volume optimal
  flow for callers that read flows,
- :func:`~repro.flow.path_lp.max_concurrent_flow_paths` — LP restricted to
  k-shortest path sets (a fast lower bound, and the model MPTCP-over-
  shortest-paths approximates),
- :func:`~repro.flow.approx.garg_koenemann_throughput` — the
  Garg–Könemann (1-ε) combinatorial approximation, no LP solver needed.
"""

from repro.flow.result import ThroughputResult
from repro.flow.reachability import (
    UNREACHABLE_POLICIES,
    split_unreachable_demands,
)
from repro.flow.edge_lp import max_concurrent_flow, min_hop_flow
from repro.flow.path_lp import max_concurrent_flow_paths
from repro.flow.approx import garg_koenemann_throughput
from repro.flow.ecmp import ecmp_throughput
from repro.flow.decomposition import (
    ThroughputDecomposition,
    decompose_throughput,
    group_utilization,
)
from repro.flow.objective import (
    available_throughput_solvers,
    throughput_evaluator,
)
from repro.flow.solvers import (
    SolverBackend,
    SolverConfig,
    ThroughputSolver,
    available_solvers,
    get_solver,
    normalize_solver_name,
    register_solver,
    solve_throughput,
)
from repro.flow.path_decomposition import (
    PathFlow,
    decompose_arc_flows,
    decompose_commodity_flows,
)
from repro.flow.incremental import (
    EdgeLPModel,
    model_stats,
)

__all__ = [
    "ThroughputResult",
    "UNREACHABLE_POLICIES",
    "split_unreachable_demands",
    "max_concurrent_flow",
    "min_hop_flow",
    "max_concurrent_flow_paths",
    "garg_koenemann_throughput",
    "ecmp_throughput",
    "available_throughput_solvers",
    "throughput_evaluator",
    "SolverBackend",
    "SolverConfig",
    "ThroughputSolver",
    "available_solvers",
    "get_solver",
    "normalize_solver_name",
    "register_solver",
    "solve_throughput",
    "ThroughputDecomposition",
    "decompose_throughput",
    "group_utilization",
    "PathFlow",
    "decompose_arc_flows",
    "decompose_commodity_flows",
    "EdgeLPModel",
    "model_stats",
]
