"""Unified evaluation pipeline: declarative scenario sweeps over the
solver registry, with process parallelism and a content-addressed result
cache.

The paper's contribution is an evaluation *methodology* — throughput of
many topologies under many workloads — and this package is that
methodology as infrastructure:

>>> from repro.pipeline import ScenarioGrid, TopologySpec, TrafficSpec, run_grid
>>> from repro.flow import SolverConfig
>>> grid = ScenarioGrid(
...     name="demo",
...     topologies=(TopologySpec.make("rrg", network_degree=6,
...                                   servers_per_switch=4),),
...     traffics=(TrafficSpec.make("permutation"),),
...     solvers=(SolverConfig("edge_lp"), SolverConfig("ecmp")),
...     sizes=(16, 24),
...     seeds=3,
... )
>>> sweep = run_grid(grid, workers=4, cache_dir=".sweep-cache")
>>> print(sweep.to_table())

Every cell is deterministically seeded by content, every solve is cached
by (topology hash, traffic hash, solver config), and the same
:func:`evaluate_throughput` entry point backs the figure experiments — so
re-running any figure with ``REPRO_CACHE_DIR`` set reuses identical
solves across figures and sweeps.
"""

from repro.pipeline.cache import CACHE_ENV_VAR, ResultCache, default_cache
from repro.pipeline.engine import (
    CellResult,
    SweepResult,
    evaluate_cell,
    evaluate_throughput,
    resume_grid,
    run_grid,
)
from repro.pipeline.executors import (
    GridExecutor,
    ProcessExecutor,
    SerialExecutor,
    executor_for_workers,
)
from repro.pipeline.fingerprint import (
    result_key,
    solver_fingerprint,
    topology_fingerprint,
    traffic_fingerprint,
)
from repro.pipeline.jobs import GridJob, ItemState, RetryPolicy, WorkItem
from repro.pipeline.replay import (
    ReplayJob,
    ReplayPlan,
    ReplayResult,
    ReplayStep,
    evaluate_window,
    resume_replay,
    run_replay,
)
from repro.pipeline.scenario import (
    Scenario,
    ScenarioGrid,
    TopologySpec,
    TrafficSpec,
)
from repro.pipeline.scheduler import (
    BULK,
    INTERACTIVE,
    GridScheduler,
    JobHandle,
    run_job,
)

__all__ = [
    "CACHE_ENV_VAR",
    "ResultCache",
    "default_cache",
    "CellResult",
    "SweepResult",
    "evaluate_cell",
    "evaluate_throughput",
    "resume_grid",
    "run_grid",
    "GridExecutor",
    "ProcessExecutor",
    "SerialExecutor",
    "executor_for_workers",
    "GridJob",
    "ItemState",
    "RetryPolicy",
    "WorkItem",
    "BULK",
    "INTERACTIVE",
    "GridScheduler",
    "JobHandle",
    "run_job",
    "result_key",
    "solver_fingerprint",
    "topology_fingerprint",
    "traffic_fingerprint",
    "ReplayJob",
    "ReplayPlan",
    "ReplayResult",
    "ReplayStep",
    "evaluate_window",
    "resume_replay",
    "run_replay",
    "Scenario",
    "ScenarioGrid",
    "TopologySpec",
    "TrafficSpec",
]
