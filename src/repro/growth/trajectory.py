"""Execute growth schedules: throughput trajectories with churn accounting.

:func:`run_growth` walks one (schedule, strategy, seed) chain stage by
stage, and for every stage records

- the solved **throughput** (exact LP while the fabric is small, a
  calibrated :mod:`repro.estimate` backend beyond ``exact_limit`` —
  the ``"auto"`` solver policy),
- the **rewiring churn** against the previous stage (links added and
  removed, via link-set diff — strategy-agnostic, so a swap stage and a
  forklift fat-tree upgrade are measured with the same ruler),
- the **cabling churn** (cable counts and Manhattan lengths on a
  rack-row layout that appends new racks as equipment arrives, via
  :func:`repro.core.cabling.cable_churn`), and
- the cumulative totals an operator would budget against.

Solves route through the pipeline's
:func:`~repro.pipeline.engine.cached_solve`, so trajectories are
content-fingerprinted and cached exactly like sweep cells: re-running a
schedule against a warm cache re-solves nothing.
:func:`run_growth_sweep` fans (strategy, replicate) pairs out through
the pipeline's executor. The *strategy* axis is excluded from seed
derivation — every strategy sees the same initial build and the same
per-stage arrival randomness, so trajectories are paired the way the
pipeline pairs its solver columns.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from statistics import fmean, pstdev

import numpy as np

from repro.core.cabling import cable_churn
from repro.exceptions import ExperimentError
from repro.flow.solvers import SolverConfig, get_solver
from repro.growth.plan import GrowthSchedule
from repro.growth.strategies import grow_stages, make_strategy
from repro.pipeline.cache import ResultCache, default_cache
from repro.pipeline.engine import cached_solve
from repro.pipeline.executors import executor_for_workers
from repro.topology.base import Topology
from repro.traffic.registry import make_traffic
from repro.util.hashing import stable_seed
from repro.util.tables import format_table

#: Largest fabric the ``"auto"`` solver policy still solves exactly.
DEFAULT_EXACT_LIMIT = 80

#: Estimator backend ``"auto"`` switches to beyond the exact limit.
DEFAULT_ESTIMATOR = "estimate_bound"


def solver_for_size(
    num_switches: int,
    solver: str = "auto",
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    estimator: str = DEFAULT_ESTIMATOR,
) -> str:
    """Resolve the ``"auto"`` solver policy for one fabric size.

    ``solver="auto"`` picks the exact LP up to ``exact_limit`` switches
    and ``estimator`` beyond it; any other name is returned unchanged
    (after registry validation).
    """
    if solver == "auto":
        return "edge_lp" if num_switches <= exact_limit else estimator
    return get_solver(solver).name


@dataclass(frozen=True)
class StageRecord:
    """Everything measured at one stage of one trajectory."""

    index: int
    label: str
    target_switches: int
    num_switches: int
    num_servers: int
    num_links: int
    idle_switches: int
    solver: str
    throughput: float
    is_estimate: bool
    error_lo: "float | None"
    error_hi: "float | None"
    links_added: int
    links_removed: int
    cables_added_length: float
    cables_removed_length: float
    cumulative_links_touched: int
    cumulative_cable_length: float
    cache_hit: bool
    elapsed_s: float

    #: Column order shared by CSV artifacts and the summary table.
    FIELDS = (
        "stage",
        "label",
        "target_switches",
        "num_switches",
        "num_servers",
        "num_links",
        "idle_switches",
        "solver",
        "throughput",
        "is_estimate",
        "error_lo",
        "error_hi",
        "links_added",
        "links_removed",
        "cables_added_length",
        "cables_removed_length",
        "cumulative_links_touched",
        "cumulative_cable_length",
        "cache_hit",
        "elapsed_s",
    )

    @property
    def links_touched(self) -> int:
        """Links handled at this stage (added + removed)."""
        return self.links_added + self.links_removed

    def row(self) -> dict:
        """Flat record for CSV/JSON artifacts."""
        return {
            "stage": self.index,
            "label": self.label,
            "target_switches": self.target_switches,
            "num_switches": self.num_switches,
            "num_servers": self.num_servers,
            "num_links": self.num_links,
            "idle_switches": self.idle_switches,
            "solver": self.solver,
            "throughput": self.throughput,
            "is_estimate": self.is_estimate,
            "error_lo": self.error_lo,
            "error_hi": self.error_hi,
            "links_added": self.links_added,
            "links_removed": self.links_removed,
            "cables_added_length": self.cables_added_length,
            "cables_removed_length": self.cables_removed_length,
            "cumulative_links_touched": self.cumulative_links_touched,
            "cumulative_cable_length": self.cumulative_cable_length,
            "cache_hit": self.cache_hit,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class GrowthTrajectory:
    """All stage records of one (schedule, strategy, replicate) chain."""

    schedule: GrowthSchedule
    strategy: str
    replicate: int
    seed: int
    records: "list[StageRecord]" = field(default_factory=list)

    def rows(self) -> "list[dict]":
        out = []
        for record in self.records:
            row = {
                "strategy": self.strategy,
                "replicate": self.replicate,
                "seed": self.seed,
            }
            row.update(record.row())
            out.append(row)
        return out

    def throughputs(self) -> "list[float]":
        return [record.throughput for record in self.records]

    def final(self) -> StageRecord:
        return self.records[-1]

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "strategy": self.strategy,
            "replicate": self.replicate,
            "seed": self.seed,
            "stages": [record.row() for record in self.records],
        }


def _extend_layout(positions: dict, topo: Topology) -> None:
    """Append this stage's new switches to the rack row, in place.

    Models the operational reality the cable accounting needs: racks
    already on the floor never move, newly arriving racks take the next
    slots, so old cables keep their lengths across stages.
    """
    slot = len(positions)
    for node in topo.switches:
        if node not in positions:
            positions[node] = slot
            slot += 1


def run_growth(
    schedule: GrowthSchedule,
    strategy: str = "swap",
    *,
    strategy_options: "dict | None" = None,
    traffic: str = "permutation",
    traffic_params: "dict | None" = None,
    solver: str = "auto",
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    estimator: str = DEFAULT_ESTIMATOR,
    estimator_band: "tuple[float, float] | None" = None,
    solver_options: "dict | None" = None,
    replicate: int = 0,
    base_seed: int = 0,
    seed: "int | None" = None,
    cache: "ResultCache | None | bool" = None,
) -> GrowthTrajectory:
    """Execute one growth chain and measure every stage.

    ``seed`` defaults to a content-derived value hashing the schedule,
    workload, and replicate index (strategy deliberately excluded — see
    the module docstring). ``estimator_band`` attaches a calibrated
    error band (:mod:`repro.estimate.calibrate`) to every estimator
    solve. ``cache`` follows the
    :func:`~repro.pipeline.engine.evaluate_throughput` convention:
    ``None``/``True`` use the ``REPRO_CACHE_DIR`` process cache,
    ``False`` disables, a :class:`ResultCache` is used directly.
    """
    strategy_obj = make_strategy(strategy, **(strategy_options or {}))
    if cache is None or cache is True:
        cache = default_cache()
    elif cache is False:
        cache = None
    if seed is None:
        seed = stable_seed(
            {
                "growth": schedule.to_dict(),
                "traffic": [traffic, sorted((traffic_params or {}).items())],
                "base": base_seed,
                "replicate": replicate,
            }
        )
    chain_ss, traffic_root = np.random.SeedSequence(seed).spawn(2)
    traffic_seeds = traffic_root.spawn(len(schedule))

    trajectory = GrowthTrajectory(
        schedule=schedule,
        strategy=strategy_obj.label(),
        replicate=replicate,
        seed=seed,
    )
    positions: dict = {}
    previous: "Topology | None" = None
    cumulative_links = 0
    cumulative_cable = 0.0
    for index, stage, topo in grow_stages(schedule, strategy_obj, seed=chain_ss):
        start = time.perf_counter()
        _extend_layout(positions, topo)
        # The initial build diffs against an empty floor: every cable is
        # installed, none removed. Links and cables are the same objects
        # under the collapsed-trunk model, so the churn report carries
        # both the counts and the lengths.
        churn = cable_churn(
            previous if previous is not None else Topology(), topo, positions
        )
        cumulative_links += churn.cables_touched
        cumulative_cable += churn.length_touched

        tm = make_traffic(
            traffic, topo, seed=traffic_seeds[index], **(traffic_params or {})
        )
        solver_name = solver_for_size(
            topo.num_switches,
            solver=solver,
            exact_limit=exact_limit,
            estimator=estimator,
        )
        options = dict(solver_options or {})
        if estimator_band is not None and get_solver(solver_name).estimate:
            options.setdefault("error_band", tuple(estimator_band))
        config = SolverConfig.make(solver_name, **options)
        result, cache_hit = cached_solve(topo, tm, config, cache)

        trajectory.records.append(
            StageRecord(
                index=index,
                label=stage.name(index),
                target_switches=stage.target_switches,
                num_switches=topo.num_switches,
                num_servers=topo.num_servers,
                num_links=topo.num_links,
                idle_switches=stage.target_switches - topo.num_switches,
                solver=config.label(),
                throughput=result.throughput,
                is_estimate=result.is_estimate,
                error_lo=(
                    result.error_band[0]
                    if result.error_band is not None
                    else None
                ),
                error_hi=(
                    result.error_band[1]
                    if result.error_band is not None
                    else None
                ),
                links_added=churn.cables_added,
                links_removed=churn.cables_removed,
                cables_added_length=churn.added_length,
                cables_removed_length=churn.removed_length,
                cumulative_links_touched=cumulative_links,
                cumulative_cable_length=cumulative_cable,
                cache_hit=cache_hit,
                elapsed_s=time.perf_counter() - start,
            )
        )
        previous = topo
    return trajectory


def _run_growth_task(args: tuple) -> GrowthTrajectory:
    """Module-level worker entry (must be picklable for process pools).

    An explicit ``cache`` passed through the sweep's keyword arguments
    wins; otherwise the worker opens the shared ``cache_dir`` itself
    (or runs uncached), mirroring :func:`repro.pipeline.engine.run_grid`.
    """
    schedule, strategy, replicate, cache_dir, kwargs = args
    if "cache" not in kwargs:
        kwargs["cache"] = ResultCache(cache_dir) if cache_dir else False
    return run_growth(schedule, strategy, replicate=replicate, **kwargs)


@dataclass
class GrowthSweepResult:
    """All trajectories of one growth campaign, plus run provenance."""

    schedule: GrowthSchedule
    trajectories: "list[GrowthTrajectory]" = field(default_factory=list)
    workers: int = 1
    cache_dir: "str | None" = None
    elapsed_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(
            1
            for trajectory in self.trajectories
            for record in trajectory.records
            if record.cache_hit
        )

    @property
    def num_cells(self) -> int:
        return sum(len(t.records) for t in self.trajectories)

    def rows(self) -> "list[dict]":
        return [row for t in self.trajectories for row in t.rows()]

    def mean_series(self) -> "list[dict]":
        """Replicate-averaged stage metrics per strategy."""
        groups: dict = {}
        for trajectory in self.trajectories:
            for record in trajectory.records:
                key = (trajectory.strategy, record.index)
                groups.setdefault(key, []).append(record)
        out = []
        for (strategy, stage), records in sorted(groups.items()):
            throughputs = [r.throughput for r in records]
            out.append(
                {
                    "strategy": strategy,
                    "stage": stage,
                    "target_switches": records[0].target_switches,
                    "num_switches_mean": fmean(
                        r.num_switches for r in records
                    ),
                    "num_servers_mean": fmean(r.num_servers for r in records),
                    "idle_switches_mean": fmean(
                        r.idle_switches for r in records
                    ),
                    "replicates": len(records),
                    "throughput_mean": fmean(throughputs),
                    "throughput_std": pstdev(throughputs),
                    "links_touched_mean": fmean(
                        r.links_touched for r in records
                    ),
                    "cable_length_mean": fmean(
                        r.cables_added_length + r.cables_removed_length
                        for r in records
                    ),
                    "cumulative_links_touched_mean": fmean(
                        r.cumulative_links_touched for r in records
                    ),
                }
            )
        return out

    def to_table(self, float_format: str = "{:.4f}") -> str:
        """Replicate-averaged summary as an aligned text table."""
        headers = [
            "strategy", "stage", "budget", "switches", "servers", "idle",
            "reps", "throughput", "std", "links±", "cable",
        ]
        rows = [
            [
                entry["strategy"],
                entry["stage"],
                entry["target_switches"],
                round(entry["num_switches_mean"]),
                round(entry["num_servers_mean"]),
                round(entry["idle_switches_mean"]),
                entry["replicates"],
                entry["throughput_mean"],
                entry["throughput_std"],
                round(entry["links_touched_mean"]),
                round(entry["cable_length_mean"]),
            ]
            for entry in self.mean_series()
        ]
        header = (
            f"== growth {self.schedule.name!r}: "
            f"{len(self.trajectories)} trajectories, {self.num_cells} stage "
            f"cells, {self.cache_hits} cache hits, {self.workers} worker(s), "
            f"{self.elapsed_s:.1f}s ==\n"
        )
        return header + format_table(headers, rows, float_format=float_format)

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "elapsed_s": self.elapsed_s,
            "cache_hits": self.cache_hits,
            "trajectories": [t.to_dict() for t in self.trajectories],
            "summary": self.mean_series(),
        }

    def write_json(self, path: str) -> None:
        """Write the full campaign (trajectories + summary) as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    def write_csv(self, path: str) -> None:
        """Write one CSV row per (strategy, replicate, stage)."""
        fieldnames = ["strategy", "replicate", "seed", *StageRecord.FIELDS]
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            for row in self.rows():
                writer.writerow(row)


def run_growth_sweep(
    schedule: GrowthSchedule,
    strategies: "tuple[str, ...]" = ("swap",),
    *,
    seeds: int = 1,
    base_seed: int = 0,
    workers: int = 1,
    cache_dir: "str | None" = None,
    strategy_options: "dict[str, dict] | None" = None,
    estimator_bands: "dict[str, tuple] | None" = None,
    progress=None,
    **run_kwargs,
) -> GrowthSweepResult:
    """Run ``seeds`` replicates of every strategy over one schedule.

    (strategy, replicate) chains are independent, so ``workers > 1``
    fans them over that many processes
    (:func:`~repro.pipeline.executors.executor_for_workers`); the shared
    on-disk cache keeps workers coordinated through content-addressed
    files, exactly like :func:`~repro.pipeline.engine.run_grid`.
    ``strategy_options`` maps a strategy name to its constructor
    options, ``estimator_bands`` maps a strategy name to the calibrated
    band its estimator solves carry.
    ``progress`` is an optional ``callable(done, total, trajectory)``.
    """
    if seeds < 1:
        raise ExperimentError(f"seeds must be >= 1, got {seeds}")
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    options = strategy_options or {}
    bands = estimator_bands or {}
    tasks = []
    for strategy in strategies:
        for replicate in range(seeds):
            kwargs = dict(run_kwargs)
            kwargs["base_seed"] = base_seed
            kwargs["strategy_options"] = options.get(strategy)
            if strategy in bands:
                kwargs["estimator_band"] = bands[strategy]
            tasks.append((schedule, strategy, replicate, cache_dir, kwargs))

    start = time.perf_counter()
    trajectories: "list[GrowthTrajectory]" = []
    executor = executor_for_workers(workers)
    try:
        for trajectory in executor.map(_run_growth_task, tasks):
            trajectories.append(trajectory)
            if progress is not None:
                progress(len(trajectories), len(tasks), trajectory)
    finally:
        executor.shutdown()
    return GrowthSweepResult(
        schedule=schedule,
        trajectories=trajectories,
        workers=workers,
        cache_dir=cache_dir,
        elapsed_s=time.perf_counter() - start,
    )
