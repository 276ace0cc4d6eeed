"""Trace replay: a timeline axis through the job model, warm-started.

A :class:`ReplayPlan` pairs one topology with a
:class:`~repro.traffic.timeline.TrafficTimeline` and one solver; replay
evaluates throughput at **every timestep**. The plan decomposes into the
same :class:`~repro.pipeline.jobs.WorkItem` machinery grids use — one
item per *window* of consecutive steps — so the PR 8 scheduler,
executors, retry/backoff, manifest resume, and the service daemon all
apply unchanged. Windows parallelize across workers; *within* a window
steps solve sequentially so each step warm-starts from its predecessor:

- ``edge_lp`` → one :class:`~repro.flow.incremental.EdgeLPModel` built
  cold at the window's first uncached step (``sources="all"`` so later
  deltas can introduce new sources), then advanced per step via
  :meth:`~repro.flow.incremental.EdgeLPModel.apply_demand_delta`.
- ``estimate_bound`` → a :class:`~repro.metrics.paths.DemandHopTracker`
  caches one hop distance per demand pair and re-prices only
  delta-touched sources per step.
- any other solver → per-step cold solves (``replay_mode="fallback"``).

Every step is content-addressed in the :class:`~repro.pipeline.cache.
ResultCache` by the timeline's *chained* step fingerprint (see
:meth:`TrafficTimeline.step_fingerprints`), so a warm re-run of the same
trace answers every step from the cache without materializing a single
matrix or building a single model — the CI gate asserts ``0 cold
builds`` on the second run.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

from repro.exceptions import ExperimentError, FlowError
from repro.flow.solvers import SolverConfig
from repro.pipeline.fingerprint import (
    result_key,
    solver_fingerprint,
    topology_fingerprint,
)
from repro.pipeline.jobs import GridJob
from repro.pipeline.scenario import TopologySpec
from repro.traffic.timeline import TrafficTimeline

#: Steps per work item. The window is the warm-chain unit: larger windows
#: warm-start more steps per cold build, smaller windows parallelize
#: further across workers.
DEFAULT_WINDOW = 16

#: Manifest marker distinguishing replay manifests from grid manifests.
REPLAY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class _StepTrafficLabel:
    """Duck-typed ``TrafficSpec`` stand-in: replay steps have no model
    name, just a position in a named timeline."""

    timeline: str
    step: int

    def label(self) -> str:
        return f"{self.timeline}@t{self.step}"


@dataclass(frozen=True)
class ReplayPlan:
    """One replay run as data: topology × timeline × solver (+ windowing)."""

    name: str
    topology: TopologySpec
    timeline: TrafficTimeline
    solver: SolverConfig
    seed: int = 0
    window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ExperimentError(f"window must be >= 1, got {self.window}")

    @property
    def num_steps(self) -> int:
        return self.timeline.num_steps

    def build_topology(self):
        return self.topology.build(seed=self.seed)

    def step_fingerprints(self) -> "list[str]":
        """Chained per-step content digests (memoized on the plan)."""
        if "_step_fps" not in self.__dict__:
            object.__setattr__(
                self, "_step_fps", self.timeline.step_fingerprints()
            )
        return self.__dict__["_step_fps"]

    def cells(self) -> "list[ReplayStep]":
        return [ReplayStep(plan=self, step=i) for i in range(self.num_steps)]

    def label(self) -> str:
        return (
            f"{self.topology.label()} / {self.timeline.name} "
            f"({self.num_steps} steps) / {self.solver.label()}"
        )

    def to_dict(self) -> dict:
        return {
            "replay_schema": REPLAY_SCHEMA_VERSION,
            "name": self.name,
            "topology": self.topology.to_dict(),
            "timeline": self.timeline.to_dict(),
            "solver": self.solver.to_dict(),
            "seed": self.seed,
            "window": self.window,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ReplayPlan":
        version = payload.get("replay_schema")
        if version != REPLAY_SCHEMA_VERSION:
            raise ExperimentError(
                f"not a replay plan payload (replay_schema={version!r})"
            )
        return cls(
            name=str(payload["name"]),
            topology=TopologySpec.from_dict(payload["topology"]),
            timeline=TrafficTimeline.from_dict(payload["timeline"]),
            solver=SolverConfig.from_dict(payload["solver"]),
            seed=int(payload.get("seed", 0)),
            window=int(payload.get("window", DEFAULT_WINDOW)),
        )


@dataclass(frozen=True)
class ReplayStep:
    """One timestep of a replay — the cell unit the job model schedules.

    Duck-types the ``Scenario`` surface that
    :class:`~repro.pipeline.engine.CellResult` reads (topology / traffic
    / solver labels, failure, replicate, seed), so replay cells flow
    through the existing result, manifest, and artifact plumbing.
    """

    plan: ReplayPlan
    step: int

    #: Dispatch marker read by ``evaluate_batch``.
    is_replay_step = True

    @property
    def topology(self) -> TopologySpec:
        return self.plan.topology

    @property
    def traffic(self) -> _StepTrafficLabel:
        return _StepTrafficLabel(self.plan.timeline.name, self.step)

    @property
    def solver(self) -> SolverConfig:
        return self.plan.solver

    @property
    def failure(self):
        return None

    @property
    def replicate(self) -> int:
        return 0

    @property
    def seed(self) -> int:
        return self.plan.seed

    @property
    def size(self):
        return None

    def label(self) -> str:
        return f"{self.plan.name}@t{self.step}"

    def to_dict(self) -> dict:
        return {
            "replay": self.plan.name,
            "step": self.step,
            "topology": self.plan.topology.to_dict(),
            "solver": self.plan.solver.to_dict(),
            "step_fp": self.plan.step_fingerprints()[self.step],
        }


class _WindowSolver:
    """Per-window warm-start state: advances matrix/model/tracker
    step-by-step in ascending order, cold-building only when needed."""

    def __init__(self, plan: ReplayPlan, topo) -> None:
        self.plan = plan
        self.topo = topo
        self.timeline = plan.timeline
        options = plan.solver.options_dict()
        name = plan.solver.name
        if name == "edge_lp" and set(options) <= {"method"}:
            self.path = "lp"
        elif name == "estimate_bound" and set(options) <= {"error_band"}:
            self.path = "bound"
        else:
            self.path = "generic"
        self.options = options
        self._matrix = None
        self._matrix_step = -1
        self._model = None
        self._model_step = -1
        self._tracker = None
        self._tracker_step = -1

    def _matrix_at(self, step: int):
        """Advance the materialized matrix to ``step`` (monotonic)."""
        if self._matrix is None or step < self._matrix_step:
            self._matrix = self.timeline.matrix_at(step)
            self._matrix_step = step
        while self._matrix_step < step:
            delta = self.timeline.deltas[self._matrix_step]
            self._matrix = delta.apply(
                self._matrix,
                name=f"{self.timeline.name}@t{self._matrix_step + 1}",
            )
            self._matrix_step += 1
        return self._matrix

    def solve(self, step: int) -> tuple:
        """Solve step ``step``; returns ``(ThroughputResult, replay_mode)``."""
        if self.path == "lp":
            return self._solve_lp(step)
        if self.path == "bound":
            return self._solve_bound(step)
        matrix = self._matrix_at(step)
        return self.plan.solver.solve(self.topo, matrix), "fallback"

    def _solve_lp(self, step: int) -> tuple:
        from repro.flow.edge_lp import DEFAULT_METHOD
        from repro.flow.incremental import EdgeLPModel

        method = self.options.get("method", DEFAULT_METHOD)
        mode = "warm"
        if self._model is not None and self._model_step < step:
            try:
                for i in range(self._model_step, step):
                    self._model.apply_demand_delta(self.timeline.deltas[i])
                self._model_step = step
            except FlowError:
                # e.g. a delta momentarily empties the matrix mid-advance;
                # fall back to a cold build at this step.
                self._model = None
        if self._model is None or self._model_step != step:
            matrix = self._matrix_at(step)
            self._model = EdgeLPModel(
                self.topo, matrix, method=method, sources="all"
            )
            self._model_step = step
            mode = "cold"
        return self._model.solve_result(), mode

    def _solve_bound(self, step: int) -> tuple:
        from repro.core.bounds import demand_throughput_upper_bound
        from repro.estimate.bound import SOLVER_LABEL
        from repro.estimate.common import check_error_band, finish_estimate
        from repro.metrics.paths import DemandHopTracker

        band = check_error_band(self.options.get("error_band"))
        mode = "warm"
        matrix = self._matrix_at(step)
        if self._tracker is not None and self._tracker_step < step:
            for i in range(self._tracker_step, step):
                self._tracker.apply_delta(self.timeline.deltas[i])
            self._tracker_step = step
        if self._tracker is None or self._tracker_step != step:
            self._tracker = DemandHopTracker(self.topo, matrix)
            self._tracker_step = step
            mode = "cold"
        throughput = demand_throughput_upper_bound(
            self.topo.total_capacity, self._tracker.total
        )
        result = finish_estimate(
            throughput, matrix, SOLVER_LABEL, (), 0.0, band
        )
        return result, mode


def evaluate_window(steps: "list[ReplayStep]", cache=None) -> list:
    """Evaluate a window of replay steps, warm-starting between them.

    Steps must belong to one plan. Cache hits (by chained step
    fingerprint) skip both matrix materialization and solving; the warm
    state advances lazily to the next miss. Results return in input
    order, one :class:`~repro.pipeline.engine.CellResult` per step.
    """
    from repro.pipeline.engine import CellResult, InstanceRecord

    if not steps:
        return []
    plan = steps[0].plan
    for step in steps[1:]:
        if step.plan is not plan and step.plan != plan:
            raise ExperimentError(
                "evaluate_window needs steps from one replay plan; "
                f"{step.label()!r} differs from {steps[0].label()!r}"
            )
    shared_start = time.perf_counter()
    topo = plan.build_topology()
    topo_fp = topology_fingerprint(topo)
    solver_fp = solver_fingerprint(plan.solver)
    step_fps = plan.step_fingerprints()
    solver_state = _WindowSolver(plan, topo)
    shared_share = (time.perf_counter() - shared_start) / len(steps)

    by_step: dict = {}
    for scenario in sorted(steps, key=lambda s: s.step):
        start = time.perf_counter()
        key = result_key(topo_fp, step_fps[scenario.step], solver_fp)
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            result, mode, cache_hit = cached, "cache", True
        else:
            result, mode = solver_state.solve(scenario.step)
            cache_hit = False
            if cache is not None:
                cache.put(key, result, meta=scenario.to_dict())
        by_step[scenario.step] = CellResult.of(
            scenario,
            result,
            InstanceRecord(
                topo_fp,
                step_fps[scenario.step],
                topo.num_switches,
                topo.num_servers,
            ),
            key=key,
            cache_hit=cache_hit,
            elapsed_s=shared_share + time.perf_counter() - start,
            replay_mode=mode,
        )
    return [by_step[scenario.step] for scenario in steps]


class ReplayJob(GridJob):
    """A replay run on the grid job model: windows of consecutive steps.

    Inherits the whole state machine, manifest I/O, and scheduler
    contract from :class:`~repro.pipeline.jobs.GridJob` — only the shard
    decomposition (fixed windows instead of shared-instance batches) and
    the manifest grid payload (a :class:`ReplayPlan`) differ.
    """

    def _shards(self, cells: list) -> "list[tuple]":
        window = max(1, int(self.grid.window))
        return [
            tuple(
                (index, cells[index])
                for index in range(start, min(start + window, len(cells)))
            )
            for start in range(0, len(cells), window)
        ]

    @classmethod
    def _grid_from_manifest(cls, payload: dict):
        return ReplayPlan.from_dict(payload["grid"])

    @property
    def plan(self) -> ReplayPlan:
        return self.grid


@dataclass
class ReplayResult:
    """All step results of one replay execution, plus run provenance."""

    plan: ReplayPlan
    cells: list = field(default_factory=list)
    workers: int = 1
    cache_dir: "str | None" = None
    elapsed_s: float = 0.0
    restored: int = 0

    def mode_counts(self) -> dict:
        """Steps by how they were obtained: cold / warm / cache /
        fallback, plus restored (manifest-skipped on resume, counted
        separately — restored cells keep the mode recorded when they
        originally ran)."""
        counts = {"cold": 0, "warm": 0, "cache": 0, "fallback": 0}
        for cell in self.cells:
            if cell.replay_mode in counts:
                counts[cell.replay_mode] += 1
        counts["restored"] = self.restored
        return counts

    @property
    def cold_builds(self) -> int:
        modes = [cell.replay_mode for cell in self.cells]
        return modes.count("cold")

    @property
    def warm_steps(self) -> int:
        return sum(1 for cell in self.cells if cell.replay_mode == "warm")

    @property
    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.cache_hit)

    @property
    def fallback_solves(self) -> int:
        return sum(
            1 for cell in self.cells if cell.replay_mode == "fallback"
        )

    def throughput_series(self) -> "list[float]":
        return [cell.throughput for cell in self.cells]

    def retained_series(self) -> "list[float]":
        """Per-step throughput relative to step 0 (the base matrix)."""
        series = self.throughput_series()
        if not series or series[0] == 0:
            return [0.0] * len(series)
        base = series[0]
        return [value / base for value in series]

    def summary(self) -> str:
        """One grep-stable line: step and warm/cold counters."""
        series = self.throughput_series()
        lo = min(series) if series else 0.0
        hi = max(series) if series else 0.0
        return (
            f"== replay {self.plan.name!r}: {len(self.cells)} steps, "
            f"{self.cold_builds} cold builds, {self.warm_steps} warm steps, "
            f"{self.cache_hits} cache hits, "
            f"{self.fallback_solves} fallback solves, "
            f"{self.restored} restored, {self.workers} worker(s), "
            f"{self.elapsed_s:.1f}s == throughput [{lo:.4f}, {hi:.4f}]"
        )

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "elapsed_s": self.elapsed_s,
            "restored": self.restored,
            "cold_builds": self.cold_builds,
            "warm_steps": self.warm_steps,
            "cache_hits": self.cache_hits,
            "fallback_solves": self.fallback_solves,
            "throughput": self.throughput_series(),
            "retained": self.retained_series(),
            "cells": [cell.row() for cell in self.cells],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    def write_csv(self, path: str) -> None:
        """One CSV row per step (same schema as sweep cell artifacts,
        plus the step index and replay mode)."""
        from repro.pipeline.engine import CellResult

        fieldnames = ["step", "replay_mode", *CellResult.FIELDS]
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            for index, cell in enumerate(self.cells):
                writer.writerow(
                    {"step": index, "replay_mode": cell.replay_mode,
                     **cell.row()}
                )


def run_replay(
    plan: ReplayPlan,
    workers: int = 1,
    cache_dir: "str | None" = None,
    progress=None,
    manifest: "str | None" = None,
    retry=None,
) -> ReplayResult:
    """Execute every timestep of ``plan``; return the collected results.

    Same contract as :func:`~repro.pipeline.engine.run_grid`: windows fan
    out across ``workers`` (steps *within* a window stay sequential so
    warm starts chain), ``cache_dir`` enables the shared
    content-addressed cache keyed by chained step fingerprints, and
    ``manifest`` makes the run resumable via :func:`resume_replay`.
    """
    from repro.pipeline.engine import _execute_job

    start = time.perf_counter()
    job = ReplayJob(plan, cache_dir=cache_dir, manifest_path=manifest)
    cells = _execute_job(job, workers=workers, progress=progress, retry=retry)
    return ReplayResult(
        plan=plan,
        cells=cells,
        workers=workers,
        cache_dir=cache_dir,
        elapsed_s=time.perf_counter() - start,
    )


def resume_replay(
    manifest_path: str,
    workers: int = 1,
    progress=None,
    retry=None,
) -> ReplayResult:
    """Re-attach to an interrupted replay and finish only what's missing."""
    from repro.pipeline.engine import _execute_job

    start = time.perf_counter()
    job = ReplayJob.resume(manifest_path)
    cells = _execute_job(job, workers=workers, progress=progress, retry=retry)
    return ReplayResult(
        plan=job.plan,
        cells=cells,
        workers=workers,
        cache_dir=job.cache_dir,
        elapsed_s=time.perf_counter() - start,
        restored=len(job.restored_indices),
    )
