"""Sweep execution: cached single solves and job-scheduled grid runs.

Two layers:

- :func:`evaluate_throughput` — solve one (topology, traffic, solver)
  instance through the solver registry with optional content-addressed
  caching. This is the call every figure experiment routes through; set
  ``REPRO_CACHE_DIR`` to give the whole experiment harness a warm cache
  without touching a single call site.
- :func:`run_grid` — execute a :class:`~repro.pipeline.scenario.ScenarioGrid`
  in shared-instance batches, serially or across worker processes,
  returning a
  :class:`SweepResult` that renders as a summary table and serializes to
  JSON/CSV artifacts.

``run_grid`` is a thin synchronous wrapper over the layered job model:
a :class:`~repro.pipeline.jobs.GridJob` decomposes the grid into
shared-instance work items, a
:class:`~repro.pipeline.scheduler.GridScheduler` dispatches them onto a
:mod:`~repro.pipeline.executors` backend, and the wrapper blocks until
the job settles. The same job model backs the resumable ``sweep
--manifest`` path (:func:`resume_grid`) and the :mod:`repro.service`
daemon; this module keeps :func:`evaluate_batch`, which those layers
execute for every work item, and :func:`evaluate_cell`, the one-cell
reference it must match. With a cache, a work item is first read from
the cache's instance index (:func:`indexed_cells`), so re-running a
solved grid builds no topology at all.

Cells are independent, so parallelism is a straight fan-out; the shared
cache is filesystem-backed and atomic, so workers coordinate only
through content-addressed files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import fmean, pstdev

import numpy
import scipy

from repro.exceptions import ExperimentError
from repro.flow.result import ThroughputResult
from repro.flow.solvers import SolverConfig, solve_throughput
from repro.pipeline.cache import ResultCache, cache_context, default_cache
from repro.pipeline.fingerprint import (
    result_key,
    solver_fingerprint,
    topology_fingerprint,
    traffic_fingerprint,
)
from repro.pipeline.scenario import Scenario, ScenarioGrid
from repro.topology.base import Topology
from repro.topology.registry import topology_factory
from repro.traffic.base import TrafficMatrix
from repro.traffic.registry import traffic_model_builder
from repro.util.hashing import stable_digest
from repro.util.tables import format_table


def cached_solve(
    topo: Topology,
    traffic: TrafficMatrix,
    config: SolverConfig,
    cache: "ResultCache | None",
    key: "str | None" = None,
    meta: "dict | None" = None,
) -> "tuple[ThroughputResult, bool]":
    """One cached solve; returns ``(result, cache_hit)``.

    The single implementation of the get-or-solve-and-put convention —
    :func:`evaluate_throughput`, :func:`evaluate_cell`, and the growth
    trajectory runner all route through it, so the key derivation and
    entry metadata cannot drift between callers. ``key`` may be passed
    when the caller already derived the fingerprints (the cell path
    records them); ``meta`` defaults to the solver config.
    """
    if cache is None:
        return config.solve(topo, traffic), False
    if key is None:
        key = result_key(
            topology_fingerprint(topo),
            traffic_fingerprint(traffic),
            solver_fingerprint(config),
        )
    cached = cache.get(key)
    if cached is not None:
        return cached, True
    # The solve runs with this cache active so backends that precompute
    # shareable artifacts (the fidelity route sets) store them alongside
    # the results — a warm re-run then recomputes neither.
    with cache_context(cache):
        result = config.solve(topo, traffic)
    cache.put(
        key, result, meta=meta if meta is not None else {"solver": config.to_dict()}
    )
    return result, False


def evaluate_throughput(
    topo: Topology,
    traffic: TrafficMatrix,
    solver: str = "edge_lp",
    cache: "ResultCache | None | bool" = None,
    **options,
) -> ThroughputResult:
    """Solve one instance through the registry, consulting the cache.

    ``cache=None`` (default) and ``cache=True`` use the process-wide
    cache configured via the ``REPRO_CACHE_DIR`` environment variable
    when set, and no cache otherwise; pass ``cache=False`` to force a
    fresh solve; pass a :class:`ResultCache` to use it explicitly.
    """
    if cache is None or cache is True:
        cache = default_cache()
    elif cache is False:
        cache = None
    if cache is None:
        return solve_throughput(topo, traffic, solver, **options)
    result, _ = cached_solve(topo, traffic, SolverConfig.make(solver, **options), cache)
    return result


@dataclass(frozen=True)
class InstanceRecord:
    """What a cell reads off its built (possibly degraded) instance.

    It is also the payload of the instance's index entry (see
    :func:`indexed_cells`), so cells read from the index and cells built
    from scratch come out of one constructor, :meth:`CellResult.of`.
    """

    topology_fp: str
    traffic_fp: str
    num_switches: int
    num_servers: int

    @classmethod
    def of(cls, topo: Topology, traffic_fp: str) -> "InstanceRecord":
        return cls(
            topology_fp=topology_fingerprint(topo),
            traffic_fp=traffic_fp,
            num_switches=topo.num_switches,
            num_servers=topo.num_servers,
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "InstanceRecord":
        """The record an index entry holds; raises ``TypeError`` for a
        malformed or incomplete payload (the cache reads it as a miss)."""
        record = cls(**payload)
        if not (
            isinstance(record.topology_fp, str)
            and isinstance(record.traffic_fp, str)
            and type(record.num_switches) is int
            and type(record.num_servers) is int
        ):
            raise TypeError(f"malformed instance record {payload!r}")
        return record


@dataclass(frozen=True)
class CellResult:
    """Outcome of one sweep cell (scenario coordinates + solved numbers).

    ``dropped_pairs``/``dropped_demand`` are non-zero only for failure
    cells solved with ``unreachable="drop"`` whose fabric partitioned:
    ``throughput`` then concerns the served demand set only.
    """

    scenario: Scenario
    throughput: float
    engine: str
    exact: bool
    total_demand: float
    utilization: float
    num_switches: int
    num_servers: int
    key: str
    topology_fp: str
    traffic_fp: str
    cache_hit: bool
    elapsed_s: float
    dropped_pairs: int = 0
    dropped_demand: float = 0.0
    #: True for estimator backends (see :mod:`repro.estimate`); the
    #: throughput column is then a calibrated estimate, not a solve.
    is_estimate: bool = False
    #: Calibrated error band bounds carried by the estimate (``None``
    #: when absent — exact solves, or uncalibrated estimator runs).
    error_lo: "float | None" = None
    error_hi: "float | None" = None
    #: How a replay step was obtained — ``"cold"`` (fresh model build),
    #: ``"warm"`` (incremental delta re-solve), ``"cache"`` (content
    #: address hit), or ``"fallback"`` (per-step cold solve for a solver
    #: without a warm path). ``None`` outside the replay path; excluded
    #: from ``FIELDS``/``row()`` so CSV artifacts are unchanged.
    replay_mode: "str | None" = None

    #: Column order shared by CSV artifacts and the summary table.
    FIELDS = (
        "topology",
        "size",
        "traffic",
        "solver",
        "failure",
        "replicate",
        "seed",
        "throughput",
        "engine",
        "exact",
        "is_estimate",
        "error_lo",
        "error_hi",
        "total_demand",
        "dropped_pairs",
        "dropped_demand",
        "utilization",
        "num_switches",
        "num_servers",
        "cache_hit",
        "elapsed_s",
        "key",
    )

    @classmethod
    def of(
        cls,
        scenario,
        result: ThroughputResult,
        instance: "InstanceRecord",
        *,
        key: str,
        cache_hit: bool,
        elapsed_s: float,
        replay_mode: "str | None" = None,
    ) -> "CellResult":
        """The cell record of ``result``, solved (or cache-read) on
        ``instance``.

        The one place a cell's numbers are read off a solve, so grid
        cells (built or read from the instance index) and replay steps
        carry the same fields.
        """
        band = result.error_band
        return cls(
            scenario=scenario,
            throughput=result.throughput,
            engine=result.solver,
            exact=result.exact,
            total_demand=result.total_demand,
            utilization=(
                result.utilization if result.total_capacity > 0 else 0.0
            ),
            num_switches=instance.num_switches,
            num_servers=instance.num_servers,
            key=key,
            topology_fp=instance.topology_fp,
            traffic_fp=instance.traffic_fp,
            cache_hit=cache_hit,
            elapsed_s=elapsed_s,
            dropped_pairs=result.num_dropped_pairs,
            dropped_demand=result.dropped_demand,
            is_estimate=result.is_estimate,
            error_lo=band[0] if band is not None else None,
            error_hi=band[1] if band is not None else None,
            replay_mode=replay_mode,
        )

    def row(self) -> dict:
        """Flat record for CSV/JSON artifacts."""
        s = self.scenario
        return {
            "topology": s.topology.label(),
            "size": s.size,
            "traffic": s.traffic.label(),
            "solver": s.solver.label(),
            "failure": s.failure.label() if s.failure is not None else "none",
            "replicate": s.replicate,
            "seed": s.seed,
            "throughput": self.throughput,
            "engine": self.engine,
            "exact": self.exact,
            "is_estimate": self.is_estimate,
            "error_lo": self.error_lo,
            "error_hi": self.error_hi,
            "total_demand": self.total_demand,
            "dropped_pairs": self.dropped_pairs,
            "dropped_demand": self.dropped_demand,
            "utilization": self.utilization,
            "num_switches": self.num_switches,
            "num_servers": self.num_servers,
            "cache_hit": self.cache_hit,
            "elapsed_s": self.elapsed_s,
            "key": self.key,
        }


def evaluate_cell(
    scenario: Scenario, cache: "ResultCache | None" = None
) -> CellResult:
    """Build and solve one grid cell, consulting the cache by content.

    Failure cells solve the degraded topology with the scenario's
    *effective* solver config (``unreachable="drop"`` defaulted in) —
    both the degraded links and the policy enter the cache key, so
    degraded and intact solves never collide.

    This is the one-cell reference that :func:`evaluate_batch` (the path
    every work item takes) must match field for field, timing aside.
    Replay steps go through :func:`~repro.pipeline.replay.evaluate_window`.
    """
    start = time.perf_counter()
    topo, traffic = scenario.build()
    solver_config = scenario.effective_solver()
    instance = InstanceRecord.of(topo, traffic_fingerprint(traffic))
    key = result_key(
        instance.topology_fp,
        instance.traffic_fp,
        solver_fingerprint(solver_config),
    )
    result, cache_hit = cached_solve(
        topo,
        traffic,
        solver_config,
        cache,
        key=key,
        meta={"scenario": scenario.to_dict()},
    )
    return CellResult.of(
        scenario,
        result,
        instance,
        key=key,
        cache_hit=cache_hit,
        elapsed_s=time.perf_counter() - start,
    )


def _instance_key(scenario: Scenario) -> tuple:
    """Cells with equal keys build byte-identical intact (topo, traffic).

    The grid derives one content-hashed seed per (topology, traffic,
    size, replicate) combination — the solver and failure axes are
    deliberately excluded so their columns stay paired — which makes this
    exactly the granularity at which construction work can be shared.
    """
    return (
        scenario.seed,
        scenario.topology,
        scenario.traffic,
        scenario.size,
        scenario.size_param,
        scenario.replicate,
    )


def group_cells(cells: "list[Scenario]") -> "list[list[tuple[int, Scenario]]]":
    """Partition cells into shared-instance batches, keeping grid indices.

    Batches preserve first-appearance order; within a batch, cells keep
    grid order. :func:`ScenarioGrid.cells` enumerates the failure and
    solver axes innermost, so batches are contiguous runs of the grid —
    flattening batch results reproduces grid order exactly.
    """
    groups: "dict[tuple, list]" = {}
    for index, scenario in enumerate(cells):
        groups.setdefault(_instance_key(scenario), []).append((index, scenario))
    return list(groups.values())


#: Kind tag of instance-index entries in the result cache.
INSTANCE_KIND = "instance"


def _source_digest(root: Path) -> str:
    """SHA-256 over the ``.py`` files under ``root``, path and bytes each."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(root).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


#: Everything besides an instance's specs that decides what it builds:
#: the package's code (builders, failure models, seeding, fingerprints;
#: any edit misses the whole index, so nothing needs versioning by hand)
#: and the numeric libraries' versions. Computed at import, so a
#: long-running process keys its entries by the code it runs.
_BUILD_TABLE = {
    "source": _source_digest(Path(__file__).resolve().parent.parent),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
}


def _in_package(builder) -> bool:
    """Whether ``builder``'s code is in :data:`_BUILD_TABLE`'s digest."""
    return (getattr(builder, "__module__", None) or "").startswith("repro.")


def _failure_column(scenario: Scenario):
    """The failure spec a cell degrades its instance by (``None`` intact)."""
    failure = scenario.failure
    if failure is not None and failure.is_null():
        return None
    return failure


def _index_keys(scenarios: "list[Scenario]") -> "dict | None":
    """Index key of each distinct instance of one shared-instance batch,
    by failure column (``None`` = intact).

    ``None`` when the batch's topology kind or traffic model is
    registered from outside the package: the source digest cannot see
    that code, so such batches are never indexed and always build.
    """
    first = scenarios[0]
    if not (
        _in_package(topology_factory(first.topology.kind))
        and _in_package(traffic_model_builder(first.traffic.model))
    ):
        return None
    base = {
        "kind": INSTANCE_KIND,
        "seed": first.seed,
        "topology": first.topology.to_dict(),
        "size": first.size,
        "size_param": first.size_param,
        "traffic": first.traffic.to_dict(),
        "build": _BUILD_TABLE,
    }
    keys = {}
    for scenario in scenarios:
        failure = _failure_column(scenario)
        if failure not in keys:
            keys[failure] = stable_digest(
                {
                    **base,
                    "failure": (
                        failure.to_dict() if failure is not None else None
                    ),
                }
            )
    return keys


def indexed_cells(
    scenarios: "list[Scenario]", cache: "ResultCache | None"
) -> "list[CellResult] | None":
    """A shared-instance batch's cells read from the instance index alone.

    :func:`evaluate_batch` writes one index entry per instance it builds,
    keyed by the instance's specs (cell seed, topology, size,
    ``size_param``, traffic, failure) plus :data:`_BUILD_TABLE`, holding
    an :class:`InstanceRecord`. When every instance of the batch has a
    well-formed entry and every result key derived from them is cached,
    this returns the batch's cells without building, degrading or
    fingerprinting anything. Otherwise it returns ``None`` (all or
    nothing), and the caller builds the batch.
    """
    keys = _index_keys(scenarios) if cache is not None else None
    if keys is None:
        return None
    records: dict = {}
    cells: "list[CellResult]" = []
    for scenario in scenarios:
        start = time.perf_counter()
        failure = _failure_column(scenario)
        record = records.get(failure)
        if record is None:
            record = cache.get_payload(
                keys[failure], INSTANCE_KIND, InstanceRecord.from_payload
            )
            if record is None:
                return None
            records[failure] = record
        key = result_key(
            record.topology_fp,
            record.traffic_fp,
            solver_fingerprint(scenario.effective_solver()),
        )
        result = cache.get(key)
        if result is None:
            return None
        cells.append(
            CellResult.of(
                scenario,
                result,
                record,
                key=key,
                cache_hit=True,
                elapsed_s=time.perf_counter() - start,
            )
        )
    return cells


def evaluate_batch(
    scenarios: "list[Scenario]", cache: "ResultCache | None" = None
) -> "list[CellResult]":
    """Solve a shared-instance batch of cells, building the instance once.

    All scenarios must share an instance key (equal seeds and topology /
    traffic / size coordinates — :func:`group_cells` produces such
    batches). With a cache, the batch is first answered from the
    instance index (:func:`indexed_cells`); on any miss, the intact
    topology and workload are built once, each distinct failure spec
    degrades (and fingerprints) its topology once, and each instance's
    index entry is (re)written. Every solve runs inside one
    :func:`repro.estimate.batch.shared_artifacts` scope, so estimator
    columns share the CSR adjacency and the Fiedler eigensolve.

    Results carry exactly the fields :func:`evaluate_cell` would produce
    — same keys, fingerprints, and solved numbers — except ``elapsed_s``,
    which amortizes the shared construction equally across the batch's
    cells on top of each cell's own solve time.
    """
    from repro.estimate.batch import shared_artifacts
    from repro.resilience import apply_failures, failure_seed

    if not scenarios:
        return []
    first = scenarios[0]
    if getattr(first, "is_replay_step", False):
        # Replay windows ride the same work-item plumbing; their steps
        # solve sequentially with warm starts instead of instance sharing,
        # and are cached under their own chained step keys.
        from repro.pipeline.replay import evaluate_window

        return evaluate_window(list(scenarios), cache=cache)
    key0 = _instance_key(first)
    for scenario in scenarios[1:]:
        if _instance_key(scenario) != key0:
            raise ExperimentError(
                "evaluate_batch needs cells sharing one sampled instance; "
                f"{scenario.label()!r} differs from {first.label()!r}"
            )
    cells = indexed_cells(scenarios, cache)
    if cells is not None:
        return cells
    shared_start = time.perf_counter()
    topo_ss, traffic_ss = first.instance_seeds()
    intact = first.topology.build(
        seed=topo_ss, size=first.size, size_param=first.size_param
    )
    traffic = first.traffic.build(intact, seed=traffic_ss)
    traffic_fp = traffic_fingerprint(traffic)
    index_keys = _index_keys(scenarios) if cache is not None else None
    # One degraded topology + instance record per distinct failure column
    # (None = intact). FailureSpec is frozen/hashable, like the specs.
    instances: dict = {}
    for scenario in scenarios:
        failure = _failure_column(scenario)
        if failure in instances:
            continue
        if failure is None:
            topo = intact
        else:
            topo = apply_failures(
                intact, failure, seed=failure_seed(first.seed, failure)
            )
        record = InstanceRecord.of(topo, traffic_fp)
        if index_keys is not None:
            cache.put_payload(index_keys[failure], INSTANCE_KIND, asdict(record))
        instances[failure] = (topo, record)
    shared_share = (time.perf_counter() - shared_start) / len(scenarios)

    results: "list[CellResult]" = []
    with shared_artifacts():
        for scenario in scenarios:
            start = time.perf_counter()
            topo, record = instances[_failure_column(scenario)]
            solver_config = scenario.effective_solver()
            key = result_key(
                record.topology_fp,
                record.traffic_fp,
                solver_fingerprint(solver_config),
            )
            result, cache_hit = cached_solve(
                topo,
                traffic,
                solver_config,
                cache,
                key=key,
                meta={"scenario": scenario.to_dict()},
            )
            results.append(
                CellResult.of(
                    scenario,
                    result,
                    record,
                    key=key,
                    cache_hit=cache_hit,
                    elapsed_s=shared_share + time.perf_counter() - start,
                )
            )
    return results


@dataclass
class SweepResult:
    """All cell results of one grid execution, plus run provenance.

    ``restored`` counts cells that came straight out of a resume
    manifest (see :func:`resume_grid`) — they were *skipped*, not
    re-executed, this run.
    """

    grid: ScenarioGrid
    cells: "list[CellResult]" = field(default_factory=list)
    workers: int = 1
    cache_dir: "str | None" = None
    elapsed_s: float = 0.0
    restored: int = 0
    #: ``re_solved / cache_hit / skipped`` split from the job, set by
    #: resumed runs only (``None`` keeps fresh-run artifacts unchanged).
    solve_counts: "dict | None" = None

    @property
    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.cache_hit)

    def rows(self) -> "list[dict]":
        return [cell.row() for cell in self.cells]

    def mean_series(self) -> "list[dict]":
        """Replicate-averaged throughput per
        (topology, size, traffic, solver, failure)."""
        groups: dict = {}
        for cell in self.cells:
            s = cell.scenario
            group_key = (
                s.topology.label(),
                s.size,
                s.traffic.label(),
                s.solver.label(),
                s.failure.label() if s.failure is not None else "none",
            )
            groups.setdefault(group_key, []).append(cell)
        out = []
        for (topology, size, traffic, solver, failure), cells in sorted(
            groups.items(), key=lambda item: tuple(map(str, item[0]))
        ):
            values = [cell.throughput for cell in cells]
            # Same mean/population-std convention as
            # experiments.common.mean_and_std (not imported: that package
            # pulls in every figure module, which import this one).
            mean, std = fmean(values), pstdev(values)
            out.append(
                {
                    "topology": topology,
                    "size": size,
                    "traffic": traffic,
                    "solver": solver,
                    "failure": failure,
                    "replicates": len(values),
                    "throughput_mean": mean,
                    "throughput_std": std,
                    "dropped_pairs_mean": fmean(
                        cell.dropped_pairs for cell in cells
                    ),
                }
            )
        return out

    def to_table(self, float_format: str = "{:.4f}") -> str:
        """Replicate-averaged summary as an aligned text table."""
        headers = [
            "topology", "size", "traffic", "solver", "failure",
            "reps", "throughput", "std", "dropped",
        ]
        rows = [
            [
                entry["topology"],
                "-" if entry["size"] is None else entry["size"],
                entry["traffic"],
                entry["solver"],
                entry["failure"],
                entry["replicates"],
                entry["throughput_mean"],
                entry["throughput_std"],
                entry["dropped_pairs_mean"],
            ]
            for entry in self.mean_series()
        ]
        header = (
            f"== sweep {self.grid.name!r}: {len(self.cells)} cells, "
            f"{self.cache_hits} cache hits, {self.workers} worker(s), "
            f"{self.elapsed_s:.1f}s ==\n"
        )
        return header + format_table(headers, rows, float_format=float_format)

    def to_dict(self) -> dict:
        payload = {
            "grid": self.grid.to_dict(),
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "elapsed_s": self.elapsed_s,
            "cache_hits": self.cache_hits,
            "cells": self.rows(),
            "summary": self.mean_series(),
        }
        if self.restored:
            payload["restored"] = self.restored
        if self.solve_counts is not None:
            payload["solve_counts"] = self.solve_counts
        return payload

    def write_json(self, path: str) -> None:
        """Write the full sweep (cells + summary + grid) as one JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    def write_csv(self, path: str) -> None:
        """Write one CSV row per cell."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(CellResult.FIELDS))
            writer.writeheader()
            for row in self.rows():
                writer.writerow(row)


def _execute_job(
    job,
    workers: int,
    progress=None,
    retry=None,
) -> list:
    """Run a :class:`~repro.pipeline.jobs.GridJob` to completion, bridging
    the scheduler's per-cell callback onto the old ``progress(done,
    total, cell)`` contract. Restored (manifest-skipped) cells count as
    already done, so resumed runs report honest totals."""
    from repro.pipeline.scheduler import run_job

    total = job.total_cells
    done = len(job.restored_indices)

    def on_cell(index: int, cell_result) -> None:
        # Called from the single dispatcher thread only, so the plain
        # counter needs no lock.
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, cell_result)

    return run_job(
        job,
        workers=workers,
        retry=retry,
        on_cell=on_cell if progress is not None else None,
    )


def run_grid(
    grid: ScenarioGrid,
    workers: int = 1,
    cache_dir: "str | None" = None,
    progress=None,
    manifest: "str | None" = None,
    retry=None,
) -> SweepResult:
    """Execute every cell of ``grid``; return the collected results.

    ``workers > 1`` fans work out over a process pool (cells are
    independent; results come back in grid order). ``cache_dir`` enables
    the shared content-addressed result cache. ``progress`` is an optional
    ``callable(done, total, cell_result)`` invoked as cells finish.

    Cells that share a sampled instance — same topology build, same
    workload; the grid's solver and failure columns — execute together
    (:func:`evaluate_batch`): the instance is built and fingerprinted
    once (or, on a rerun, read from the cache's instance index without
    being built), estimator columns share their eigensolves and adjacency, and
    under ``workers > 1`` whole groups ship to one worker so the sharing
    survives process boundaries. Solved numbers are identical to
    :func:`evaluate_cell`'s, cell by cell.

    ``manifest`` names a JSON run-manifest file rewritten after every
    item completion; an interrupted run resumes from it via
    :func:`resume_grid` (or ``sweep --resume``). ``retry`` is an
    optional :class:`~repro.pipeline.jobs.RetryPolicy` governing
    per-item retry/backoff/timeout; solver exceptions still propagate
    immediately by default, exactly like the direct evaluation path.
    """
    from repro.pipeline.jobs import GridJob

    start = time.perf_counter()
    job = GridJob(grid, cache_dir=cache_dir, manifest_path=manifest)
    cells = _execute_job(job, workers=workers, progress=progress, retry=retry)
    return SweepResult(
        grid=grid,
        cells=cells,
        workers=workers,
        cache_dir=cache_dir,
        elapsed_s=time.perf_counter() - start,
    )


def resume_grid(
    manifest_path: str,
    workers: int = 1,
    progress=None,
    retry=None,
) -> SweepResult:
    """Re-attach to an interrupted run and finish only what's missing.

    Cells the manifest already records are restored without executing
    anything (``SweepResult.restored`` counts them); the remaining items
    re-run against the manifest's cache directory, so cells whose solves
    already landed in the content-addressed cache come back as pure
    cache hits — a resumed run after a crash typically re-solves zero
    cells. Use :meth:`GridJob.solve_counts` semantics via the returned
    result: ``restored`` = skipped, and ``cache_hits`` splits the
    re-executed remainder.
    """
    from repro.pipeline.jobs import GridJob

    start = time.perf_counter()
    job = GridJob.resume(manifest_path)
    cells = _execute_job(job, workers=workers, progress=progress, retry=retry)
    return SweepResult(
        grid=job.grid,
        cells=cells,
        workers=workers,
        cache_dir=job.cache_dir,
        elapsed_s=time.perf_counter() - start,
        restored=len(job.restored_indices),
        solve_counts=job.solve_counts(),
    )
