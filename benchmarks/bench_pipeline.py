"""Pipeline acceptance benchmarks: cache speedup and parallel scaling.

Two claims, measured on one grid (RRG x permutation x exact LP, sizes
where the solve dominates topology construction):

- Re-running an identical sweep against a warm content-addressed cache is
  >= 10x faster than the cold run (in practice it is orders of magnitude:
  a cache hit costs an instance-index read plus a result read, not a
  build or an LP solve).
- A multi-worker cold sweep beats the single-worker wall-clock. Cells are
  independent, so the speedup is bounded only by cores and pool startup;
  the assertion is skipped on single-core machines where no parallel
  schedule can win.

Like the other wall-clock benchmarks, these run on demand rather than as
a required CI check (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import os
import time

import pytest
from conftest import append_record, run_once

from repro.flow.solvers import SolverConfig
from repro.pipeline.engine import run_grid
from repro.pipeline.scenario import ScenarioGrid, TopologySpec, TrafficSpec

#: Sizes chosen so each exact-LP cell takes ~seconds: large enough that
#: build + fingerprint overhead is negligible, small enough for CI use.
GRID = ScenarioGrid(
    name="bench-pipeline",
    topologies=(
        TopologySpec.make("rrg", network_degree=8, servers_per_switch=5),
    ),
    traffics=(TrafficSpec.make("permutation"),),
    solvers=(SolverConfig("edge_lp"),),
    sizes=(32, 40),
    seeds=2,
)


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_warm_cache_at_least_10x(benchmark, tmp_path):
    cache_dir = str(tmp_path / "cache")
    start = time.perf_counter()
    cold = run_grid(GRID, workers=1, cache_dir=cache_dir)
    cold_s = time.perf_counter() - start
    assert cold.cache_hits == 0

    warm = run_once(benchmark, run_grid, GRID, workers=1, cache_dir=cache_dir)
    warm_s = warm.elapsed_s
    assert warm.cache_hits == len(warm.cells)
    assert [c.throughput for c in warm.cells] == [
        c.throughput for c in cold.cells
    ]
    speedup = cold_s / warm_s
    print(f"\ncold {cold_s:.2f}s -> warm {warm_s:.3f}s ({speedup:.0f}x)")
    assert speedup >= 10.0, f"warm cache only {speedup:.1f}x faster"
    append_record(
        "BENCH_pipeline.json",
        "warm_cache_speedup",
        cells=len(warm.cells),
        cold_seconds=round(cold_s, 4),
        warm_seconds=round(warm_s, 4),
        speedup=round(speedup, 1),
    )


@pytest.mark.skipif(
    _cores() < 2, reason="parallel speedup requires >= 2 CPU cores"
)
def test_multi_worker_beats_single(benchmark):
    start = time.perf_counter()
    single = run_grid(GRID, workers=1)
    single_s = time.perf_counter() - start

    workers = min(4, _cores())
    multi = run_once(benchmark, run_grid, GRID, workers=workers)
    multi_s = multi.elapsed_s
    assert [c.throughput for c in multi.cells] == [
        c.throughput for c in single.cells
    ]
    print(f"\nserial {single_s:.2f}s -> {workers} workers {multi_s:.2f}s")
    assert multi_s < single_s, (
        f"{workers}-worker sweep ({multi_s:.2f}s) did not beat "
        f"single-worker ({single_s:.2f}s)"
    )
    append_record(
        "BENCH_pipeline.json",
        "multi_worker_scaling",
        cells=len(multi.cells),
        workers=workers,
        serial_seconds=round(single_s, 4),
        parallel_seconds=round(multi_s, 4),
        speedup=round(single_s / multi_s, 2),
    )


def test_cache_correctness_across_worker_counts(benchmark, tmp_path):
    """Parallel cold run, serial warm run: identical numbers, all hits."""
    cache_dir = str(tmp_path / "cache")
    cold = run_once(
        benchmark, run_grid, GRID, workers=min(2, _cores()), cache_dir=cache_dir
    )
    warm = run_grid(GRID, workers=1, cache_dir=cache_dir)
    assert warm.cache_hits == len(warm.cells)
    assert [c.throughput for c in warm.cells] == [
        c.throughput for c in cold.cells
    ]
