"""Service acceptance benchmarks: cached-answer latency and preemption.

Two claims about the evaluation service (`repro.service`):

- A fully-cached grid is answered from the grid memo without touching
  the scheduler or spawning a worker — the whole submit costs
  microseconds-to-milliseconds, not a solve.
- An interactive query submitted while a bulk sweep occupies the (one)
  worker completes after at most one in-flight item drains, far before
  the bulk sweep finishes — the two-level priority queue at work.

Like the other wall-clock benchmarks, these run on demand rather than
as a required CI check (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import time

from conftest import append_record, run_once

from repro.flow.solvers import SolverConfig
from repro.pipeline.engine import run_grid
from repro.pipeline.executors import ProcessExecutor
from repro.pipeline.jobs import GridJob
from repro.pipeline.scenario import ScenarioGrid, TopologySpec, TrafficSpec
from repro.pipeline.scheduler import BULK, INTERACTIVE, GridScheduler
from repro.service import EvalService

#: Exact-LP cells sized so each work item costs real solver time (the
#: preemption claim is empty if bulk items finish instantly).
BULK_GRID = ScenarioGrid(
    name="bench-service-bulk",
    topologies=(
        TopologySpec.make("rrg", network_degree=8, servers_per_switch=5),
    ),
    traffics=(TrafficSpec.make("permutation"),),
    solvers=(SolverConfig("edge_lp"),),
    sizes=(28, 32),
    seeds=2,
)

QUERY_GRID = ScenarioGrid(
    name="bench-service-query",
    topologies=(
        TopologySpec.make("rrg", network_degree=6, servers_per_switch=4),
    ),
    traffics=(TrafficSpec.make("permutation"),),
    solvers=(SolverConfig("ecmp"),),
    sizes=(16,),
    seeds=1,
)


def test_cached_answer_latency(benchmark, tmp_path):
    with EvalService(workers=1, cache_dir=str(tmp_path / "cache")) as service:
        _, handle, _ = service.submit(QUERY_GRID)
        handle.result(timeout=300)

        def warm_submit():
            _, h, cached = service.submit(QUERY_GRID)
            assert h is None and cached is not None
            return cached

        # Latency distribution over repeated memo answers.
        samples = []
        for _ in range(200):
            start = time.perf_counter()
            warm_submit()
            samples.append(time.perf_counter() - start)
        run_once(benchmark, warm_submit)
        samples.sort()
        p50 = samples[len(samples) // 2]
        p95 = samples[int(len(samples) * 0.95)]
        print(f"\ncached answer p50 {p50 * 1e6:.0f}us, p95 {p95 * 1e6:.0f}us")
        assert p50 < 0.05, f"memo answer took {p50 * 1e3:.1f}ms at p50"
        append_record(
            "BENCH_pipeline.json",
            "service_cached_answer_latency",
            cells=len(QUERY_GRID),
            p50_us=round(p50 * 1e6, 1),
            p95_us=round(p95 * 1e6, 1),
        )


def test_interactive_preemption_delay(benchmark):
    reference = run_grid(QUERY_GRID)

    def preempted_query() -> dict:
        executor = ProcessExecutor(workers=1)
        timings: dict = {}
        with GridScheduler(executor, max_in_flight=1) as scheduler:
            bulk = scheduler.submit(GridJob(BULK_GRID), priority=BULK)
            # Let the first bulk item reach the worker before querying.
            time.sleep(0.05)
            start = time.perf_counter()
            query = scheduler.submit(GridJob(QUERY_GRID), priority=INTERACTIVE)
            assert query.wait(300)
            timings["query_s"] = time.perf_counter() - start
            assert bulk.wait(600)
            timings["bulk_s"] = time.perf_counter() - start
            cells = query.job.result_cells()
            assert [c.throughput for c in cells] == [
                c.throughput for c in reference.cells
            ]
        executor.shutdown()
        return timings

    timings = run_once(benchmark, preempted_query)
    print(
        f"\ninteractive query {timings['query_s']:.2f}s vs bulk drain "
        f"{timings['bulk_s']:.2f}s"
    )
    # The query jumps the queued bulk items: it must finish well before
    # the sweep, which still has most of its items to solve.
    assert timings["query_s"] < timings["bulk_s"] / 2
    append_record(
        "BENCH_pipeline.json",
        "service_preemption_delay",
        bulk_cells=len(BULK_GRID),
        query_cells=len(QUERY_GRID),
        query_seconds=round(timings["query_s"], 4),
        bulk_seconds=round(timings["bulk_s"], 4),
    )
