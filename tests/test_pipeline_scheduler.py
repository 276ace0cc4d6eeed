"""Scheduler failure paths: priority, worker death, timeout, cancel, resume."""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exceptions import ExperimentError
from repro.flow.solvers import SolverConfig
from repro.pipeline.engine import resume_grid, run_grid
from repro.pipeline.executors import ProcessExecutor, SerialExecutor
from repro.pipeline.jobs import GridJob, ItemState, RetryPolicy
from repro.pipeline.scenario import ScenarioGrid, TopologySpec, TrafficSpec
from repro.pipeline.scheduler import (
    BULK,
    INTERACTIVE,
    GridScheduler,
    parse_priority,
    run_job,
)


def small_grid(**overrides) -> ScenarioGrid:
    kwargs = dict(
        name="sched-test",
        topologies=(
            TopologySpec.make("rrg", network_degree=4, servers_per_switch=2),
        ),
        traffics=(TrafficSpec.make("permutation"),),
        solvers=(SolverConfig("ecmp"),),
        sizes=(8, 10),
        seeds=2,
    )
    kwargs.update(overrides)
    return ScenarioGrid(**kwargs)


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


class ManualExecutor:
    """Futures the test resolves by hand — fully deterministic ordering.

    ``running=True`` marks every future as started (uncancellable), the
    state of a shard wedged on a worker; the default leaves them pending
    (cancellable), the state of a shard still in the pool's queue.
    """

    workers = 1
    reset_on_timeout = False

    def __init__(self, running: bool = False) -> None:
        self.running = running
        self.submitted: "list[tuple[tuple, Future]]" = []
        self.resets = 0
        self._lock = threading.Lock()

    def submit(self, scenarios, cache_dir) -> Future:
        future: Future = Future()
        if self.running:
            future.set_running_or_notify_cancel()
        with self._lock:
            self.submitted.append((tuple(scenarios), future))
        return future

    def reset(self) -> None:
        self.resets += 1

    @property
    def generation(self) -> int:
        return self.resets

    def worker_pids(self):
        return ()

    def shutdown(self, wait: bool = True) -> None:
        pass


class DyingExecutor(SerialExecutor):
    """Inline executor whose first ``casualties`` submits die like a
    killed process-pool worker (``BrokenProcessPool`` on the future)."""

    def __init__(self, casualties: int = 1) -> None:
        super().__init__()
        self.casualties = casualties
        self.resets = 0

    def submit(self, scenarios, cache_dir) -> Future:
        if self.casualties > 0:
            self.casualties -= 1
            future: Future = Future()
            future.set_running_or_notify_cancel()
            future.set_exception(
                BrokenProcessPool("worker killed mid-cell (simulated)")
            )
            return future
        return super().submit(scenarios, cache_dir)

    def reset(self) -> None:
        self.resets += 1

    @property
    def generation(self) -> int:
        return self.resets


def solved_cells(grid: ScenarioGrid) -> dict:
    """Reference cells keyed by scenario, for manual future resolution."""
    reference = run_grid(grid)
    return dict(zip(grid.cells(), reference.cells))


class TestRunJob:
    def test_matches_run_grid(self):
        grid = small_grid()
        reference = run_grid(grid)
        cells = run_job(GridJob(grid))
        strip = lambda cs: [  # noqa: E731
            dataclasses.replace(c, elapsed_s=0.0) for c in cs
        ]
        assert strip(cells) == strip(reference.cells)

    def test_process_executor_matches(self):
        grid = small_grid()
        reference = run_grid(grid)
        executor = ProcessExecutor(workers=2)
        try:
            cells = run_job(GridJob(grid), executor=executor)
        finally:
            executor.shutdown()
        assert [c.throughput for c in cells] == [
            c.throughput for c in reference.cells
        ]

    def test_solver_error_propagates(self):
        grid = small_grid(
            solvers=(SolverConfig.make("edge_lp", unreachable="nonsense"),),
            sizes=(8,),
            seeds=1,
        )
        with pytest.raises(Exception) as excinfo:
            run_job(GridJob(grid))
        assert "nonsense" in str(excinfo.value)

    def test_parse_priority(self):
        assert parse_priority("interactive") == INTERACTIVE
        assert parse_priority("bulk") == BULK
        assert parse_priority(3) == 3
        with pytest.raises(ExperimentError):
            parse_priority("urgent")


class TestInteractivePriority:
    def test_interactive_jumps_queued_bulk_items(self):
        bulk_grid = small_grid()
        query_grid = small_grid(name="query", sizes=(8,), seeds=1)
        cells = solved_cells(bulk_grid)
        cells.update(solved_cells(query_grid))

        executor = ManualExecutor()
        completed: "list[str]" = []
        with GridScheduler(executor, max_in_flight=1) as scheduler:
            bulk_job = GridJob(bulk_grid)
            bulk = scheduler.submit(
                bulk_job,
                priority=BULK,
                on_cell=lambda i, c: completed.append("bulk"),
            )
            wait_until(lambda: len(executor.submitted) == 1)
            # Bulk item 1 is on the (single) worker; the rest are queued.
            query = scheduler.submit(
                GridJob(query_grid),
                priority=INTERACTIVE,
                on_cell=lambda i, c: completed.append("query"),
            )
            # Resolve futures as they appear: the scheduler decides order.
            resolved = 0
            total_items = len(bulk_job.items) + 1
            while resolved < total_items:
                wait_until(lambda: len(executor.submitted) > resolved)
                scenarios, future = executor.submitted[resolved]
                future.set_result([cells[s] for s in scenarios])
                resolved += 1
            assert bulk.wait(10) and query.wait(10)

        # The interactive query ran right after the in-flight bulk item,
        # before every remaining bulk item.
        first_query = completed.index("query")
        assert first_query <= len(query_grid)
        assert completed.count("bulk") == len(bulk_grid)

    def test_fully_restored_job_completes_without_dispatch(self, tmp_path):
        manifest = tmp_path / "run.json"
        run_grid(small_grid(), manifest=str(manifest))
        job = GridJob.resume(manifest)
        executor = ManualExecutor()
        with GridScheduler(executor) as scheduler:
            handle = scheduler.submit(job)
            assert handle.wait(10)
            assert handle.status == "done"
        assert executor.submitted == []  # nothing ran


class TestWorkerDeath:
    def test_item_requeued_and_run_completes(self):
        grid = small_grid()
        reference = run_grid(grid)
        executor = DyingExecutor(casualties=1)
        with GridScheduler(
            executor, retry=RetryPolicy(max_attempts=3, backoff_s=0.0)
        ) as scheduler:
            handle = scheduler.submit(GridJob(grid), fail_fast=True)
            cells = handle.result(timeout=30)
            assert scheduler.items_retried >= 1
            assert scheduler.executor_resets == 1
        assert executor.resets == 1
        assert [c.throughput for c in cells] == [
            c.throughput for c in reference.cells
        ]

    def test_poison_item_fails_after_max_attempts(self):
        grid = small_grid(sizes=(8,), seeds=1)
        executor = DyingExecutor(casualties=100)  # never recovers
        with GridScheduler(
            executor, retry=RetryPolicy(max_attempts=2, backoff_s=0.0)
        ) as scheduler:
            handle = scheduler.submit(GridJob(grid), fail_fast=True)
            with pytest.raises(ExperimentError, match="worker died"):
                handle.result(timeout=30)
            failed = handle.job.failed_items()
            assert failed and failed[0].attempts == 2


class TestTimeout:
    def test_timeout_retries_then_fails(self):
        grid = small_grid(sizes=(8,), seeds=1)
        # Futures run forever and cannot be cancelled: a wedged worker.
        executor = ManualExecutor(running=True)
        retry = RetryPolicy(max_attempts=2, backoff_s=0.0, timeout_s=0.05)
        with GridScheduler(executor, retry=retry) as scheduler:
            handle = scheduler.submit(GridJob(grid))
            assert handle.wait(30)
            assert handle.status == "failed"
            failed = handle.job.failed_items()
            assert len(failed) == len(handle.job.items)
            assert "timed out" in failed[0].error
            assert failed[0].attempts == 2
            # Both attempts dispatched, both abandoned.
            assert len(executor.submitted) >= 2
            assert scheduler._in_flight == {}


class TestCancellation:
    def test_cancel_leaves_no_orphaned_futures(self):
        grid = small_grid()
        executor = ManualExecutor()
        with GridScheduler(executor, max_in_flight=2) as scheduler:
            handle = scheduler.submit(GridJob(grid))
            wait_until(lambda: len(executor.submitted) == 2)
            handle.cancel()
            assert handle.wait(10)
            assert handle.status == "cancelled"
            with pytest.raises(ExperimentError, match="cancelled"):
                handle.result()
            wait_until(lambda: not scheduler._in_flight)
            # Dispatched futures were cancelled, not leaked.
            assert all(
                future.cancelled() for _, future in executor.submitted
            )
            assert all(
                item.state == ItemState.CANCELLED
                for item in handle.job.items
            )


class TestResumeAfterCrash:
    def test_resume_resolves_zero_cached_cells(self, tmp_path):
        grid = small_grid()
        manifest = tmp_path / "run.json"
        cache_dir = tmp_path / "cache"
        first = run_grid(
            grid, cache_dir=str(cache_dir), manifest=str(manifest)
        )
        # Crash simulation: the manifest lost one item's cells (it was
        # mid-flight), but its solves are already in the result cache.
        payload = json.loads(manifest.read_text())
        victim = payload["items"][0]
        victim["state"] = ItemState.RUNNING
        for index in victim["indices"]:
            del payload["cells"][str(index)]
        manifest.write_text(json.dumps(payload))

        resumed = resume_grid(str(manifest))
        assert resumed.restored == len(grid) - len(victim["indices"])
        assert resumed.solve_counts == {
            "re_solved": 0,  # every re-executed cell was a cache hit
            "cache_hit": len(victim["indices"]),
            "skipped": len(grid) - len(victim["indices"]),
        }
        assert [c.throughput for c in resumed.cells] == [
            c.throughput for c in first.cells
        ]
