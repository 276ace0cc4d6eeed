"""The embeddable service core: scheduler ownership plus a grid memo.

:class:`EvalService` is everything the daemon does minus the sockets, so
tests (and embedders) drive the full submit/stream/cancel surface
in-process. It owns one executor and one
:class:`~repro.pipeline.scheduler.GridScheduler` shared by every
submitted grid — that sharing is the point: an interactive query lands
in the same queue as a running bulk sweep and outranks it.

Repeat grids are answered without scheduling anything, from:

- an in-process LRU of solved cell lists, keyed by :func:`grid_digest`
  — a warm resubmit returns in microseconds, no queue, no workers
  (process pools spawn lazily, so a memo-served daemon never forks);
- failing that, with a cache dir, the result cache's instance index
  (:func:`~repro.pipeline.engine.indexed_cells`, the same lookup every
  grid run makes first) — so a restarted daemon answers a solved grid
  without rebuilding a topology; the index is keyed by a digest of the
  package source, so it never serves an instance the current code
  would no longer build.

Memo-served cells are marked ``cache_hit=True`` whatever their first
run recorded: to the caller they are cache answers.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace

from repro.exceptions import ExperimentError
from repro.flow.solvers import get_solver
from repro.pipeline.cache import ResultCache
from repro.pipeline.engine import group_cells, indexed_cells
from repro.pipeline.executors import executor_for_workers
from repro.pipeline.jobs import GridJob
from repro.pipeline.scenario import ScenarioGrid
from repro.pipeline.scheduler import BULK, GridScheduler, JobHandle, parse_priority
from repro.util.hashing import stable_digest

#: Kind tag folded into :func:`grid_digest` (memo job ids hash it).
GRID_MEMO_KIND = "grid_memo"

#: Default size of the in-process grid memo (distinct grids, not cells).
GRID_MEMO_SIZE = 64


def grid_digest(grid: ScenarioGrid) -> str:
    """Stable content address of one grid execution request.

    It keys the in-process memo and names memo answers' job ids
    (``memo-<digest>``). Nonzero solver revisions join it, as they join
    :func:`~repro.pipeline.fingerprint.solver_fingerprint`.
    """
    # "batch" stays so memo job ids keep their addresses.
    payload = {"kind": GRID_MEMO_KIND, "grid": grid.to_dict(), "batch": True}
    revisions = {}
    for config in grid.solvers:
        revision = get_solver(config.name).revision
        if revision:
            revisions[config.name] = revision
    if revisions:
        payload["revisions"] = revisions
    return stable_digest(payload)


class EvalService:
    """One scheduler, one executor, many grids — the daemon's engine.

    ``workers`` picks the executor exactly like
    :func:`~repro.pipeline.engine.run_grid` (serial in-process for 1, a
    lazy process pool beyond); pass ``executor`` to override. All public
    methods are safe to call from any thread — the daemon calls them
    from asyncio handlers while the scheduler's dispatcher thread runs
    callbacks.
    """

    def __init__(
        self,
        workers: int = 2,
        cache_dir: "str | None" = None,
        executor=None,
        retry=None,
        max_in_flight: "int | None" = None,
        memo_size: int = GRID_MEMO_SIZE,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.cache = ResultCache(self.cache_dir) if self.cache_dir else None
        self._owns_executor = executor is None
        self.executor = (
            executor if executor is not None else executor_for_workers(workers)
        )
        self.scheduler = GridScheduler(
            self.executor, retry=retry, max_in_flight=max_in_flight
        )
        self.started_at = time.time()
        self.memo_size = memo_size
        self._memo: "OrderedDict[str, list]" = OrderedDict()
        self._lock = threading.Lock()
        self._jobs: "dict[str, JobHandle]" = {}
        self.memo_answers = 0
        self.submitted = 0

    # -- grid memo -----------------------------------------------------

    def lookup_cached(self, grid: ScenarioGrid):
        """Solved cells for this exact grid, or ``None``.

        Checks the in-process memo, then the cache's instance index
        (every work item must read whole from it). Returned cells are
        copies with ``cache_hit=True``.
        """
        digest = grid_digest(grid)
        with self._lock:
            cells = self._memo.get(digest)
            if cells is not None:
                self._memo.move_to_end(digest)
        if cells is None:
            cells = self._lookup_index(grid)
            if cells is None:
                return None
            self._remember(digest, cells)
        self.memo_answers += 1
        return [replace(cell, cache_hit=True) for cell in cells]

    def _lookup_index(self, grid: ScenarioGrid):
        if self.cache is None:
            return None
        cells = [None] * len(grid)
        groups = group_cells(grid.cells())
        # The last item first: a grid extending a solved one (a size or
        # seed appended) then misses after one item, not after reading
        # every solved one.
        for group in groups[-1:] + groups[:-1]:
            found = indexed_cells([s for _, s in group], self.cache)
            if found is None:
                return None
            for (index, _), cell in zip(group, found):
                cells[index] = cell
        return cells

    def _remember(self, digest: str, cells: list) -> None:
        """Record a grid's cells in the in-process memo."""
        with self._lock:
            self._memo[digest] = list(cells)
            self._memo.move_to_end(digest)
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)

    # -- job submission ------------------------------------------------

    def submit(
        self,
        grid: ScenarioGrid,
        priority: "int | str" = BULK,
        on_cell=None,
        on_done=None,
    ) -> "tuple[str, JobHandle | None, list | None]":
        """Run ``grid``, or answer it from the memo.

        Returns ``(job_id, handle, cached_cells)`` — exactly one of
        ``handle`` / ``cached_cells`` is set. When a handle is returned,
        ``on_cell(index, cell)`` streams results from the dispatcher
        thread and ``on_done(handle)`` fires at settlement; a memo
        answer invokes neither (the caller already holds every cell).
        """
        priority = parse_priority(priority)
        cached = self.lookup_cached(grid)
        if cached is not None:
            job_id = f"memo-{grid_digest(grid)[:12]}"
            return job_id, None, cached
        job = GridJob(grid, cache_dir=self.cache_dir)
        self.submitted += 1

        def _memoize(handle: JobHandle) -> None:
            # Runs on the dispatcher thread *before* the handle's done
            # event is set, so judge success from the job itself.
            if not handle.job.cancelled and not handle.job.failed_items():
                try:
                    self._remember(
                        grid_digest(grid), handle.job.result_cells()
                    )
                except ExperimentError:
                    pass  # incomplete (shouldn't happen at settlement)
            if on_done is not None:
                on_done(handle)

        handle = self.scheduler.submit(
            job, priority=priority, on_cell=on_cell, on_done=_memoize
        )
        with self._lock:
            self._jobs[job.run_id] = handle
        return job.run_id, handle, None

    def get_job(self, job_id: str) -> "JobHandle | None":
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        handle = self.get_job(job_id)
        if handle is None or handle.done:
            return False
        handle.cancel()
        return True

    def stats(self) -> dict:
        with self._lock:
            jobs = {
                job_id: handle.status
                for job_id, handle in self._jobs.items()
            }
            memo_entries = len(self._memo)
        return {
            "uptime_s": time.time() - self.started_at,
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "worker_pids": list(self.executor.worker_pids()),
            "submitted": self.submitted,
            "memo_answers": self.memo_answers,
            "memo_entries": memo_entries,
            "jobs": jobs,
            "scheduler": self.scheduler.stats(),
        }

    def close(self) -> None:
        self.scheduler.close()
        if self._owns_executor:
            self.executor.shutdown(wait=False)

    def __enter__(self) -> "EvalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
