"""The embeddable service core: scheduler ownership plus a grid memo.

:class:`EvalService` is everything the daemon does minus the sockets, so
tests (and embedders) drive the full submit/stream/cancel surface
in-process. It owns one executor and one
:class:`~repro.pipeline.scheduler.GridScheduler` shared by every
submitted grid — that sharing is the point: an interactive query lands
in the same queue as a running bulk sweep and outranks it.

The **grid memo** answers repeat grids without scheduling anything. Two
layers, keyed by a stable digest of ``grid.to_dict()``:

- an in-process LRU of solved cell lists — a warm resubmit returns in
  microseconds, no queue, no workers (process pools spawn lazily, so a
  memo-served daemon never forks at all);
- a ``ResultCache`` payload entry recording the cells *and their result
  keys* — on a daemon restart the memo re-validates each key against
  the content-addressed store (cheap file checks) before trusting it,
  so a pruned cache can never resurrect stale answers.

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
from repro.pipeline.executors import executor_for_workers
from repro.pipeline.jobs import GridJob, _cell_from_payload, _cell_payload
from repro.pipeline.scenario import ScenarioGrid
from repro.pipeline.scheduler import BULK, GridScheduler, JobHandle, parse_priority
from repro.util.hashing import stable_digest

#: Kind tag of persisted grid-memo entries in the result cache.
GRID_MEMO_KIND = "grid_memo"

#: Default size of the in-process grid memo (distinct grids, not cells).
GRID_MEMO_SIZE = 64


def grid_digest(grid: ScenarioGrid) -> str:
    """Stable content address of one grid execution request.

    Nonzero solver revisions join the digest, as they join
    :func:`~repro.pipeline.fingerprint.solver_fingerprint`: a persisted
    memo still lists the result keys its first run wrote, and those stay
    on disk after a backend's revision bump, so the memo itself must miss.
    """
    # "batch" stays so memos persisted by older daemons keep their addresses.
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

        Checks the in-process memo, then the persisted cache entry
        (validating every recorded result key still exists on disk).
        Returned cells are copies with ``cache_hit=True``.
        """
        digest = grid_digest(grid)
        with self._lock:
            cells = self._memo.get(digest)
            if cells is not None:
                self._memo.move_to_end(digest)
        if cells is None:
            cells = self._lookup_persisted(grid, digest)
            if cells is None:
                return None
        self.memo_answers += 1
        return [replace(cell, cache_hit=True) for cell in cells]

    def _lookup_persisted(self, grid: ScenarioGrid, digest: str):
        if self.cache is None:
            return None
        payload = self.cache.get_payload(digest, GRID_MEMO_KIND)
        if payload is None:
            return None
        keys = payload.get("keys")
        rows = payload.get("cells")
        scenarios = grid.cells()
        if (
            not isinstance(keys, list)
            or not isinstance(rows, list)
            or len(rows) != len(scenarios)
        ):
            return None
        # Trust the memo only while every underlying solve is still in
        # the content-addressed store — a pruned cache means re-solving.
        if any(key not in self.cache for key in keys):
            return None
        try:
            cells = [
                _cell_from_payload(scenario, row)
                for scenario, row in zip(scenarios, rows)
            ]
        except TypeError:
            return None
        with self._lock:
            self._memo[digest] = cells
            self._memo.move_to_end(digest)
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)
        return cells

    def store_cached(self, grid: ScenarioGrid, cells: list) -> None:
        """Record a completed grid's cells in both memo layers."""
        digest = grid_digest(grid)
        with self._lock:
            self._memo[digest] = list(cells)
            self._memo.move_to_end(digest)
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)
        if self.cache is not None:
            self.cache.put_payload(
                digest,
                GRID_MEMO_KIND,
                {
                    "keys": [cell.key for cell in cells],
                    "cells": [_cell_payload(cell) for cell in cells],
                },
            )

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
                    self.store_cached(grid, handle.job.result_cells())
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
