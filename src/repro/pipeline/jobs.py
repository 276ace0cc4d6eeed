"""Job model for grid execution: work items, state machine, run manifests.

A :class:`GridJob` decomposes a :class:`~repro.pipeline.scenario.ScenarioGrid`
into cell-level **work items** — the shard unit is the shared-instance
batch of :func:`repro.pipeline.engine.group_cells` (cells that build one
sampled topology/workload travel together, so construction sharing
survives the queue) — and tracks each item through an explicit state
machine::

    pending -> running -> done
                   \\-> pending   (retry with backoff: timeout, worker death)
                   \\-> failed    (attempts exhausted, or deterministic error)
    pending/running -> cancelled

The job owns no threads and no workers: :mod:`repro.pipeline.scheduler`
dispatches its items onto an executor and calls back into the transition
methods, all of which are safe under concurrent readers (one internal
lock). That split is what lets the same job model back the synchronous
:func:`~repro.pipeline.engine.run_grid` wrapper, the resumable ``sweep
--manifest`` CLI path, and the long-running :mod:`repro.service` daemon.

**Manifests** make any run resumable. When a job has a ``manifest_path``,
every item completion atomically rewrites a JSON run manifest recording
the grid, per-item states, and the solved cell payloads. A crashed or
interrupted run restores via :meth:`GridJob.resume`: recorded cells are
*skipped* outright, and the remaining items re-execute — where the
content-addressed :class:`~repro.pipeline.cache.ResultCache` already
holds their solves, a resumed run re-solves nothing.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field, fields

from repro.exceptions import ExperimentError
from repro.pipeline.scenario import Scenario, ScenarioGrid

#: Bump when the manifest layout changes; :meth:`GridJob.resume` refuses
#: mismatched files instead of guessing.
MANIFEST_SCHEMA_VERSION = 1


class ItemState:
    """Work-item lifecycle states (plain strings: JSON-stable, cheap)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (PENDING, RUNNING, DONE, FAILED, CANCELLED)
    #: States an item can never leave.
    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-item retry, backoff, and timeout knobs for one job run.

    ``timeout_s`` bounds a single attempt's wall clock (``None`` — the
    default — never times out; the synchronous serial path executes
    inline and cannot be preempted regardless). Transient failures —
    a timed-out attempt, a worker process dying mid-cell — are always
    retried while attempts remain. Exceptions raised *by the solve
    itself* are deterministic (the same cell fails the same way) and
    fail the item immediately.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    timeout_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExperimentError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff_s * self.backoff_factor ** max(attempt - 1, 0)


@dataclass
class WorkItem:
    """One schedulable shard: a shared-instance batch of grid cells.

    ``indices`` are positions in the grid's cell enumeration, so results
    land back in grid order no matter the completion order. ``exception``
    keeps the original in-process exception object (never serialized) so
    the synchronous wrapper can re-raise exactly what the solve raised.
    """

    item_id: int
    scenarios: "tuple[Scenario, ...]"
    indices: "tuple[int, ...]"
    state: str = ItemState.PENDING
    attempts: int = 0
    error: "str | None" = None
    exception: "BaseException | None" = field(
        default=None, repr=False, compare=False
    )
    #: Monotonic clock before which a retried item must not re-dispatch.
    not_before: float = field(default=0.0, repr=False, compare=False)

    def to_manifest(self) -> dict:
        return {
            "item_id": self.item_id,
            "indices": list(self.indices),
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
        }


def _cell_payload(cell) -> dict:
    """JSON-safe manifest record for one solved cell: every
    :class:`~repro.pipeline.engine.CellResult` field but the scenario,
    which resume rebuilds from the grid by index."""
    return {
        f.name: getattr(cell, f.name)
        for f in fields(cell)
        if f.name != "scenario"
    }


def _cell_from_payload(scenario: Scenario, payload: dict):
    from repro.pipeline.engine import CellResult

    return CellResult(scenario=scenario, **payload)


class GridJob:
    """A grid run as data: items, per-cell results, and manifest I/O.

    All state transitions go through methods that hold the job's lock, so
    the scheduler thread and service readers never observe half-applied
    updates. The job is complete when every item is terminal.
    """

    def __init__(
        self,
        grid: ScenarioGrid,
        cache_dir: "str | None" = None,
        manifest_path: "str | os.PathLike | None" = None,
        run_id: "str | None" = None,
    ) -> None:
        self.grid = grid
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.manifest_path = (
            str(manifest_path) if manifest_path is not None else None
        )
        self.run_id = run_id or f"{grid.name}-{uuid.uuid4().hex[:12]}"
        self.created_at = time.time()
        self.cancelled = False
        self._lock = threading.Lock()
        cells = grid.cells()
        self.results: "list | None" = [None] * len(cells)
        shards = self._shards(cells)
        self.items: "list[WorkItem]" = [
            WorkItem(
                item_id=item_id,
                scenarios=tuple(s for _, s in group),
                indices=tuple(i for i, _ in group),
            )
            for item_id, group in enumerate(shards)
        ]
        #: Grid indices restored from a manifest (skipped on resume).
        self.restored_indices: "frozenset[int]" = frozenset()

    def _shards(self, cells: list) -> "list[tuple]":
        """Decompose cells into work-item groups of ``(index, cell)``.

        Subclasses override to change the shard unit (the replay job
        windows consecutive timeline steps); the default is the
        shared-instance batching of :func:`~repro.pipeline.engine.
        group_cells`.
        """
        from repro.pipeline.engine import group_cells

        return [tuple(group) for group in group_cells(cells)]

    @classmethod
    def _grid_from_manifest(cls, payload: dict):
        """Rebuild the grid object recorded in a manifest (overridable)."""
        return ScenarioGrid.from_dict(payload["grid"])

    # -- introspection -------------------------------------------------

    @property
    def total_cells(self) -> int:
        return len(self.results)

    def counts(self) -> dict:
        """Item-state histogram plus cell-level progress numbers."""
        with self._lock:
            by_state = {state: 0 for state in ItemState.ALL}
            for item in self.items:
                by_state[item.state] += 1
            done_cells = sum(
                1 for result in self.results if result is not None
            )
        return {
            "items": len(self.items),
            "cells": self.total_cells,
            "done_cells": done_cells,
            "restored_cells": len(self.restored_indices),
            **by_state,
        }

    @property
    def is_complete(self) -> bool:
        with self._lock:
            return all(
                item.state in ItemState.TERMINAL for item in self.items
            )

    def failed_items(self) -> "list[WorkItem]":
        with self._lock:
            return [
                item for item in self.items
                if item.state == ItemState.FAILED
            ]

    def pending_items(self) -> "list[WorkItem]":
        with self._lock:
            return [
                item for item in self.items
                if item.state == ItemState.PENDING
            ]

    def result_cells(self) -> list:
        """All cell results in grid order; raises if any are missing."""
        with self._lock:
            missing = [
                i for i, result in enumerate(self.results) if result is None
            ]
            if missing:
                raise ExperimentError(
                    f"job {self.run_id!r} incomplete: "
                    f"{len(missing)} of {len(self.results)} cells unsolved"
                )
            return list(self.results)

    def solve_counts(self) -> dict:
        """``re_solved / cache_hit / skipped`` split over solved cells.

        ``skipped`` cells came straight from a resume manifest; the rest
        executed this run and either hit the content-addressed cache or
        were solved fresh.
        """
        with self._lock:
            executed = [
                (index, result)
                for index, result in enumerate(self.results)
                if result is not None
                and index not in self.restored_indices
            ]
        return {
            "re_solved": sum(
                1 for _, result in executed if not result.cache_hit
            ),
            "cache_hit": sum(
                1 for _, result in executed if result.cache_hit
            ),
            "skipped": len(self.restored_indices),
        }

    # -- state transitions (scheduler-driven) --------------------------

    def mark_running(self, item: WorkItem) -> None:
        with self._lock:
            if item.state != ItemState.PENDING:
                raise ExperimentError(
                    f"item {item.item_id} dispatched from state {item.state!r}"
                )
            item.state = ItemState.RUNNING
            item.attempts += 1

    def complete_item(
        self, item: WorkItem, results: list
    ) -> "list[tuple[int, object]]":
        """Record one item's solved cells; returns ``(index, cell)`` pairs."""
        if len(results) != len(item.indices):
            raise ExperimentError(
                f"item {item.item_id} returned {len(results)} cells "
                f"for {len(item.indices)} indices"
            )
        with self._lock:
            item.state = ItemState.DONE
            item.error = None
            published = list(zip(item.indices, results))
            for index, cell in published:
                self.results[index] = cell
        self.write_manifest()
        return published

    def retry_item(
        self, item: WorkItem, error: str, retry: RetryPolicy
    ) -> bool:
        """Requeue a failed attempt; ``False`` once attempts are exhausted
        (the item is then in the failed state)."""
        with self._lock:
            if item.state == ItemState.CANCELLED:
                return False
            if item.attempts >= retry.max_attempts:
                item.state = ItemState.FAILED
                item.error = error
                requeued = False
            else:
                item.state = ItemState.PENDING
                item.error = error
                item.not_before = (
                    time.monotonic() + retry.delay(item.attempts)
                )
                requeued = True
        self.write_manifest()
        return requeued

    def reschedule_item(self, item: WorkItem) -> None:
        """Return a dispatched-but-never-run item to the queue.

        Used when infrastructure (a pool reset) cancelled the attempt
        before a worker picked it up — the attempt is refunded, unlike
        :meth:`retry_item`, because nothing actually failed.
        """
        with self._lock:
            if item.state == ItemState.RUNNING:
                item.state = ItemState.PENDING
                item.attempts = max(0, item.attempts - 1)

    def fail_item(
        self, item: WorkItem, error: str,
        exception: "BaseException | None" = None,
    ) -> None:
        with self._lock:
            item.state = ItemState.FAILED
            item.error = error
            item.exception = exception
        self.write_manifest()

    def cancel(self) -> "list[WorkItem]":
        """Cancel every non-terminal item; returns those still running
        (their in-flight futures are the scheduler's to reap)."""
        running = []
        with self._lock:
            self.cancelled = True
            for item in self.items:
                if item.state == ItemState.RUNNING:
                    running.append(item)
                if item.state not in ItemState.TERMINAL:
                    item.state = ItemState.CANCELLED
        self.write_manifest()
        return running

    # -- manifest ------------------------------------------------------

    def to_manifest(self) -> dict:
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "run_id": self.run_id,
            "grid": self.grid.to_dict(),
            "cache_dir": self.cache_dir,
            "created_at": self.created_at,
            "updated_at": time.time(),
            "cancelled": self.cancelled,
            "items": [item.to_manifest() for item in self.items],
            "cells": {
                str(index): _cell_payload(result)
                for index, result in enumerate(self.results)
                if result is not None
            },
        }

    def write_manifest(self) -> None:
        """Atomically (re)write the run manifest, if one is configured.

        Called after every item transition, so a crash at any point
        leaves a manifest describing exactly the completed prefix —
        that file is the resume token.
        """
        if self.manifest_path is None:
            return
        with self._lock:
            payload = self.to_manifest()
        path = os.path.abspath(self.manifest_path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".manifest.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def resume(
        cls,
        manifest_path: "str | os.PathLike",
        cache_dir: "str | None | bool" = True,
    ) -> "GridJob":
        """Re-attach to an interrupted run recorded at ``manifest_path``.

        Items the manifest marks ``done`` are restored wholesale (their
        cells never re-execute — they count as *skipped*); every other
        item re-enters the queue at ``pending`` with its attempt counter
        reset. ``cache_dir=True`` (default) keeps the manifest's cache
        directory, which is what makes resumption cheap: re-executed
        items whose solves already landed in the content-addressed cache
        come back as pure cache hits.
        """
        with open(manifest_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        version = payload.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise ExperimentError(
                f"manifest {manifest_path}: schema_version {version!r} "
                f"(expected {MANIFEST_SCHEMA_VERSION})"
            )
        grid = cls._grid_from_manifest(payload)
        job = cls(
            grid,
            cache_dir=(
                payload.get("cache_dir") if cache_dir is True else cache_dir
            ),
            manifest_path=manifest_path,
            run_id=payload.get("run_id"),
        )
        by_id = {
            int(entry["item_id"]): entry
            for entry in payload.get("items", ())
        }
        if sorted(by_id) != [item.item_id for item in job.items]:
            raise ExperimentError(
                f"manifest {manifest_path}: item set does not match the "
                "grid's decomposition (was it written for a different "
                "grid, or with one cell per item?)"
            )
        cells = payload.get("cells", {})
        grid_cells = grid.cells()
        restored: "set[int]" = set()
        for item in job.items:
            entry = by_id[item.item_id]
            if tuple(entry["indices"]) != item.indices:
                raise ExperimentError(
                    f"manifest {manifest_path}: item {item.item_id} indices "
                    "diverge from the grid's decomposition"
                )
            if entry["state"] == ItemState.DONE and all(
                str(index) in cells for index in item.indices
            ):
                item.state = ItemState.DONE
                for index in item.indices:
                    job.results[index] = _cell_from_payload(
                        grid_cells[index], cells[str(index)]
                    )
                    restored.add(index)
            # Anything else — running at crash time, failed, cancelled,
            # or done with missing cell payloads — re-enters pending.
        job.restored_indices = frozenset(restored)
        return job
