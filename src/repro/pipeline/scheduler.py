"""Two-level priority scheduling of grid jobs over an executor.

One :class:`GridScheduler` serves many jobs at once from a single
dispatcher thread: a priority heap of ready work items, a bounded
in-flight set (backpressure — the queue never floods the executor), and
completion plumbing that publishes each item's cells the moment they
solve. Priorities are two-level by convention — :data:`INTERACTIVE`
beats :data:`BULK` — so a single-cell query submitted while a sweep is
mid-flight jumps every queued sweep item and runs at the next free
worker slot. Scheduling is non-preemptive at item granularity: a
running shard finishes; everything *queued* yields.

Failure handling maps onto the :class:`~repro.pipeline.jobs.WorkItem`
state machine:

- **worker death** (``BrokenProcessPool``) — the executor is reset once
  per casualty generation and every in-flight victim is retried with
  backoff; the run continues on the fresh pool.
- **timeout** — an attempt exceeding ``RetryPolicy.timeout_s`` is
  abandoned (and the pool recycled, for process backends, to reclaim the
  wedged worker), then retried until attempts run out.
- **solver exceptions** — deterministic: the item fails immediately, and
  a ``fail_fast`` handle cancels the rest of its job, which is how the
  synchronous wrapper keeps the old raise-on-first-error contract.

When a profiler is active at submit time (``sweep --profile``), the
scheduler records ``queue_wait`` / ``solve`` / ``publish`` spans per
item, so queue pressure is visible next to solve time in the artifact.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import time
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, field

from repro.exceptions import ExperimentError
from repro.perf import active_profiler
from repro.pipeline.executors import GridExecutor
from repro.pipeline.jobs import GridJob, ItemState, RetryPolicy, WorkItem

#: Interactive queries: always dispatched before any bulk work.
INTERACTIVE = 0
#: Bulk sweeps: fill whatever capacity interactive traffic leaves.
BULK = 10

_PRIORITIES = {"interactive": INTERACTIVE, "bulk": BULK}


def parse_priority(value: "int | str") -> int:
    """Accept the two named levels or any explicit integer."""
    if isinstance(value, str):
        try:
            return _PRIORITIES[value]
        except KeyError:
            raise ExperimentError(
                f"unknown priority {value!r}; use 'interactive', 'bulk', "
                "or an integer"
            ) from None
    return int(value)


class JobHandle:
    """A submitted job's future: wait, inspect, cancel.

    Completion callbacks (``on_cell``, ``on_done``) run on the
    dispatcher thread — keep them cheap and never raise (raises are
    swallowed so one bad subscriber cannot wedge the scheduler).
    """

    def __init__(
        self,
        scheduler: "GridScheduler",
        job: GridJob,
        priority: int,
        on_cell=None,
        on_done=None,
        fail_fast: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.job = job
        self.priority = priority
        self.on_cell = on_cell
        self.on_done = on_done
        self.fail_fast = fail_fast
        self.submitted_at = time.monotonic()
        #: Captured from the submitting thread so dispatcher-side spans
        #: land on the same profile as the caller's (``--profile``).
        self.profiler = active_profiler()
        self.error: "BaseException | None" = None
        self._remaining = 0
        self._reaped_ids: "set[int]" = set()
        self._done = threading.Event()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def status(self) -> str:
        # Judge from the job, not the done event: on_done callbacks run
        # (with every item already terminal) just before the event is
        # set, and they deserve the final status too.
        if not (self._done.is_set() or self.job.is_complete):
            return "running"
        if self.job.failed_items() or self.error is not None:
            return "failed"
        if self.job.cancelled:
            return "cancelled"
        return "done"

    def wait(self, timeout: "float | None" = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: "float | None" = None) -> list:
        """Block until the job finishes; return cells in grid order.

        Re-raises the original solver exception when one failed the job
        (the synchronous ``run_grid`` contract), and raises
        :class:`ExperimentError` for cancellations and non-exception
        failures.
        """
        if not self.wait(timeout):
            raise ExperimentError(
                f"job {self.job.run_id!r} still running after {timeout}s"
            )
        failed = self.job.failed_items()
        if failed or self.error is not None:
            exc = self.error or failed[0].exception
            if exc is not None:
                raise exc
            details = "; ".join(
                f"item {item.item_id}: {item.error}" for item in failed
            )
            raise ExperimentError(
                f"job {self.job.run_id!r} failed: {details}"
            )
        if self.job.cancelled:
            raise ExperimentError(f"job {self.job.run_id!r} was cancelled")
        return self.job.result_cells()

    def cancel(self) -> None:
        self.scheduler._request_cancel(self)


@dataclass
class _InFlight:
    """Dispatcher-side record of one submitted future."""

    handle: JobHandle
    item: WorkItem
    enqueued_at: float
    dispatched_at: float
    deadline: "float | None"
    generation: int


@dataclass(order=True)
class _Ready:
    """Heap entry: priority, then submission order."""

    priority: int
    seq: int
    handle: JobHandle = field(compare=False)
    item: WorkItem = field(compare=False)


class GridScheduler:
    """Priority dispatch of job work items onto a :class:`GridExecutor`.

    ``max_in_flight`` is the backpressure bound: at most that many items
    are submitted to the executor at once (default ``2 * workers``, so
    pools stay fed without the queue dumping a whole sweep into them).
    The dispatcher thread starts lazily on the first submit and runs
    until :meth:`close`.
    """

    #: Idle wake-up period: bounds how late a backoff/timeout fires.
    _TICK_S = 0.05

    def __init__(
        self,
        executor: GridExecutor,
        max_in_flight: "int | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ExperimentError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.executor = executor
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_in_flight = (
            max_in_flight
            if max_in_flight is not None
            else max(2, 2 * getattr(executor, "workers", 1))
        )
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._seq = itertools.count()
        self._ready: "list[_Ready]" = []
        self._delayed: "list[_Ready]" = []
        self._in_flight: "dict[Future, _InFlight]" = {}
        self._handles: "set[JobHandle]" = set()
        self._thread: "threading.Thread | None" = None
        self._thread_lock = threading.Lock()
        self._closed = False
        self.items_completed = 0
        self.items_retried = 0
        self.executor_resets = 0

    # -- public API (any thread) ---------------------------------------

    def submit(
        self,
        job: GridJob,
        priority: "int | str" = BULK,
        on_cell=None,
        on_done=None,
        fail_fast: bool = False,
    ) -> JobHandle:
        """Enqueue every pending item of ``job``; returns its handle."""
        if self._closed:
            raise ExperimentError("scheduler is closed")
        handle = JobHandle(
            self,
            job,
            parse_priority(priority),
            on_cell=on_cell,
            on_done=on_done,
            fail_fast=fail_fast,
        )
        self._ensure_thread()
        self._events.put(("job", handle))
        return handle

    def stats(self) -> dict:
        """Racy-but-consistent-enough counters for service dashboards."""
        return {
            "queued": len(self._ready) + len(self._delayed),
            "in_flight": len(self._in_flight),
            "active_jobs": len(self._handles),
            "items_completed": self.items_completed,
            "items_retried": self.items_retried,
            "executor_resets": self.executor_resets,
            "max_in_flight": self.max_in_flight,
        }

    def close(self) -> None:
        """Stop the dispatcher; in-flight futures are abandoned."""
        self._closed = True
        if self._thread is not None:
            self._events.put(("stop",))
            self._thread.join(timeout=10)

    def __enter__(self) -> "GridScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request_cancel(self, handle: JobHandle) -> None:
        self._ensure_thread()
        self._events.put(("cancel", handle))

    # -- dispatcher thread ---------------------------------------------

    def _ensure_thread(self) -> None:
        with self._thread_lock:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name="grid-scheduler", daemon=True
                )
                self._thread.start()

    def _run(self) -> None:
        while True:
            self._promote_delayed()
            self._dispatch()
            self._check_timeouts()
            try:
                event = self._events.get(timeout=self._wait_timeout())
            except queue.Empty:
                continue
            kind = event[0]
            if kind == "stop":
                break
            if kind == "job":
                self._admit(event[1])
            elif kind == "future":
                self._handle_future(event[1])
            elif kind == "cancel":
                self._cancel_handle(event[1])

    def _wait_timeout(self) -> float:
        """Sleep until the next deadline/backoff, capped by the tick."""
        now = time.monotonic()
        horizon = now + self._TICK_S
        for entry in self._in_flight.values():
            if entry.deadline is not None:
                horizon = min(horizon, entry.deadline)
        for ready in self._delayed:
            horizon = min(horizon, ready.item.not_before)
        return max(horizon - now, 0.001)

    def _admit(self, handle: JobHandle) -> None:
        self._handles.add(handle)
        pending = handle.job.pending_items()
        handle._remaining = len(pending)
        if not pending:
            # Fully restored (or empty) job: nothing to run.
            self._finalize(handle)
            return
        for item in pending:
            self._push_ready(handle, item)

    def _push_ready(self, handle: JobHandle, item: WorkItem) -> None:
        entry = _Ready(handle.priority, next(self._seq), handle, item)
        if item.not_before > time.monotonic():
            self._delayed.append(entry)
        else:
            heapq.heappush(self._ready, entry)

    def _promote_delayed(self) -> None:
        if not self._delayed:
            return
        now = time.monotonic()
        still_waiting = []
        for entry in self._delayed:
            if entry.item.not_before <= now:
                heapq.heappush(self._ready, entry)
            else:
                still_waiting.append(entry)
        self._delayed = still_waiting

    def _dispatch(self) -> None:
        while self._ready and len(self._in_flight) < self.max_in_flight:
            entry = heapq.heappop(self._ready)
            handle, item = entry.handle, entry.item
            if item.state != ItemState.PENDING:
                # Cancelled (or otherwise resolved) while queued.
                self._reap(handle, item)
                continue
            if item.not_before > time.monotonic():
                self._delayed.append(entry)
                continue
            now = time.monotonic()
            if handle.profiler is not None:
                handle.profiler.record(
                    "queue_wait",
                    now - max(entry.item.not_before, handle.submitted_at),
                    item=item.item_id,
                    priority=handle.priority,
                )
            handle.job.mark_running(item)
            generation = self.executor.generation
            future = self.executor.submit(item.scenarios, handle.job.cache_dir)
            deadline = (
                now + self.retry.timeout_s
                if self.retry.timeout_s is not None
                else None
            )
            self._in_flight[future] = _InFlight(
                handle=handle,
                item=item,
                enqueued_at=handle.submitted_at,
                dispatched_at=now,
                deadline=deadline,
                generation=generation,
            )
            future.add_done_callback(
                lambda f: self._events.put(("future", f))
            )

    def _handle_future(self, future: Future) -> None:
        entry = self._in_flight.pop(future, None)
        if entry is None:
            return  # abandoned by a timeout; result deliberately dropped
        handle, item = entry.handle, entry.item
        if future.cancelled():
            if item.state == ItemState.CANCELLED:
                self._reap(handle, item)
            else:
                # A pool reset cancelled it before any worker started:
                # refund the attempt and put it straight back.
                handle.job.reschedule_item(item)
                self._push_ready(handle, item)
            return
        exc = future.exception()
        if exc is None:
            self._publish(entry, future.result())
            return
        if item.state == ItemState.CANCELLED:
            self._reap(handle, item)
            return
        if isinstance(exc, BrokenExecutor):
            self._recover_executor(entry.generation)
            self._retry_or_fail(entry, f"worker died mid-item: {exc!r}")
            return
        # Deterministic solver failure.
        handle.job.fail_item(
            item, f"{type(exc).__name__}: {exc}", exception=exc
        )
        self._item_failed(handle, item, exc)

    def _publish(self, entry: _InFlight, results: list) -> None:
        handle, item = entry.handle, entry.item
        if item.state == ItemState.CANCELLED:
            self._reap(handle, item)
            return
        publish_start = time.monotonic()
        if handle.profiler is not None:
            handle.profiler.record(
                "solve",
                publish_start - entry.dispatched_at,
                item=item.item_id,
                cells=len(item.indices),
                attempts=item.attempts,
            )
        published = handle.job.complete_item(item, results)
        if handle.on_cell is not None:
            for index, cell in published:
                try:
                    handle.on_cell(index, cell)
                except Exception:
                    pass  # a bad subscriber must not wedge dispatch
        if handle.profiler is not None:
            handle.profiler.record(
                "publish",
                time.monotonic() - publish_start,
                item=item.item_id,
                cells=len(published),
            )
        self.items_completed += 1
        self._reap(handle, item)

    def _retry_or_fail(self, entry: _InFlight, error: str) -> None:
        handle, item = entry.handle, entry.item
        if handle.job.retry_item(item, error, self.retry):
            self.items_retried += 1
            self._push_ready(handle, item)
        else:
            self._item_failed(handle, item, None)

    def _item_failed(
        self, handle: JobHandle, item: WorkItem,
        exc: "BaseException | None",
    ) -> None:
        if handle.fail_fast and not handle.job.cancelled:
            if handle.error is None and exc is not None:
                handle.error = exc
            self._cancel_handle(handle)
        self._reap(handle, item)

    def _check_timeouts(self) -> None:
        if self.retry.timeout_s is None:
            return
        now = time.monotonic()
        expired = [
            (future, entry)
            for future, entry in self._in_flight.items()
            if entry.deadline is not None and now >= entry.deadline
        ]
        needs_reset = False
        for future, entry in expired:
            del self._in_flight[future]
            if future.cancel():
                # Never started: refund the attempt, requeue instantly.
                entry.handle.job.reschedule_item(entry.item)
                self._push_ready(entry.handle, entry.item)
                continue
            if future.done():
                # Raced completion: handle it normally instead.
                self._in_flight[future] = entry
                continue
            # Running somewhere we cannot interrupt: abandon the future
            # (its eventual result is dropped) and retry the item.
            needs_reset = self.executor.reset_on_timeout
            self._retry_or_fail(
                entry,
                f"attempt timed out after {self.retry.timeout_s}s",
            )
        if needs_reset:
            self._recover_executor(self.executor.generation)

    def _recover_executor(self, casualty_generation: int) -> None:
        """Reset the executor once per casualty generation.

        Several in-flight futures die together when one worker is
        killed; only the first observed casualty rebuilds the pool.
        """
        if self.executor.generation == casualty_generation:
            self.executor.reset()
            self.executor_resets += 1

    def _cancel_handle(self, handle: JobHandle) -> None:
        if handle not in self._handles or handle.done:
            return
        handle.job.cancel()
        in_flight_items = set()
        for future, entry in list(self._in_flight.items()):
            if entry.handle is not handle:
                continue
            if future.cancel():
                del self._in_flight[future]
                self._reap(handle, entry.item)
            else:
                in_flight_items.add(entry.item.item_id)
        # Everything else cancelled above is no longer runnable; reap the
        # queued ones now (heap entries are skipped lazily at dispatch).
        for item in handle.job.items:
            if (
                item.state == ItemState.CANCELLED
                and item.item_id not in in_flight_items
            ):
                self._reap(handle, item)

    def _reap(self, handle: JobHandle, item: WorkItem) -> None:
        """Count ``item`` as settled for its job, exactly once."""
        if item.item_id in handle._reaped_ids:
            return
        handle._reaped_ids.add(item.item_id)
        handle._remaining -= 1
        if handle._remaining <= 0 and not handle.done:
            self._finalize(handle)

    def _finalize(self, handle: JobHandle) -> None:
        self._handles.discard(handle)
        # on_done runs before the event is set, so a service can finish
        # its bookkeeping (e.g. memoizing the results) before any
        # result() waiter resumes and possibly resubmits the same grid.
        if handle.on_done is not None:
            try:
                handle.on_done(handle)
            except Exception:
                pass
        handle._done.set()


def run_job(
    job: GridJob,
    executor: "GridExecutor | None" = None,
    workers: int = 1,
    priority: "int | str" = BULK,
    retry: "RetryPolicy | None" = None,
    max_in_flight: "int | None" = None,
    on_cell=None,
) -> list:
    """Run one job to completion on a private scheduler; return its cells.

    The synchronous convenience path: builds the default executor for
    ``workers`` (unless one is passed), schedules with ``fail_fast`` so
    the first deterministic solver error re-raises like a direct solve,
    and tears everything down afterwards.
    """
    from repro.pipeline.executors import executor_for_workers

    owns_executor = executor is None
    if executor is None:
        executor = executor_for_workers(workers)
    scheduler = GridScheduler(
        executor, retry=retry, max_in_flight=max_in_flight
    )
    try:
        handle = scheduler.submit(
            job, priority=priority, on_cell=on_cell, fail_fast=True
        )
        return handle.result()
    finally:
        scheduler.close()
        if owns_executor:
            executor.shutdown(wait=False)
