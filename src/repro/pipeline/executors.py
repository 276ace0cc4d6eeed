"""Worker backends behind one executor protocol.

The scheduler (:mod:`repro.pipeline.scheduler`) talks to every backend
through :class:`GridExecutor`: submit one work item's scenarios, get a
:class:`concurrent.futures.Future` of its cell results. Every backend
solves an item with :func:`~repro.pipeline.engine.evaluate_batch`.
Fan-outs that are not grid items (annealing restarts, growth chains)
call :meth:`GridExecutor.map` on the backend
:func:`executor_for_workers` picks, so this module is the one place a
process pool is built. Two implementations ship today —

- :class:`SerialExecutor` — runs items inline on the dispatcher thread.
  Zero overhead, one in-process :class:`ResultCache` per cache root
  (memo shared across the whole run); ``run_grid(workers=1)`` uses it.
- :class:`ProcessExecutor` — the sharded process pool behind
  ``run_grid(workers>1)`` and the service daemon. Worker death
  (OOM kill, segfault, operator ``SIGKILL``) surfaces as
  :class:`~concurrent.futures.process.BrokenProcessPool` on in-flight
  futures; :meth:`ProcessExecutor.reset` swaps in a fresh pool and bumps
  a generation counter so the scheduler can distinguish casualties of an
  old pool from failures in the new one. The protocol deliberately hides
  *where* workers live — a multi-host executor only has to return
  futures.

Executors never retry, reorder, or prioritize — policy lives in the
scheduler; executors only run things.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Iterator, Protocol, runtime_checkable

from repro.pipeline.cache import ResultCache


def _evaluate_item_task(scenarios: tuple, cache_dir: "str | None") -> list:
    """Module-level worker entry (picklable): solve one item's scenarios.

    The item's cells share their built instance and artifact memo (see
    :func:`~repro.pipeline.engine.evaluate_batch`).
    """
    from repro.pipeline.engine import evaluate_batch

    cache = ResultCache(cache_dir) if cache_dir else None
    return evaluate_batch(list(scenarios), cache=cache)


@runtime_checkable
class GridExecutor(Protocol):
    """What the scheduler needs from a worker backend."""

    #: Parallel width (sizes the scheduler's default in-flight bound).
    workers: int
    #: Whether an abandoned (timed-out) item leaks a worker slot unless
    #: the pool is torn down and rebuilt.
    reset_on_timeout: bool

    def submit(self, scenarios, cache_dir: "str | None") -> Future:
        """Start one work item; the future resolves to its cell results."""
        ...

    def map(self, fn, tasks) -> Iterator:
        """Yield ``fn(task)`` for every task, in task order.

        ``fn`` and the tasks must pickle for process backends. An
        exception raised by task ``k`` re-raises when result ``k`` is
        read.
        """
        ...

    def reset(self) -> None:
        """Recover from a dead backend (rebuild pools, drop casualties)."""
        ...

    @property
    def generation(self) -> int:
        """Incremented on every :meth:`reset` (0 for the first backend)."""
        ...

    def worker_pids(self) -> "tuple[int, ...]":
        """PIDs of live worker processes (empty for in-process backends)."""
        ...

    def shutdown(self, wait: bool = True) -> None: ...


class SerialExecutor:
    """Inline execution on the calling (dispatcher) thread.

    The returned future is already resolved when :meth:`submit` returns,
    so timeouts cannot preempt an attempt — the scheduler documents the
    same. This is the reference backend: no pickling, no processes,
    deterministic ordering. One :class:`ResultCache` per cache root
    lives as long as the executor, so its memo accumulates across items
    and warm in-process re-hits are free; only the dispatcher thread
    calls :meth:`submit`, so the caches need no lock.
    """

    workers = 1
    reset_on_timeout = False

    def __init__(self) -> None:
        self._caches: "dict[str, ResultCache]" = {}

    def submit(self, scenarios, cache_dir) -> Future:
        from repro.pipeline.engine import evaluate_batch

        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            cache = None
            if cache_dir:
                cache = self._caches.get(cache_dir)
                if cache is None:
                    cache = self._caches[cache_dir] = ResultCache(cache_dir)
            future.set_result(evaluate_batch(list(scenarios), cache=cache))
        except BaseException as exc:  # the future carries the outcome
            future.set_exception(exc)
        return future

    def map(self, fn, tasks) -> Iterator:
        """Run each task when its result is read, so a caller that reports
        per-task progress reports it live."""
        return (fn(task) for task in tasks)

    def reset(self) -> None:
        pass

    @property
    def generation(self) -> int:
        return 0

    def worker_pids(self) -> "tuple[int, ...]":
        return ()

    def shutdown(self, wait: bool = True) -> None:
        pass


class ProcessExecutor:
    """Sharded process-pool backend with worker-death recovery.

    The pool spawns **lazily** on the first submit, so an executor a
    service constructs up front costs nothing until real (uncached) work
    arrives. After a :meth:`reset`, futures from the previous pool either
    resolve normally (their worker survived), raise
    ``BrokenProcessPool`` (their worker died), or come back cancelled
    (they never started); the scheduler maps each case onto the item
    state machine.
    """

    reset_on_timeout = True

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._pool: "ProcessPoolExecutor | None" = None
        self._generation = 0
        self._lock = threading.Lock()

    @property
    def started(self) -> bool:
        """Whether any worker pool was ever spawned."""
        return self._pool is not None

    @property
    def generation(self) -> int:
        return self._generation

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def submit(self, scenarios, cache_dir) -> Future:
        return self._ensure_pool().submit(
            _evaluate_item_task, tuple(scenarios), cache_dir
        )

    def map(self, fn, tasks) -> Iterator:
        return self._ensure_pool().map(fn, tasks)

    def reset(self) -> None:
        """Abandon the current pool (workers died or a timed-out task is
        wedged in one) and let the next submit spawn a fresh one."""
        with self._lock:
            old, self._pool = self._pool, None
            self._generation += 1
        if old is not None:
            # Non-blocking: surviving workers finish their current task
            # and exit; queued-but-unstarted futures come back cancelled.
            old.shutdown(wait=False, cancel_futures=True)

    def worker_pids(self) -> "tuple[int, ...]":
        with self._lock:
            if self._pool is None:
                return ()
            return tuple(self._pool._processes or ())

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=not wait)


def executor_for_workers(workers: int) -> "SerialExecutor | ProcessExecutor":
    """The backend for a worker count: in-process at 1, a pool above.

    :func:`run_grid`, :func:`~repro.search.parallel.parallel_anneal` and
    :func:`~repro.growth.trajectory.run_growth_sweep` all pick theirs
    here.
    """
    return SerialExecutor() if workers <= 1 else ProcessExecutor(workers)
