"""The ``repro-experiments serve`` daemon: a unix socket over the service core.

The socket speaks JSON lines to one :class:`~repro.service.core.EvalService`.
Each request is one JSON object on one line; ``submit`` answers with a
stream of events (``accepted``, one ``cell`` per solved cell *as it
solves*, then ``done`` with solve counts), everything else with a
single object. A line that is not a JSON object, or is longer than
:data:`REQUEST_LINE_LIMIT`, gets an ``error`` reply and the connection
stays open. One connection handles one request at a time; clients open
a connection per concurrent query.

Scheduler callbacks run on the dispatcher thread; they cross into
asyncio via ``loop.call_soon_threadsafe`` onto a per-request queue, so
the event loop never blocks on the scheduler and vice versa.

Request ops::

    {"op": "ping"}
    {"op": "stats"}
    {"op": "submit", "grid": {...ScenarioGrid.to_dict...},
     "priority": "interactive"|"bulk"|int}
    {"op": "status", "job_id": "..."}
    {"op": "cancel", "job_id": "..."}
    {"op": "shutdown"}
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from repro.pipeline.scenario import ScenarioGrid
from repro.service.core import EvalService

#: Event names a ``submit`` stream may carry, in order of appearance.
SUBMIT_EVENTS = ("accepted", "cell", "done", "error")

#: Longest request line the socket reads, in bytes. asyncio's default,
#: 64 KiB, is shorter than a ``submit`` of a large grid.
REQUEST_LINE_LIMIT = 16 * 1024 * 1024


def _encode(message: dict) -> bytes:
    return (json.dumps(message) + "\n").encode("utf-8")


async def _next_request(reader) -> "dict | str | None":
    """The next request object, the error to answer a bad line with, or
    ``None`` at end of stream. A line over the reader's limit is consumed
    through its newline, so the request after it reads cleanly."""
    over_limit = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            over_limit = True
            continue
        break
    if over_limit:
        return f"request line longer than {REQUEST_LINE_LIMIT} bytes"
    if not line:
        return None
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"bad JSON: {exc}"
    return request if isinstance(request, dict) else "request is not a JSON object"


async def _send(writer, message: dict) -> None:
    """Write one JSON-lines message and honor transport backpressure.

    Every reply on the socket surface goes through here: ``drain()``
    after each write is what bounds the daemon's buffered output by the
    kernel socket buffer — a slow or paused reader then pauses its own
    stream instead of growing the process heap (most visible on the
    memo-answer path, which emits a whole grid's cells in one burst).
    """
    writer.write(_encode(message))
    await writer.drain()


class EvalDaemon:
    """Bind an :class:`EvalService` to a unix socket."""

    def __init__(self, service: EvalService, socket_path: str) -> None:
        self.service = service
        self.socket_path = str(socket_path)
        self._server: "asyncio.AbstractServer | None" = None
        self._stop = asyncio.Event()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._server = await asyncio.start_unix_server(
            self._handle_socket, path=self.socket_path, limit=REQUEST_LINE_LIMIT
        )

    async def serve_forever(self) -> None:
        await self.start()
        try:
            await self._stop.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def request_shutdown(self) -> None:
        self._stop.set()

    # -- unix socket (JSON lines) --------------------------------------

    async def _handle_socket(self, reader, writer) -> None:
        try:
            while (request := await _next_request(reader)) is not None:
                if isinstance(request, str):
                    await _send(writer, {"event": "error", "error": request})
                else:
                    await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancels open connection handlers; that is a
            # clean exit, not an error to log.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: dict, writer) -> None:
        op = request.get("op")
        if op == "ping":
            await _send(writer, {"event": "pong", "time": time.time()})
        elif op == "stats":
            await _send(
                writer, {"event": "stats", "stats": self.service.stats()}
            )
        elif op == "status":
            await _send(writer, self._status(request.get("job_id")))
        elif op == "cancel":
            job_id = request.get("job_id")
            ok = isinstance(job_id, str) and self.service.cancel(job_id)
            await _send(
                writer,
                {"event": "cancelled" if ok else "error",
                 "job_id": job_id,
                 **({} if ok else {"error": "unknown or finished job"})},
            )
        elif op == "submit":
            await self._submit(request, writer)
        elif op == "shutdown":
            await _send(writer, {"event": "stopping"})
            self.request_shutdown()
        else:
            await _send(
                writer, {"event": "error", "error": f"unknown op {op!r}"}
            )

    def _status(self, job_id: "str | None") -> dict:
        handle = (
            self.service.get_job(job_id) if isinstance(job_id, str) else None
        )
        if handle is None:
            return {"event": "error", "error": f"unknown job {job_id!r}"}
        return {
            "event": "status",
            "job_id": job_id,
            "status": handle.status,
            "counts": handle.job.counts(),
        }

    async def _submit(self, request: dict, writer) -> None:
        start = time.perf_counter()
        try:
            grid = ScenarioGrid.from_dict(request["grid"])
            priority = request.get("priority", "bulk")
        except Exception as exc:
            await _send(
                writer, {"event": "error", "error": f"bad submit: {exc}"}
            )
            return

        loop = asyncio.get_running_loop()
        events: "asyncio.Queue" = asyncio.Queue()

        def on_cell(index: int, cell) -> None:
            loop.call_soon_threadsafe(
                events.put_nowait, ("cell", index, cell)
            )

        def on_done(handle) -> None:
            loop.call_soon_threadsafe(events.put_nowait, ("done", handle))

        try:
            job_id, handle, cached = self.service.submit(
                grid,
                priority=priority,
                on_cell=on_cell,
                on_done=on_done,
            )
        except Exception as exc:
            await _send(
                writer,
                {"event": "error", "error": f"{type(exc).__name__}: {exc}"},
            )
            return

        await _send(
            writer,
            {
                "event": "accepted",
                "job_id": job_id,
                "cells": len(grid),
                "cached": cached is not None,
            },
        )
        if cached is not None:
            # Memo answer: every cell is already in hand — no queue, no
            # workers; the elapsed time here is the microseconds-path.
            for index, cell in enumerate(cached):
                await _send(
                    writer,
                    {"event": "cell", "index": index, "row": cell.row()},
                )
            await _send(
                writer,
                {
                    "event": "done",
                    "job_id": job_id,
                    "status": "done",
                    "cached": True,
                    "solve_counts": {
                        "re_solved": 0,
                        "cache_hit": len(cached),
                        "skipped": 0,
                    },
                    "elapsed_s": time.perf_counter() - start,
                },
            )
            return

        while True:
            kind, *payload = await events.get()
            if kind == "cell":
                index, cell = payload
                await _send(
                    writer,
                    {"event": "cell", "index": index, "row": cell.row()},
                )
                continue
            (done_handle,) = payload
            message = {
                "event": "done",
                "job_id": job_id,
                "status": done_handle.status,
                "cached": False,
                "counts": done_handle.job.counts(),
                "solve_counts": done_handle.job.solve_counts(),
                "elapsed_s": time.perf_counter() - start,
            }
            if done_handle.status == "failed":
                failed = done_handle.job.failed_items()
                message["error"] = "; ".join(
                    f"item {item.item_id}: {item.error}" for item in failed
                ) or (
                    f"{type(done_handle.error).__name__}: {done_handle.error}"
                    if done_handle.error is not None
                    else "failed"
                )
            await _send(writer, message)
            return


def serve(
    socket_path: str,
    workers: int = 2,
    cache_dir: "str | None" = None,
    retry=None,
    max_in_flight: "int | None" = None,
    ready=None,
) -> int:
    """Blocking entry point behind ``repro-experiments serve``.

    Runs until a ``shutdown`` request (or KeyboardInterrupt). ``ready``
    is an optional zero-arg callable invoked once the socket is
    bound — the CLI prints the banner there, and tests use it to
    synchronize.
    """
    service = EvalService(
        workers=workers,
        cache_dir=cache_dir,
        retry=retry,
        max_in_flight=max_in_flight,
    )
    daemon = EvalDaemon(service, socket_path)

    async def _main() -> None:
        await daemon.start()
        if ready is not None:
            ready()
        try:
            await daemon._stop.wait()
        finally:
            await daemon.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0
