"""Evaluation service: grid memo, daemon socket protocol, CLI client."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

import repro.pipeline.engine as engine
import repro.service.core as core
from repro.exceptions import ExperimentError
from repro.flow.solvers import SolverConfig
from repro.pipeline.engine import run_grid
from repro.pipeline.scenario import ScenarioGrid, TopologySpec, TrafficSpec
from repro.service import EvalService, ServiceClient, grid_digest, serve
from repro.service.core import GRID_MEMO_KIND
from repro.util.hashing import stable_digest


def small_grid(**overrides) -> ScenarioGrid:
    kwargs = dict(
        name="service-test",
        topologies=(
            TopologySpec.make("rrg", network_degree=4, servers_per_switch=2),
        ),
        traffics=(TrafficSpec.make("permutation"),),
        solvers=(SolverConfig("ecmp"),),
        sizes=(8, 10),
        seeds=1,
    )
    kwargs.update(overrides)
    return ScenarioGrid(**kwargs)


class TestGridMemo:
    def test_digest_is_stable_and_grid_sensitive(self):
        assert grid_digest(small_grid()) == grid_digest(small_grid())
        assert grid_digest(small_grid()) != grid_digest(
            small_grid(name="other")
        )

    def test_digest_follows_solver_revisions(self):
        """Revised backends change the digest; revision-0 grids keep theirs."""
        plain = small_grid(solvers=(SolverConfig("path_lp"),))
        assert grid_digest(plain) == stable_digest(
            {"kind": GRID_MEMO_KIND, "grid": plain.to_dict(), "batch": True}
        )
        revised = small_grid(solvers=(SolverConfig("estimate_cut"),))
        assert grid_digest(revised) == stable_digest(
            {
                "kind": GRID_MEMO_KIND,
                "grid": revised.to_dict(),
                "batch": True,
                "revisions": {"estimate_cut": 1},
            }
        )

    def test_second_submit_answers_from_memo(self, tmp_path):
        grid = small_grid()
        with EvalService(workers=1, cache_dir=str(tmp_path)) as service:
            job_id, handle, cached = service.submit(grid)
            assert cached is None
            first = handle.result(timeout=60)
            _, handle2, cached2 = service.submit(grid)
            assert handle2 is None and cached2 is not None
            assert all(cell.cache_hit for cell in cached2)
            assert [c.throughput for c in cached2] == [
                c.throughput for c in first
            ]
            assert service.stats()["memo_answers"] == 1

    def test_memo_survives_restart_without_spawning_workers(self, tmp_path):
        grid = small_grid()
        with EvalService(workers=1, cache_dir=str(tmp_path)) as warmup:
            _, handle, _ = warmup.submit(grid)
            handle.result(timeout=60)
        # Fresh service, multi-worker: the persisted memo answers before
        # the lazy process pool ever spawns.
        with EvalService(workers=4, cache_dir=str(tmp_path)) as service:
            _, handle, cached = service.submit(grid)
            assert handle is None and cached is not None
            assert service.executor.started is False
            assert service.executor.worker_pids() == ()

    def test_memo_distrusts_pruned_cache(self, tmp_path):
        grid = small_grid()
        with EvalService(workers=1, cache_dir=str(tmp_path)) as warmup:
            _, handle, _ = warmup.submit(grid)
            cells = handle.result(timeout=60)
        # Prune one underlying solve from the content-addressed store.
        with EvalService(workers=1, cache_dir=str(tmp_path)) as service:
            victim = service.cache._path(cells[0].key)
            victim.unlink()
            assert service.lookup_cached(grid) is None

    def test_code_change_retires_restart_answers(self, tmp_path, monkeypatch):
        """A restarted service answers from the instance index, which any
        change to the package source invalidates (the grid digest does
        not change: it folds in solver revisions only)."""
        grid = small_grid()
        with EvalService(workers=1, cache_dir=str(tmp_path)) as warmup:
            _, handle, _ = warmup.submit(grid)
            handle.result(timeout=60)
        digest = grid_digest(grid)
        monkeypatch.setitem(engine._BUILD_TABLE, "source", "0" * 64)
        assert grid_digest(grid) == digest
        with EvalService(workers=1, cache_dir=str(tmp_path)) as fresh:
            assert fresh.lookup_cached(grid) is None

    def test_extended_grid_misses_on_its_last_item(self, tmp_path, monkeypatch):
        """A resubmit that appends a size to a solved grid misses on the
        new item before reading any solved one."""
        with EvalService(workers=1, cache_dir=str(tmp_path)) as warmup:
            _, handle, _ = warmup.submit(small_grid())
            handle.result(timeout=60)
        probed = []
        lookup = core.indexed_cells

        def counted(scenarios, cache):
            probed.append(scenarios[0].size)
            return lookup(scenarios, cache)

        monkeypatch.setattr(core, "indexed_cells", counted)
        with EvalService(workers=1, cache_dir=str(tmp_path)) as fresh:
            assert fresh.lookup_cached(small_grid(sizes=(8, 10, 12))) is None
            assert probed == [12]
            assert fresh.lookup_cached(small_grid()) is not None
            assert probed == [12, 10, 8]

    def test_uncached_service_has_no_persistent_memo(self):
        grid = small_grid(sizes=(8,))
        with EvalService(workers=1) as service:
            _, handle, _ = service.submit(grid)
            handle.result(timeout=60)
            # In-process memo still answers...
            assert service.lookup_cached(grid) is not None
        with EvalService(workers=1) as fresh:
            assert fresh.lookup_cached(grid) is None

    def test_cancel_unknown_job(self, tmp_path):
        with EvalService(workers=1) as service:
            assert service.cancel("nope") is False


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on a unix socket, torn down via shutdown request."""
    yield from _live_daemon(tmp_path)


@pytest.fixture
def small_limit_daemon(tmp_path, monkeypatch):
    """A live daemon whose request lines may be at most 1 KiB long."""
    import repro.service.daemon as daemon_mod

    monkeypatch.setattr(daemon_mod, "REQUEST_LINE_LIMIT", 1024)
    yield from _live_daemon(tmp_path)


def _live_daemon(tmp_path):
    socket_path = str(tmp_path / "eval.sock")
    ready = threading.Event()
    thread = threading.Thread(
        target=serve,
        args=(socket_path,),
        kwargs=dict(
            workers=1,
            cache_dir=str(tmp_path / "cache"),
            ready=ready.set,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(30), "daemon did not come up"
    yield socket_path
    try:
        ServiceClient(socket_path, timeout=10).shutdown()
    except ExperimentError:
        pass
    thread.join(timeout=30)


class TestDaemon:
    def test_ping_and_stats(self, daemon):
        client = ServiceClient(daemon)
        assert client.ping()["event"] == "pong"
        stats = client.stats()
        assert stats["submitted"] == 0
        assert "scheduler" in stats

    def test_submit_streams_cells_then_done(self, daemon):
        client = ServiceClient(daemon)
        events = []
        done = client.submit(
            small_grid().to_dict(), on_event=lambda m: events.append(m)
        )
        assert done["status"] == "done"
        assert not done["cached"]
        assert len(done["rows"]) == len(small_grid())
        kinds = [m["event"] for m in events]
        assert kinds[0] == "accepted"
        assert kinds.count("cell") == len(small_grid())
        assert kinds[-1] == "done"
        # Rows carry the full CellResult record.
        reference = run_grid(small_grid())
        assert [row["throughput"] for row in done["rows"]] == [
            cell.throughput for cell in reference.cells
        ]

    def test_warm_resubmit_is_cached_with_zero_solves(self, daemon):
        client = ServiceClient(daemon)
        client.submit(small_grid().to_dict())
        start = time.perf_counter()
        done = client.submit(small_grid().to_dict())
        elapsed = time.perf_counter() - start
        assert done["cached"]
        assert done["solve_counts"]["re_solved"] == 0
        assert all(row["cache_hit"] for row in done["rows"])
        # Round trip including socket overhead stays interactive.
        assert elapsed < 1.0

    def test_interactive_priority_accepted(self, daemon):
        client = ServiceClient(daemon)
        done = client.submit(
            small_grid(sizes=(8,)).to_dict(), priority="interactive"
        )
        assert done["status"] == "done"

    def test_bad_grid_is_an_error(self, daemon):
        client = ServiceClient(daemon)
        with pytest.raises(ExperimentError, match="bad submit"):
            client.submit({"nonsense": True})

    def test_malformed_requests_get_errors_and_keep_the_connection(
        self, daemon
    ):
        """Each JSON line that is not an object, and each job id that is not
        a string, gets an error reply, and a ping sent after them on the
        same connection is still answered."""
        malformed = [
            [],
            5,
            "x",
            {"op": "status", "job_id": [1]},
            {"op": "cancel", "job_id": {"a": 1}},
        ]
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect(daemon)
            for request in [*malformed, {"op": "ping"}]:
                sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            stream = sock.makefile("rb")
            replies = [json.loads(stream.readline()) for _ in range(6)]
        events = [reply["event"] for reply in replies]
        assert events == ["error"] * len(malformed) + ["pong"]
        assert "not a JSON object" in replies[0]["error"]

    def test_submit_line_over_64_kib_succeeds(self, daemon):
        grid = small_grid(sizes=(8,), name="g" * 70_000).to_dict()
        line = json.dumps({"op": "submit", "grid": grid, "priority": "bulk"})
        assert len(line) > 64 * 1024
        done = ServiceClient(daemon).submit(grid)
        assert done["status"] == "done"
        assert len(done["rows"]) == 1

    def test_over_limit_lines_get_errors_and_keep_the_connection(
        self, small_limit_daemon
    ):
        """A line over the limit gets an error whether its newline came in
        the first read or megabytes later, and a ping sent after it on the
        same connection is still answered."""
        grid = small_grid(sizes=(8,), name="g" * 4096).to_dict()
        requests = [
            json.dumps({"op": "submit", "grid": grid}),
            json.dumps({"op": "ping", "pad": "p" * 2_000_000}),
            json.dumps({"op": "ping"}),
        ]
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect(small_limit_daemon)
            stream = sock.makefile("rb")
            replies = []
            for request in requests:
                sock.sendall((request + "\n").encode("utf-8"))
                replies.append(json.loads(stream.readline()))
        assert [reply["event"] for reply in replies] == [
            "error", "error", "pong"
        ]
        assert "longer than 1024 bytes" in replies[0]["error"]

    def test_status_of_unknown_job(self, daemon):
        client = ServiceClient(daemon)
        response = client.status("missing")
        assert response["event"] == "error"

    def test_unreachable_daemon_raises(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nowhere.sock"), timeout=2)
        with pytest.raises(ExperimentError, match="cannot reach"):
            client.ping()


class TestServeCli:
    def test_serve_and_submit_round_trip(self, tmp_path, capsys):
        from repro.experiments.runner import main

        socket_path = str(tmp_path / "cli.sock")
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(small_grid(sizes=(8,)).to_dict()))
        thread = threading.Thread(
            target=main,
            args=(
                [
                    "serve",
                    "--socket", socket_path,
                    "--workers", "1",
                    "--cache-dir", str(tmp_path / "cache"),
                ],
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 30
        client = ServiceClient(socket_path, timeout=10)
        while time.monotonic() < deadline:
            try:
                client.ping()
                break
            except ExperimentError:
                time.sleep(0.05)
        else:
            raise AssertionError("daemon did not come up")
        try:
            code = main(
                ["submit", "--socket", socket_path, "--grid", str(grid_path)]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "cells (queued)" in out
            assert "done in" in out
            code = main(
                ["submit", "--socket", socket_path, "--grid", str(grid_path),
                 "--quiet"]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "0 solves" in out
            assert "(memo answer)" in out
        finally:
            client.shutdown()
            thread.join(timeout=30)


class _DisciplinedWriter:
    """Fake transport that enforces one ``drain`` await per ``write``.

    ``pending`` would exceed 1 if the daemon ever queued a second message
    without honoring backpressure on the first — exactly the bug the
    uniform drain discipline exists to prevent.
    """

    def __init__(self) -> None:
        self.messages: list = []
        self.pending = 0
        self.max_pending = 0

    def write(self, data: bytes) -> None:
        self.pending += 1
        self.max_pending = max(self.max_pending, self.pending)
        self.messages.append(json.loads(data))

    async def drain(self) -> None:
        self.pending -= 1


class _PausedWriter(_DisciplinedWriter):
    """A reader that has stopped consuming: ``drain`` blocks on a gate."""

    def __init__(self) -> None:
        super().__init__()
        import asyncio

        self.gate = asyncio.Event()

    async def drain(self) -> None:
        await self.gate.wait()
        await super().drain()


class TestDaemonBackpressure:
    def _daemon(self, tmp_path):
        from repro.service.daemon import EvalDaemon

        service = EvalService(workers=1, cache_dir=str(tmp_path / "cache"))
        return service, EvalDaemon(service, str(tmp_path / "ignored.sock"))

    def test_every_reply_drains_before_the_next_write(self, tmp_path):
        """All socket paths — including the memo cell burst — drain per write."""
        import asyncio

        grid = small_grid()
        service, daemon = self._daemon(tmp_path)
        with service:
            _, handle, _ = service.submit(grid)
            handle.result(timeout=60)

            async def scenario() -> _DisciplinedWriter:
                writer = _DisciplinedWriter()
                for request in (
                    {"op": "ping"},
                    {"op": "stats"},
                    {"op": "status", "job_id": "nope"},
                    {"op": "wat"},
                    {"op": "submit"},  # missing grid -> error reply
                    {"op": "submit", "grid": grid.to_dict()},  # memo burst
                ):
                    await daemon._dispatch(request, writer)
                return writer

            writer = asyncio.run(scenario())
        assert writer.pending == 0
        assert writer.max_pending == 1, (
            "a reply was written without awaiting drain on the previous one"
        )
        events = [m.get("event") for m in writer.messages]
        assert events[-1] == "done"
        assert events.count("cell") == len(grid)

    def test_paused_reader_pauses_the_cell_stream(self, tmp_path):
        """With a stalled reader the daemon blocks in drain instead of
        buffering the remaining cells into process memory."""
        import asyncio

        grid = small_grid()
        service, daemon = self._daemon(tmp_path)
        with service:
            _, handle, _ = service.submit(grid)
            handle.result(timeout=60)

            async def scenario() -> tuple:
                writer = _PausedWriter()
                task = asyncio.create_task(
                    daemon._dispatch(
                        {"op": "submit", "grid": grid.to_dict()}, writer
                    )
                )
                await asyncio.sleep(0.05)
                stalled = list(writer.messages)
                writer.gate.set()
                await asyncio.wait_for(task, timeout=30)
                return stalled, writer

            stalled, writer = asyncio.run(scenario())
        # Only the first message went out before the reader stalled.
        assert len(stalled) == 1 and stalled[0]["event"] == "accepted"
        # Resuming the reader delivers the full stream, nothing dropped.
        events = [m.get("event") for m in writer.messages]
        assert events[0] == "accepted" and events[-1] == "done"
        assert events.count("cell") == len(grid)
