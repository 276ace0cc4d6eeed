"""Synchronous unix-socket client for the evaluation daemon.

One connection per request (the daemon streams a whole submit over a
single connection); everything is JSON lines, mirroring
:mod:`repro.service.daemon`. The CLI ``submit`` subcommand and the CI
end-to-end gate both drive the daemon through this class, so the client
is deliberately dependency-free: stdlib sockets only.
"""

from __future__ import annotations

import json
import socket

from repro.exceptions import ExperimentError


class ServiceClient:
    """Talk JSON lines to a running :class:`~repro.service.EvalDaemon`."""

    def __init__(self, socket_path: str, timeout: "float | None" = 300.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ExperimentError(
                f"cannot reach daemon at {self.socket_path}: {exc}"
            ) from exc
        return sock

    def _roundtrip(self, request: dict) -> dict:
        """Send one request, read one response object."""
        with self._connect() as sock:
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            line = self._readline(sock.makefile("rb"))
        return line

    @staticmethod
    def _readline(stream) -> dict:
        line = stream.readline()
        if not line:
            raise ExperimentError("daemon closed the connection mid-response")
        return json.loads(line)

    # -- simple ops ----------------------------------------------------

    def ping(self) -> dict:
        return self._roundtrip({"op": "ping"})

    def stats(self) -> dict:
        response = self._roundtrip({"op": "stats"})
        return response.get("stats", response)

    def status(self, job_id: str) -> dict:
        return self._roundtrip({"op": "status", "job_id": job_id})

    def cancel(self, job_id: str) -> dict:
        return self._roundtrip({"op": "cancel", "job_id": job_id})

    def shutdown(self) -> dict:
        return self._roundtrip({"op": "shutdown"})

    # -- submit (streaming) --------------------------------------------

    def submit(
        self,
        grid_dict: dict,
        priority: "str | int" = "bulk",
        on_event=None,
    ) -> dict:
        """Submit a grid and stream it to completion.

        ``grid_dict`` is a ``ScenarioGrid.to_dict`` payload. ``on_event``
        (optional) sees every raw event as it arrives — ``accepted``,
        each ``cell``, and the final ``done``/``error``. Returns the
        final event with the collected cell rows attached under
        ``"rows"`` (grid order).

        Raises :class:`ExperimentError` when the daemon reports failure,
        so scripted callers can rely on exceptions, not status fields.
        """
        request = {
            "op": "submit",
            "grid": grid_dict,
            "priority": priority,
        }
        rows: "dict[int, dict]" = {}
        with self._connect() as sock:
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            stream = sock.makefile("rb")
            while True:
                message = self._readline(stream)
                if on_event is not None:
                    on_event(message)
                event = message.get("event")
                if event == "cell":
                    rows[message["index"]] = message["row"]
                    continue
                if event == "accepted":
                    continue
                if event == "error" or (
                    event == "done" and message.get("status") != "done"
                ):
                    raise ExperimentError(
                        message.get("error")
                        or f"job ended with status {message.get('status')!r}"
                    )
                if event == "done":
                    message["rows"] = [
                        rows[index] for index in sorted(rows)
                    ]
                    return message
                raise ExperimentError(f"unexpected event {message!r}")
