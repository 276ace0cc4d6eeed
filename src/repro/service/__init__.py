"""Evaluation-as-a-service: a long-running daemon over the grid scheduler.

The pipeline's job model (:mod:`repro.pipeline.jobs`,
:mod:`repro.pipeline.scheduler`) executes grids; this package puts a
service front-end on it:

- :class:`EvalService` — the embeddable core: one scheduler + executor,
  an in-process grid-digest memo (behind it, the result cache's
  instance index) answering fully-cached grids without touching a
  worker, and job bookkeeping by id.
- :class:`EvalDaemon` — the ``repro-experiments serve`` asyncio server:
  JSON-lines requests over a local unix socket (streaming one event per
  solved cell).
- :class:`ServiceClient` — the synchronous client the CLI and tests use.

Interactive queries submit with ``priority="interactive"`` and jump
every queued bulk item; see docs/service.md for the scheduling and
resume semantics.
"""

from repro.service.core import EvalService, GRID_MEMO_KIND, grid_digest
from repro.service.daemon import EvalDaemon, serve
from repro.service.client import ServiceClient

__all__ = [
    "EvalService",
    "GRID_MEMO_KIND",
    "grid_digest",
    "EvalDaemon",
    "serve",
    "ServiceClient",
]
