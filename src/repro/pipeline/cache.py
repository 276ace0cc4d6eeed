"""Content-addressed on-disk cache for throughput results and payloads.

Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the SHA-256
content address of (topology fingerprint, traffic fingerprint, solver
config) from :mod:`repro.pipeline.fingerprint`. Each result entry stores
the full :class:`~repro.flow.result.ThroughputResult` (via its
``to_dict`` round trip) plus provenance metadata.

Beyond throughput results, the cache stores JSON *payloads* under
kind-tagged entries (:meth:`ResultCache.put_payload`): the instance
index of :func:`repro.pipeline.engine.indexed_cells`, and the route sets
that let every annealing/growth/grid worker reuse another's routes.
Payload keys live in their own content-address space (the key
derivation hashes the kind), so they never collide with result keys.

Every kind goes through one reader and one writer. The reader checks
the envelope, decodes the body with the caller's decoder and memoizes
the parsed body; any bad entry (unreadable bytes, another schema or
kind, a body the decoder rejects) is a counted miss and is deleted on
the spot, so the caller recomputes and rewrites it.

Writes go through a temp file + :func:`os.replace` so concurrent sweep
workers never observe half-written entries; since keys are content
addresses, two workers racing on the same key write identical bytes and
either winner is correct.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Callable

from repro.exceptions import ReproError
from repro.flow.result import ThroughputResult

#: Bump when the entry payload schema changes; mismatched entries are
#: treated as misses and rewritten.
CACHE_SCHEMA_VERSION = 1

#: Per-instance in-process memo size. Annealing and growth inner loops
#: revisit a handful of hot keys thousands of times; keeping the parsed
#: entry bodies in memory turns those re-hits from JSON file reads into
#: dict lookups (mirroring the route-set memo of
#: :mod:`repro.fidelity.routes`).
MEMO_MAX_DEFAULT = 256

#: A bad entry to the reader: unreadable bytes (``OSError``; JSON and
#: UTF-8 errors are ``ValueError``s) or a body the decoder rejects.
_BAD_ENTRY = (OSError, AttributeError, KeyError, TypeError, ValueError, ReproError)


class ResultCache:
    """Filesystem-backed, content-addressed store of results and payloads.

    An in-process LRU memo of parsed entry bodies
    (:data:`MEMO_MAX_DEFAULT` keys) fronts the disk store: repeated hits
    on hot keys — the annealing/growth inner-loop pattern — skip the file
    read *and* the JSON parse. Every read still decodes the body afresh,
    so a caller can mutate a decoded result without corrupting the memo.
    :meth:`stats` reports hits split into memo/disk.
    """

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.memo_hits = 0
        self.disk_hits = 0
        #: key -> (kind or None, parsed entry body). Keys are content
        #: addresses, so a memoized parse can never go stale short of a
        #: delete; this store's own deletes drop the memo entry too, and
        #: an *external* delete only costs a spurious hit in the process
        #: that cached it, same as an in-flight read.
        self._memo: "OrderedDict[str, tuple]" = OrderedDict()
        #: Guards every memo access: the service shares one cache
        #: instance across scheduler and asyncio threads, and an
        #: OrderedDict mid-``move_to_end`` is not safe to read.
        self._memo_lock = threading.Lock()

    def stats(self) -> dict:
        """Counters in :func:`repro.fidelity.routes.route_stats` style.

        ``hits`` is total (memo + disk); ``memo_hits`` never touched the
        filesystem.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "memo_entries": len(self._memo),
        }

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> "ThroughputResult | None":
        """Return the cached result for ``key``, or ``None`` on a miss."""
        return self._read(key, None, ThroughputResult.from_dict)

    def put(self, key: str, result: ThroughputResult, meta: "dict | None" = None) -> None:
        """Store ``result`` under ``key`` atomically."""
        self._write(key, None, result.to_dict(), meta)

    def get_payload(self, key: str, kind: str, decode: Callable = dict):
        """Return the payload stored under ``key`` as ``decode`` builds
        it (a copy of the JSON dict by default), or ``None`` on a miss.

        ``kind`` must match what :meth:`put_payload` recorded; a
        mismatch, like a payload ``decode`` rejects, is a bad entry.
        """
        return self._read(key, kind, decode)

    def put_payload(self, key: str, kind: str, payload: dict) -> None:
        """Store a JSON-safe ``payload`` under ``key``, tagged with ``kind``."""
        self._write(key, kind, payload)

    def _read(self, key: str, kind: "str | None", decode: Callable):
        """The one reader: ``decode`` of the body of ``key``'s entry of
        ``kind`` (``None``: a result entry), or ``None`` on a miss.

        A missing file is a plain miss. Any other failure, from the memo
        or from disk, is a miss that deletes the entry: a recompute's
        write is then the only way back in, and a worker crash before
        that write leaves no stale file to be re-parsed on every read.
        """
        with self._memo_lock:
            memoized = self._memo.get(key)
            if memoized is not None and memoized[0] == kind:
                self._memo.move_to_end(key)
                body = memoized[1]
            else:
                body = None
        from_memo = body is not None
        try:
            if body is None:
                body = self._load(key, kind)
            value = decode(body)
        except FileNotFoundError:
            self.misses += 1
            return None
        except _BAD_ENTRY:
            self.misses += 1
            self._drop(key)
            return None
        self.hits += 1
        if from_memo:
            self.memo_hits += 1
        else:
            self.disk_hits += 1
            self._memoize(key, kind, body)
        return value

    def _load(self, key: str, kind: "str | None") -> dict:
        """The body of ``key``'s entry file, checked against its envelope:
        the schema version, then a ``result`` body (``kind`` None) or a
        matching ``kind`` with a ``payload`` body, which must be a dict."""
        with open(self._path(key), "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        if not isinstance(entry, dict) or (
            entry.get("schema_version") != CACHE_SCHEMA_VERSION
        ):
            raise ValueError("cache schema mismatch")
        if kind is None:
            body = entry.get("result")
        elif entry.get("kind") == kind:
            body = entry.get("payload")
        else:
            raise ValueError(f"cache entry is not of kind {kind!r}")
        if not isinstance(body, dict):
            raise ValueError("cache entry has no body")
        return body

    def _write(self, key: str, kind: "str | None", body: dict, meta=None) -> None:
        """The one writer: atomically store ``body`` in its envelope —
        ``result`` and ``meta`` for a result (``kind`` None), else
        ``kind`` and ``payload`` — and memoize it."""
        entry = {"schema_version": CACHE_SCHEMA_VERSION, "key": key}
        if kind is None:
            entry.update(result=body, meta=meta or {})
        else:
            entry.update(kind=kind, payload=body)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._memoize(key, kind, body)

    def _memoize(self, key: str, kind: "str | None", body: dict) -> None:
        with self._memo_lock:
            self._memo[key] = (kind, body)
            self._memo.move_to_end(key)
            while len(self._memo) > MEMO_MAX_DEFAULT:
                self._memo.popitem(last=False)

    def _drop(self, key: str) -> None:
        """Best-effort removal of a bad entry, memo and file (races with
        writers are benign: content-addressed keys make any concurrent
        rewrite equivalent)."""
        with self._memo_lock:
            self._memo.pop(key, None)
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


#: Environment variable that switches on caching for code paths that do
#: not thread an explicit cache (e.g. the figure experiments).
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

_DEFAULT_CACHES: dict = {}


def default_cache() -> "ResultCache | None":
    """The process-wide cache configured via ``REPRO_CACHE_DIR``, if any.

    One instance is kept per configured root, so hit/miss counters
    accumulate across calls instead of resetting on every solve.
    """
    root = os.environ.get(CACHE_ENV_VAR)
    if not root:
        return None
    cache = _DEFAULT_CACHES.get(root)
    if cache is None:
        cache = _DEFAULT_CACHES[root] = ResultCache(root)
    return cache


#: The cache the surrounding pipeline call established, if any. Solvers
#: that want to share intermediate artifacts (route sets) read it via
#: :func:`active_cache` — they cannot take a ``cache`` keyword themselves
#: because solver options enter the result fingerprint.
_ACTIVE_CACHE: "ContextVar[ResultCache | None]" = ContextVar(
    "repro_active_cache", default=None
)


@contextmanager
def cache_context(cache: "ResultCache | None"):
    """Make ``cache`` the active cache for the duration of a solve.

    The pipeline engine wraps every solver invocation in this context, so
    a backend running under ``run_grid --cache-dir`` stores its route sets
    in the same content-addressed store as the results, without the cache
    ever appearing among the solver's (fingerprinted) options.
    """
    token = _ACTIVE_CACHE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE_CACHE.reset(token)


def active_cache() -> "ResultCache | None":
    """The cache of the enclosing :func:`cache_context`, else the default.

    Falls back to the ``REPRO_CACHE_DIR`` process-wide cache so direct
    solver calls (no pipeline in the stack) still share route sets across
    invocations when the environment opts in.
    """
    cache = _ACTIVE_CACHE.get()
    if cache is not None:
        return cache
    return default_cache()
