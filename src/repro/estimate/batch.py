"""Batched estimator evaluation over a shared Fiedler eigenpair.

The estimator ladder (``bound`` / ``cut`` / ``spectral``) repeats one
expensive per-instance computation when backends run one at a time:
the **Fiedler eigenpair**. ``cut`` needs the vector for its sweep
prefixes, ``spectral`` needs the eigenvalue, and both come out of the
*same* Lanczos solve (~15 s at N = 100,000). The CSR adjacency every
rung reads needs no memo here: :meth:`Topology.adjacency` keeps it on
the topology until the topology is mutated.

:class:`SharedArtifacts` memoizes the eigenpair, keyed by topology
object identity, and :func:`shared_artifacts` scopes the memo with a
context manager (the :func:`repro.pipeline.cache.cache_context` idiom —
the metric helpers consult :func:`active_artifacts` so backend
signatures never change). Identity keying is deliberate: the memo is
only valid while the topology is not mutated, and the context bounds
exactly that window — the sweep engine opens one context per grid-cell
batch, inside which every solver column sees the same frozen instance.

Numerics are untouched: a memo hit returns the same arrays the direct
computation would produce, so batched results are identical to per-cell
results, not merely close.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from repro.exceptions import FlowError
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix


class SharedArtifacts:
    """Per-instance artifact memo shared across estimator backends.

    Entries hold a strong reference to their topology, so an ``id()``
    can never be recycled onto a different live object while memoized.
    """

    def __init__(self) -> None:
        self._fiedler: dict = {}
        self.stats = {"fiedler_solves": 0, "fiedler_hits": 0}

    def fiedler_pair(self, topo: Topology, weighted: bool = True):
        """Memoized ``(lambda_2, fiedler vector, node order)`` for ``topo``."""
        from repro.metrics.spectral import _sparse_fiedler_pair

        key = (id(topo), bool(weighted))
        entry = self._fiedler.get(key)
        if entry is not None and entry[0] is topo:
            self.stats["fiedler_hits"] += 1
            return entry[1]
        pair = _sparse_fiedler_pair(topo, weighted=weighted)
        self.stats["fiedler_solves"] += 1
        self._fiedler[key] = (topo, pair)
        return pair


_ACTIVE_ARTIFACTS: "ContextVar[SharedArtifacts | None]" = ContextVar(
    "repro_active_artifacts", default=None
)


@contextmanager
def shared_artifacts(store: "SharedArtifacts | None" = None):
    """Scope a :class:`SharedArtifacts` memo over the enclosed solves.

    Yields the active store (a fresh one when ``store`` is ``None``).
    Within the context the topology objects being solved must not be
    mutated — the sweep engine guarantees this per batch; direct callers
    own the same obligation.
    """
    active = store if store is not None else SharedArtifacts()
    token = _ACTIVE_ARTIFACTS.set(active)
    try:
        yield active
    finally:
        _ACTIVE_ARTIFACTS.reset(token)


def active_artifacts() -> "SharedArtifacts | None":
    """The store of the enclosing :func:`shared_artifacts`, if any."""
    return _ACTIVE_ARTIFACTS.get()


#: Estimator ladder rungs in cost order (cheapest eigensolve last so a
#: ladder run exercises the memo: ``cut`` computes the Fiedler pair,
#: ``spectral`` reuses it).
LADDER_SOLVERS = ("bound", "cut", "spectral")


def run_ladder(
    topo: Topology,
    traffic: TrafficMatrix,
    solvers=LADDER_SOLVERS,
    options: "dict | None" = None,
    store: "SharedArtifacts | None" = None,
) -> dict:
    """Run several estimator backends over one shared-artifact scope.

    ``solvers`` names rungs of the ladder (``bound`` / ``cut`` /
    ``spectral``); ``options`` maps a rung name to keyword arguments for
    its backend. Returns ``{name: ThroughputResult}`` — each result
    identical to calling the backend alone, with the Fiedler eigensolve
    paid once instead of per rung. Passing ``store`` carries the memo
    across several calls on the same frozen topology (e.g. per-rung
    timing loops).
    """
    from repro.estimate.bound import estimate_bound
    from repro.estimate.cut import estimate_cut
    from repro.estimate.spectral import estimate_spectral

    backends = {
        "bound": estimate_bound,
        "cut": estimate_cut,
        "spectral": estimate_spectral,
    }
    options = options or {}
    unknown = [name for name in solvers if name not in backends]
    if unknown:
        raise FlowError(
            f"unknown ladder solver(s) {unknown!r}; known: {sorted(backends)}"
        )
    results: dict = {}
    with shared_artifacts(store):
        for name in solvers:
            results[name] = backends[name](topo, traffic, **options.get(name, {}))
    return results
