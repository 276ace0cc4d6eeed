"""Deterministic failure sampling and degraded topology views.

Two properties matter more than the sampling distributions themselves:

**Determinism.** Sampling is a pure function of (topology, spec, seed).
Links and switches are put into a canonical order (sorted by ``repr``)
before any random draw, so the failed set never depends on graph
insertion order, and the same seed replays the same failure anywhere —
in-process, across workers, across sessions.

**Nesting by rate.** For a fixed seed and model, the failed set at rate
``a`` is a subset of the failed set at any rate ``b >= a``: each model
draws a rate-independent random order over its population and fails the
first ``round(rate * population)`` entries. Degrading harder therefore
always yields a subgraph of the milder degradation, which makes
throughput-vs-failure-rate curves monotone non-increasing *per sample*
(as long as no demand is dropped), not merely in expectation.

Degraded topologies are **views**, not copies: :func:`degraded_view`
keeps a reference to the intact topology and filters its switch and
link store on first read (and again after the intact topology changes),
so degrading an expensive topology — an annealed ``optimized`` fabric, a
huge RRG — never copies it. Views are read-only; call ``.copy()`` for a
mutable degraded topology.
"""

from __future__ import annotations

from repro.exceptions import ExperimentError, TopologyError
from repro.resilience.spec import FailureSpec
from repro.topology.base import Topology
from repro.util.hashing import stable_seed
from repro.util.rng import as_rng


def failure_seed(cell_seed: int, spec: FailureSpec) -> int:
    """Deterministic sampling seed for one (cell, failure model) pair.

    Mixes the cell seed with the spec's *model and params but not its
    rate*: different models fail different equipment, while a rate sweep
    over one model reuses a single random order and stays nested (see
    module docstring).
    """
    return stable_seed(
        {
            "cell": int(cell_seed),
            "model": spec.model,
            "params": spec.params_dict(),
        }
    )


def _canonical_links(topo: Topology) -> list[tuple]:
    """Undirected links in canonical (repr-sorted) order."""
    return sorted(
        ((link.u, link.v) for link in topo.links),
        key=lambda pair: (repr(pair[0]), repr(pair[1])),
    )


def _canonical_switches(topo: Topology) -> list:
    return sorted(topo.switches, key=repr)


def _count(rate: float, population: int) -> int:
    return min(population, int(round(rate * population)))


def _sample_random_links(topo: Topology, spec: FailureSpec, rng) -> tuple:
    links = _canonical_links(topo)
    order = rng.permutation(len(links))
    budget = _count(spec.rate, len(links))
    return tuple(links[i] for i in order[:budget])


def _sample_random_switches(topo: Topology, spec: FailureSpec, rng) -> tuple:
    switches = _canonical_switches(topo)
    order = rng.permutation(len(switches))
    budget = _count(spec.rate, len(switches))
    return tuple(switches[i] for i in order[:budget])


def _sample_correlated(topo: Topology, spec: FailureSpec, rng) -> tuple:
    """Cluster-local link failures: a BFS ball around a random epicenter.

    Links are failed in breadth-first discovery order from the epicenter,
    so the failed set is spatially contiguous — modeling a rack/pod power
    or maintenance event rather than scattered optics faults. The
    ``cluster`` param (when given) restricts the epicenter to switches of
    that cluster label.
    """
    params = spec.params_dict()
    cluster = params.get("cluster")
    candidates = _canonical_switches(topo)
    if cluster is not None:
        candidates = [v for v in candidates if topo.cluster_of(v) == cluster]
        if not candidates:
            raise ExperimentError(
                f"correlated failure: no switches in cluster {cluster!r}"
            )
    if not candidates:
        return ()
    epicenter = candidates[int(rng.integers(len(candidates)))]
    budget = _count(spec.rate, topo.num_links)

    failed: list[tuple] = []
    seen_links: set[frozenset] = set()
    visited = {epicenter}
    frontier = [epicenter]
    while frontier and len(failed) < budget:
        next_frontier: list = []
        for node in frontier:
            for neighbor in sorted(topo.neighbors(node), key=repr):
                key = frozenset((node, neighbor))
                if key not in seen_links:
                    seen_links.add(key)
                    failed.append((node, neighbor))
                    if len(failed) >= budget:
                        return tuple(failed)
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return tuple(failed)


_SAMPLERS = {
    "random_links": _sample_random_links,
    "random_switches": _sample_random_switches,
    "correlated": _sample_correlated,
}


class DegradedTopology(Topology):
    """A read-only view of a topology with some links/switches failed.

    The view reads its base live: it filters the base's switch and link
    store on first read and again whenever the base's structure changes,
    in the base's order minus the failed equipment. It shares the base's
    per-switch attribute dicts, so the base's server counts and labels
    show through at once. Every mutation method raises
    :class:`~repro.exceptions.TopologyError`; use ``.copy()`` to obtain
    an independent, mutable degraded topology.

    Attributes
    ----------
    base:
        The intact topology this view degrades.
    failed_links:
        Undirected ``(u, v)`` link endpoints removed from the view.
    failed_switches:
        Switches removed from the view (their incident links and attached
        servers disappear with them).
    spec:
        The :class:`~repro.resilience.spec.FailureSpec` that produced the
        view, when it came from :func:`apply_failures` (``None`` for
        hand-built views).
    """

    def __init__(
        self,
        base: Topology,
        failed_links: tuple = (),
        failed_switches: tuple = (),
        spec: "FailureSpec | None" = None,
        name: "str | None" = None,
    ) -> None:
        for u, v in failed_links:
            if not base.has_link(u, v):
                raise TopologyError(
                    f"cannot fail missing link ({u!r}, {v!r})"
                )
        for node in failed_switches:
            if not base.has_switch(node):
                raise TopologyError(f"cannot fail missing switch {node!r}")
        self.base = base
        self.failed_links = tuple((u, v) for u, v in failed_links)
        self.failed_switches = tuple(failed_switches)
        self.spec = spec
        if name is None:
            suffix = spec.label() if spec is not None else "degraded"
            name = f"{base.name}!{suffix}"
        self.name = str(name)
        self._view: "tuple | None" = None

    @property
    def _version(self) -> int:
        # The view reads its base live: the base's mutations are its own.
        return self.base._version

    def _store(self) -> tuple:
        """``(nodes, adj)``: the base's store minus the failed equipment."""
        version = self.base._version
        if self._view is None or self._view[0] != version:
            failed = set(self.failed_switches)
            hidden = {*self.failed_links, *((v, u) for u, v in self.failed_links)}
            nodes = {
                node: attrs
                for node, attrs in self.base._nodes.items()
                if node not in failed
            }
            adj = {
                u: {
                    v: capacity
                    for v, capacity in nbrs.items()
                    if v not in failed and (u, v) not in hidden
                }
                for u, nbrs in self.base._adj.items()
                if u not in failed
            }
            self._view = (version, nodes, adj)
        return self._view[1:]

    @property
    def _nodes(self) -> dict:
        return self._store()[0]

    @property
    def _adj(self) -> dict:
        return self._store()[1]

    def _read_only(self, *args, **kwargs):
        raise TopologyError(
            f"{self.name!r} is a read-only view; call .copy() for a "
            "mutable topology"
        )

    add_switch = add_link = remove_link = set_servers = set_cluster = _read_only

    @property
    def num_failed_links(self) -> int:
        """Directly failed links (links lost to switch failures excluded)."""
        return len(self.failed_links)

    @property
    def num_failed_switches(self) -> int:
        return len(self.failed_switches)

    def __repr__(self) -> str:
        return (
            f"DegradedTopology(name={self.name!r}, "
            f"switches={self.num_switches}, links={self.num_links}, "
            f"failed_links={self.num_failed_links}, "
            f"failed_switches={self.num_failed_switches})"
        )


def degraded_view(
    topo: Topology,
    failed_links: "tuple | list" = (),
    failed_switches: "tuple | list" = (),
    name: "str | None" = None,
) -> DegradedTopology:
    """Wrap ``topo`` in a view with the given equipment removed."""
    return DegradedTopology(
        topo,
        failed_links=tuple(failed_links),
        failed_switches=tuple(failed_switches),
        name=name,
    )


def apply_failures(topo: Topology, spec: FailureSpec, seed=None) -> Topology:
    """Sample ``spec`` against ``topo`` and return the degraded view.

    Null specs (``none`` model or rate 0) return ``topo`` itself
    unchanged, so failure-free columns of a sweep are byte-identical to
    sweeps that never mention failures. ``seed`` accepts the usual forms
    (int, ``SeedSequence``, ``Generator``, ``None`` for fresh entropy).
    """
    if not isinstance(spec, FailureSpec):
        raise ExperimentError(
            f"spec must be a FailureSpec, got {type(spec).__name__}"
        )
    if spec.is_null():
        return topo
    rng = as_rng(seed)
    sampler = _SAMPLERS[spec.model]
    sampled = sampler(topo, spec, rng)
    if spec.model == "random_switches":
        return DegradedTopology(topo, failed_switches=sampled, spec=spec)
    return DegradedTopology(topo, failed_links=sampled, spec=spec)
