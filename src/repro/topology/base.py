"""The switch-level network model used throughout the library.

A :class:`Topology` is an undirected, capacitated multigraph collapsed to a
simple graph: parallel links between the same switch pair are represented as
one link whose capacity is the sum of the parallel capacities. Under the
fluid-flow model the two representations admit identical flows, and the
collapsed form keeps LP sizes small.

Servers never appear as graph nodes. Each switch records the number of
attached servers; traffic matrices expand that count into server-level
endpoints. This matches the paper's model, where server links are implicit
unit-capacity edges and throughput is measured per server flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

import numpy as np
from scipy.sparse import csgraph, csr_array

from repro.exceptions import TopologyError
from repro.util.validation import check_non_negative_int, check_positive

NodeId = Hashable


@dataclass(frozen=True)
class Link:
    """An undirected capacitated link between two switches.

    ``capacity`` is per direction: a link of capacity ``c`` can carry ``c``
    units of flow u->v and simultaneously ``c`` units v->u, matching the
    full-duplex links the paper assumes.
    """

    u: NodeId
    v: NodeId
    capacity: float

    def endpoints(self) -> tuple[NodeId, NodeId]:
        """Return the two endpoints as a tuple."""
        return (self.u, self.v)

    def reversed(self) -> "Link":
        """Return the same link with endpoints swapped."""
        return Link(self.v, self.u, self.capacity)


class Topology:
    """A switch-level data center network.

    Parameters
    ----------
    name:
        Human-readable identifier used in reports and reprs.

    Notes
    -----
    Mutation methods (``add_switch``, ``add_link``, ...) validate eagerly and
    raise :class:`~repro.exceptions.TopologyError` on structural violations
    (self-loops, unknown endpoints, non-positive capacities).
    """

    #: Structural mutations so far, and the :meth:`adjacency` memo as
    #: ``(version, matrix, component labels or None)``; a degraded view
    #: reads its base's version.
    _version = 0
    _adjacency: "tuple | None" = None

    def __init__(self, name: str = "topology") -> None:
        self.name = str(name)
        # switch -> attribute dict, and switch -> {neighbor: capacity}.
        # Both keep insertion order, which is networkx ``Graph``'s order:
        # every arc list, LP column, cut sum and anneal pick follows it.
        self._nodes: dict = {}
        self._adj: dict = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(
        self,
        node: NodeId,
        servers: int = 0,
        cluster: "str | None" = None,
        switch_type: "str | None" = None,
    ) -> None:
        """Add a switch with ``servers`` attached servers.

        ``cluster`` and ``switch_type`` are free-form labels used by the
        heterogeneous-design analyses (e.g. ``"large"``/``"small"`` clusters,
        ``"tor"``/``"agg"``/``"core"`` types).
        """
        if node in self._nodes:
            raise TopologyError(f"switch {node!r} already exists")
        servers = check_non_negative_int(servers, "servers")
        self._nodes[node] = {
            "servers": servers,
            "cluster": cluster,
            "switch_type": switch_type,
        }
        self._adj[node] = {}
        self._version += 1

    def add_link(self, u: NodeId, v: NodeId, capacity: float = 1.0) -> None:
        """Add a link of the given capacity between existing switches.

        Adding a link where one already exists *aggregates* capacities, which
        is how parallel links (port trunks) are represented; the link keeps
        its place in :attr:`links` order.
        """
        if u == v:
            raise TopologyError(f"self-loop at switch {u!r} is not allowed")
        for node in (u, v):
            if node not in self._nodes:
                raise TopologyError(f"switch {node!r} does not exist")
        capacity = check_positive(capacity, "capacity")
        capacity += self._adj[u].get(v, 0.0)
        self._adj[u][v] = capacity
        self._adj[v][u] = capacity
        self._version += 1

    def remove_link(self, u: NodeId, v: NodeId) -> None:
        """Remove the link between ``u`` and ``v`` entirely."""
        if not self.has_link(u, v):
            raise TopologyError(f"no link between {u!r} and {v!r}")
        del self._adj[u][v]
        del self._adj[v][u]
        self._version += 1

    def set_servers(self, node: NodeId, servers: int) -> None:
        """Set the number of servers attached to ``node``."""
        if node not in self._nodes:
            raise TopologyError(f"switch {node!r} does not exist")
        self._nodes[node]["servers"] = check_non_negative_int(servers, "servers")

    def set_cluster(self, node: NodeId, cluster: "str | None") -> None:
        """Assign ``node`` to a named cluster (used by two-cluster analyses)."""
        if node not in self._nodes:
            raise TopologyError(f"switch {node!r} does not exist")
        self._nodes[node]["cluster"] = cluster

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_switches(self) -> int:
        """Number of switches."""
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        """Number of (collapsed) undirected links."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    @property
    def num_servers(self) -> int:
        """Total number of servers attached across all switches."""
        return sum(attrs["servers"] for attrs in self._nodes.values())

    @property
    def switches(self) -> list[NodeId]:
        """All switch ids, in insertion order."""
        return list(self._nodes)

    def link_triples(self) -> Iterator[tuple[NodeId, NodeId, float]]:
        """Undirected links as ``(u, v, capacity)``, without :class:`Link`
        objects.

        This is the one link order (networkx's ``Graph.edges`` order):
        switch-major, each link once, from the endpoint that comes first
        in :attr:`switches` order, then in that switch's neighbor order.
        """
        seen = set()
        for u, nbrs in self._adj.items():
            for v, capacity in nbrs.items():
                if v not in seen:
                    yield u, v, capacity
            seen.add(u)

    @property
    def links(self) -> list[Link]:
        """All undirected links with their (aggregated) capacities."""
        return [Link(u, v, capacity) for u, v, capacity in self.link_triples()]

    @property
    def total_capacity(self) -> float:
        """Total network capacity counting both directions (paper's ``C``)."""
        return 2.0 * sum(capacity for _, _, capacity in self.link_triples())

    def has_switch(self, node: NodeId) -> bool:
        """Whether ``node`` is a switch in this topology."""
        return node in self._nodes

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        """Whether an (undirected) link between ``u`` and ``v`` exists."""
        return v in self._adj.get(u, ())

    def capacity(self, u: NodeId, v: NodeId) -> float:
        """Capacity of the link between ``u`` and ``v`` (per direction)."""
        if not self.has_link(u, v):
            raise TopologyError(f"no link between {u!r} and {v!r}")
        return float(self._adj[u][v])

    def degree(self, node: NodeId) -> int:
        """Number of distinct neighbor switches of ``node``."""
        if node not in self._nodes:
            raise TopologyError(f"switch {node!r} does not exist")
        return len(self._adj[node])

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Neighbor switches of ``node``."""
        if node not in self._nodes:
            raise TopologyError(f"switch {node!r} does not exist")
        return list(self._adj[node])

    def servers_at(self, node: NodeId) -> int:
        """Number of servers attached to ``node``."""
        if node not in self._nodes:
            raise TopologyError(f"switch {node!r} does not exist")
        return int(self._nodes[node]["servers"])

    def server_map(self) -> dict[NodeId, int]:
        """Mapping of switch id -> attached server count."""
        return {node: int(attrs["servers"]) for node, attrs in self._nodes.items()}

    def cluster_of(self, node: NodeId) -> "str | None":
        """Cluster label of ``node`` (``None`` if unassigned)."""
        if node not in self._nodes:
            raise TopologyError(f"switch {node!r} does not exist")
        return self._nodes[node]["cluster"]

    def switch_type_of(self, node: NodeId) -> "str | None":
        """Switch-type label of ``node`` (``None`` if unassigned)."""
        if node not in self._nodes:
            raise TopologyError(f"switch {node!r} does not exist")
        return self._nodes[node]["switch_type"]

    def nodes_in_cluster(self, cluster: str) -> list[NodeId]:
        """All switches assigned to the given cluster label."""
        return [
            node
            for node, attrs in self._nodes.items()
            if attrs["cluster"] == cluster
        ]

    def nodes_of_type(self, switch_type: str) -> list[NodeId]:
        """All switches with the given switch-type label."""
        return [
            node
            for node, attrs in self._nodes.items()
            if attrs["switch_type"] == switch_type
        ]

    def clusters(self) -> list[str]:
        """Sorted list of distinct non-``None`` cluster labels."""
        labels = {attrs["cluster"] for attrs in self._nodes.values()}
        return sorted(label for label in labels if label is not None)

    def arcs(self) -> list[tuple[NodeId, NodeId, float]]:
        """Directed arcs ``(u, v, capacity)``: two per undirected link.

        The flow solvers operate on this directed view; the paper counts
        capacity per direction, so ``sum(cap for *_, cap in arcs())`` equals
        :attr:`total_capacity`.
        """
        out: list[tuple[NodeId, NodeId, float]] = []
        for u, v, capacity in self.link_triples():
            cap = float(capacity)
            out.append((u, v, cap))
            out.append((v, u, cap))
        return out

    def degree_histogram(self) -> dict[int, int]:
        """Mapping of degree -> number of switches with that degree."""
        hist: dict[int, int] = {}
        for nbrs in self._adj.values():
            hist[len(nbrs)] = hist.get(len(nbrs), 0) + 1
        return dict(sorted(hist.items()))

    def is_connected(self) -> bool:
        """Whether the switch graph is connected (vacuously true if empty)."""
        # Labels run from 0 to the number of components minus one.
        return not self._nodes or int(self.component_labels().max()) == 0

    def cut_capacity(self, side_a: Iterable[NodeId], side_b: Iterable[NodeId]) -> float:
        """Total capacity of links crossing between two disjoint node sets.

        Counts both directions, matching the paper's ``C̄`` convention.
        """
        set_a = set(side_a)
        set_b = set(side_b)
        overlap = set_a & set_b
        if overlap:
            raise TopologyError(f"node sets overlap: {sorted(map(repr, overlap))}")
        total = 0.0
        for u, v, capacity in self.link_triples():
            if (u in set_a and v in set_b) or (u in set_b and v in set_a):
                total += 2.0 * float(capacity)
        return total

    # ------------------------------------------------------------------
    # Conversion / copying
    # ------------------------------------------------------------------
    def adjacency(self) -> csr_array:
        """The capacity-weighted CSR adjacency over :attr:`switches` order.

        Entry ``(i, j)`` is the float capacity of the link between
        ``switches[i]`` and ``switches[j]``. Every array consumer of the
        switch graph reads this one matrix (hop distances, the spectral
        measures, the route enumerators, the connected components), so
        treat it as read-only. It is built on first use and rebuilt
        after ``add_switch``, ``add_link`` or ``remove_link``.
        """
        if self._adjacency is None or self._adjacency[0] != self._version:
            adj = self._adj
            index = {node: i for i, node in enumerate(self._nodes)}
            rows = [adj[node] for node in index]
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum([len(nbrs) for nbrs in rows], out=indptr[1:])
            nnz = int(indptr[-1])
            indices = np.fromiter(
                (index[v] for nbrs in rows for v in nbrs), dtype=np.int64, count=nnz
            )
            data = np.fromiter(
                (cap for nbrs in rows for cap in nbrs.values()), dtype=float, count=nnz
            )
            matrix = csr_array((data, indices, indptr), shape=(len(rows), len(rows)))
            matrix.sort_indices()
            self._adjacency = (self._version, matrix, None)
        return self._adjacency[1]

    def component_labels(self) -> np.ndarray:
        """Connected-component id of each switch, over :attr:`switches`
        order: two switches share a component when their ids are equal.
        Memoized with :meth:`adjacency`."""
        matrix = self.adjacency()
        version, _, labels = self._adjacency
        if labels is None:
            _, labels = csgraph.connected_components(matrix, directed=False)
            self._adjacency = (version, matrix, labels)
        return labels

    def to_networkx(self):
        """Return an independent :class:`networkx.Graph` copy.

        Its switch and neighbor orders are :meth:`copy`'s. networkx is
        imported here, and only here.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(
            (node, dict(attrs)) for node, attrs in self._nodes.items()
        )
        graph.add_edges_from(
            (u, v, {"capacity": capacity})
            for u, nbrs in self._adj.items()
            for v, capacity in nbrs.items()
        )
        return graph

    def copy(self, name: "str | None" = None) -> "Topology":
        """Deep-copy this topology, optionally renaming it.

        Like networkx's ``Graph.copy``, the copy re-adds every link from
        both endpoints in switch-major order, so a switch's neighbors
        that come before it in :attr:`switches` order move to the front
        of its neighbor list, in switch order. A copy's arc order, and
        with it every LP column and anneal pick made on it, follows from
        this (``tests/golden/instance_fingerprints.json`` pins it).
        """
        clone = Topology(name if name is not None else self.name)
        clone._nodes = {node: dict(attrs) for node, attrs in self._nodes.items()}
        adj = clone._adj = {node: {} for node in self._nodes}
        for u, nbrs in self._adj.items():
            for v, capacity in nbrs.items():
                adj[u][v] = capacity
                adj[v][u] = capacity
        return clone

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[NodeId, NodeId]],
        servers: "Mapping[NodeId, int] | int" = 0,
        capacity: float = 1.0,
        name: str = "topology",
    ) -> "Topology":
        """Build a topology from an edge list with uniform link capacity.

        ``servers`` may be one integer (same count at every switch) or a
        mapping from switch id to count.
        """
        topo = cls(name)
        edges = list(edges)
        nodes: list[NodeId] = []
        seen: set[NodeId] = set()
        for u, v in edges:
            for node in (u, v):
                if node not in seen:
                    seen.add(node)
                    nodes.append(node)
        if isinstance(servers, Mapping):
            for extra in servers:
                if extra not in seen:
                    seen.add(extra)
                    nodes.append(extra)
        for node in nodes:
            if isinstance(servers, Mapping):
                count = int(servers.get(node, 0))
            else:
                count = int(servers)
            topo.add_switch(node, servers=count)
        for u, v in edges:
            topo.add_link(u, v, capacity=capacity)
        return topo

    # ------------------------------------------------------------------
    # Validation / dunder
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`TopologyError` if broken.

        Checks: no self-loops, all capacities positive, all server counts
        non-negative integers.
        """
        for u, v, cap in self.link_triples():
            if u == v:
                raise TopologyError(f"self-loop at {u!r}")
            if not cap > 0:
                raise TopologyError(f"link ({u!r}, {v!r}) has capacity {cap!r}")
        for node, attrs in self._nodes.items():
            servers = attrs["servers"]
            if not isinstance(servers, int) or servers < 0:
                raise TopologyError(f"switch {node!r} has server count {servers!r}")

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, switches={self.num_switches}, "
            f"links={self.num_links}, servers={self.num_servers})"
        )
