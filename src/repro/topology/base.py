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

import networkx as nx

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
    #: ``(version, matrix)``; a degraded view reads its base's version.
    _version = 0
    _adjacency: "tuple | None" = None

    def __init__(self, name: str = "topology") -> None:
        self.name = str(name)
        self._graph = nx.Graph()

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
        if node in self._graph:
            raise TopologyError(f"switch {node!r} already exists")
        servers = check_non_negative_int(servers, "servers")
        self._graph.add_node(
            node, servers=servers, cluster=cluster, switch_type=switch_type
        )
        self._version += 1

    def add_link(self, u: NodeId, v: NodeId, capacity: float = 1.0) -> None:
        """Add a link of the given capacity between existing switches.

        Adding a link where one already exists *aggregates* capacities, which
        is how parallel links (port trunks) are represented.
        """
        if u == v:
            raise TopologyError(f"self-loop at switch {u!r} is not allowed")
        for node in (u, v):
            if node not in self._graph:
                raise TopologyError(f"switch {node!r} does not exist")
        capacity = check_positive(capacity, "capacity")
        if self._graph.has_edge(u, v):
            capacity += self._graph[u][v]["capacity"]
        # add_edge, not the shared data dict: a frozen view must raise
        # rather than change its base behind the base's adjacency memo.
        self._graph.add_edge(u, v, capacity=capacity)
        self._version += 1

    def remove_link(self, u: NodeId, v: NodeId) -> None:
        """Remove the link between ``u`` and ``v`` entirely."""
        if not self._graph.has_edge(u, v):
            raise TopologyError(f"no link between {u!r} and {v!r}")
        self._graph.remove_edge(u, v)
        self._version += 1

    def set_servers(self, node: NodeId, servers: int) -> None:
        """Set the number of servers attached to ``node``."""
        if node not in self._graph:
            raise TopologyError(f"switch {node!r} does not exist")
        self._graph.nodes[node]["servers"] = check_non_negative_int(
            servers, "servers"
        )

    def set_cluster(self, node: NodeId, cluster: "str | None") -> None:
        """Assign ``node`` to a named cluster (used by two-cluster analyses)."""
        if node not in self._graph:
            raise TopologyError(f"switch {node!r} does not exist")
        self._graph.nodes[node]["cluster"] = cluster

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_switches(self) -> int:
        """Number of switches."""
        return self._graph.number_of_nodes()

    @property
    def num_links(self) -> int:
        """Number of (collapsed) undirected links."""
        return self._graph.number_of_edges()

    @property
    def num_servers(self) -> int:
        """Total number of servers attached across all switches."""
        return sum(self._graph.nodes[v]["servers"] for v in self._graph)

    @property
    def switches(self) -> list[NodeId]:
        """All switch ids, in insertion order."""
        return list(self._graph.nodes)

    @property
    def links(self) -> list[Link]:
        """All undirected links with their (aggregated) capacities."""
        return [
            Link(u, v, data["capacity"])
            for u, v, data in self._graph.edges(data=True)
        ]

    @property
    def total_capacity(self) -> float:
        """Total network capacity counting both directions (paper's ``C``)."""
        return 2.0 * sum(d["capacity"] for _, _, d in self._graph.edges(data=True))

    def has_switch(self, node: NodeId) -> bool:
        """Whether ``node`` is a switch in this topology."""
        return node in self._graph

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        """Whether an (undirected) link between ``u`` and ``v`` exists."""
        return self._graph.has_edge(u, v)

    def capacity(self, u: NodeId, v: NodeId) -> float:
        """Capacity of the link between ``u`` and ``v`` (per direction)."""
        if not self._graph.has_edge(u, v):
            raise TopologyError(f"no link between {u!r} and {v!r}")
        return float(self._graph[u][v]["capacity"])

    def degree(self, node: NodeId) -> int:
        """Number of distinct neighbor switches of ``node``."""
        if node not in self._graph:
            raise TopologyError(f"switch {node!r} does not exist")
        return int(self._graph.degree[node])

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Neighbor switches of ``node``."""
        if node not in self._graph:
            raise TopologyError(f"switch {node!r} does not exist")
        return list(self._graph.neighbors(node))

    def servers_at(self, node: NodeId) -> int:
        """Number of servers attached to ``node``."""
        if node not in self._graph:
            raise TopologyError(f"switch {node!r} does not exist")
        return int(self._graph.nodes[node]["servers"])

    def server_map(self) -> dict[NodeId, int]:
        """Mapping of switch id -> attached server count."""
        return {v: int(self._graph.nodes[v]["servers"]) for v in self._graph}

    def cluster_of(self, node: NodeId) -> "str | None":
        """Cluster label of ``node`` (``None`` if unassigned)."""
        if node not in self._graph:
            raise TopologyError(f"switch {node!r} does not exist")
        return self._graph.nodes[node].get("cluster")

    def switch_type_of(self, node: NodeId) -> "str | None":
        """Switch-type label of ``node`` (``None`` if unassigned)."""
        if node not in self._graph:
            raise TopologyError(f"switch {node!r} does not exist")
        return self._graph.nodes[node].get("switch_type")

    def nodes_in_cluster(self, cluster: str) -> list[NodeId]:
        """All switches assigned to the given cluster label."""
        return [
            v
            for v in self._graph
            if self._graph.nodes[v].get("cluster") == cluster
        ]

    def nodes_of_type(self, switch_type: str) -> list[NodeId]:
        """All switches with the given switch-type label."""
        return [
            v
            for v in self._graph
            if self._graph.nodes[v].get("switch_type") == switch_type
        ]

    def clusters(self) -> list[str]:
        """Sorted list of distinct non-``None`` cluster labels."""
        labels = {
            self._graph.nodes[v].get("cluster")
            for v in self._graph
        }
        return sorted(label for label in labels if label is not None)

    def arcs(self) -> list[tuple[NodeId, NodeId, float]]:
        """Directed arcs ``(u, v, capacity)``: two per undirected link.

        The flow solvers operate on this directed view; the paper counts
        capacity per direction, so ``sum(cap for *_, cap in arcs())`` equals
        :attr:`total_capacity`.
        """
        out: list[tuple[NodeId, NodeId, float]] = []
        for u, v, data in self._graph.edges(data=True):
            cap = float(data["capacity"])
            out.append((u, v, cap))
            out.append((v, u, cap))
        return out

    def degree_histogram(self) -> dict[int, int]:
        """Mapping of degree -> number of switches with that degree."""
        hist: dict[int, int] = {}
        for _, deg in self._graph.degree:
            hist[deg] = hist.get(deg, 0) + 1
        return dict(sorted(hist.items()))

    def is_connected(self) -> bool:
        """Whether the switch graph is connected (vacuously true if empty)."""
        if self._graph.number_of_nodes() == 0:
            return True
        return nx.is_connected(self._graph)

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
        for u, v, data in self._graph.edges(data=True):
            if (u in set_a and v in set_b) or (u in set_b and v in set_a):
                total += 2.0 * float(data["capacity"])
        return total

    # ------------------------------------------------------------------
    # Conversion / copying
    # ------------------------------------------------------------------
    def adjacency(self):
        """The capacity-weighted CSR adjacency over :attr:`switches` order.

        Entry ``(i, j)`` is the float capacity of the link between
        ``switches[i]`` and ``switches[j]``. Every array consumer of the
        switch graph reads this one matrix (hop distances, the spectral
        measures, the route enumerators), so treat it as read-only. It
        is built on first use and rebuilt after ``add_switch``,
        ``add_link`` or ``remove_link``.
        """
        if self._adjacency is None or self._adjacency[0] != self._version:
            matrix = nx.to_scipy_sparse_array(
                self._graph, self.switches, weight="capacity", dtype=float, format="csr"
            )
            self._adjacency = (self._version, matrix)
        return self._adjacency[1]

    def to_networkx(self) -> nx.Graph:
        """Return an independent :class:`networkx.Graph` copy."""
        return self._graph.copy()

    @property
    def graph(self) -> nx.Graph:
        """The underlying graph (treat as read-only; use mutation methods)."""
        return self._graph

    def copy(self, name: "str | None" = None) -> "Topology":
        """Deep-copy this topology, optionally renaming it."""
        clone = Topology(name if name is not None else self.name)
        clone._graph = self._graph.copy()
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
        for u, v, data in self._graph.edges(data=True):
            if u == v:
                raise TopologyError(f"self-loop at {u!r}")
            cap = data.get("capacity")
            if cap is None or not cap > 0:
                raise TopologyError(f"link ({u!r}, {v!r}) has capacity {cap!r}")
        for v in self._graph:
            servers = self._graph.nodes[v].get("servers")
            if not isinstance(servers, int) or servers < 0:
                raise TopologyError(f"switch {v!r} has server count {servers!r}")

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._graph)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, switches={self.num_switches}, "
            f"links={self.num_links}, servers={self.num_servers})"
        )
