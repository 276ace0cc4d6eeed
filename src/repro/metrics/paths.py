"""Shortest-path metrics over topologies.

Path lengths are measured in switch-to-switch hops (link capacities do not
affect distance), matching the paper's ``<D>`` and the Cerf et al. bound it
is compared against. Whole-network metrics (ASPL, diameter, histogram)
BFS from every switch; demand-weighted hop sums need only the demand
pairs, whose distances come from one meet-in-the-middle kernel over
sparse boolean balls. Includes a self-contained Yen's algorithm for the
k-shortest simple paths used by the path-restricted LP and the MPTCP
simulator.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Iterator

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix
from repro.util.validation import check_positive_int


def shortest_path_lengths_from(topo: Topology, source) -> dict:
    """Hop distances from ``source`` to every reachable switch (BFS)."""
    if source not in topo:
        raise TopologyError(f"switch {source!r} does not exist")
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in topo.neighbors(node):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                frontier.append(neighbor)
    return dist


def all_pairs_shortest_lengths(topo: Topology) -> dict:
    """Mapping node -> {node -> hop distance} over reachable pairs."""
    return {v: shortest_path_lengths_from(topo, v) for v in topo.switches}


def average_shortest_path_length(topo: Topology) -> float:
    """ASPL over all ordered pairs of distinct switches (the paper's ``<D>``).

    Raises :class:`TopologyError` on disconnected or single-switch networks,
    where the quantity is undefined.
    """
    nodes = topo.switches
    if len(nodes) < 2:
        raise TopologyError("ASPL is undefined for fewer than 2 switches")
    total = 0
    count = 0
    for source in nodes:
        dist = shortest_path_lengths_from(topo, source)
        if len(dist) != len(nodes):
            raise TopologyError(
                f"topology {topo.name!r} is disconnected; ASPL undefined"
            )
        total += sum(dist.values())
        count += len(nodes) - 1
    return total / count


def diameter(topo: Topology) -> int:
    """Longest shortest-path distance between any switch pair."""
    nodes = topo.switches
    if len(nodes) < 2:
        raise TopologyError("diameter is undefined for fewer than 2 switches")
    worst = 0
    for source in nodes:
        dist = shortest_path_lengths_from(topo, source)
        if len(dist) != len(nodes):
            raise TopologyError(
                f"topology {topo.name!r} is disconnected; diameter undefined"
            )
        worst = max(worst, max(dist.values()))
    return worst


def path_length_histogram(topo: Topology) -> dict[int, int]:
    """Mapping hop distance -> number of ordered switch pairs at it."""
    hist: dict[int, int] = {}
    for source in topo.switches:
        dist = shortest_path_lengths_from(topo, source)
        for node, d in dist.items():
            if node == source:
                continue
            hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))


def demand_weighted_aspl(topo: Topology, traffic: TrafficMatrix) -> float:
    """Average hop distance across demand pairs, weighted by demand units.

    This is the ``<D>`` that enters the throughput decomposition for a
    concrete workload; for uniform workloads over evenly spread servers it
    coincides with the unweighted ASPL up to sampling noise.
    """
    return demand_hop_sum(topo, traffic) / traffic.total_demand


#: Demand pairs per ball-growing batch in :func:`_pair_distances`. Only
#: the batch's two ball matrices are live at once, which bounds memory.
PAIR_BATCH = 4096


def _reach_matrix(topo: Topology):
    """Boolean CSR of ``A + I`` over ``topo.switches`` order.

    One product with it grows every row's ball by one hop. The adjacency
    comes from the active :func:`~repro.estimate.batch.shared_artifacts`
    store when there is one, so a batch's backends build it once.
    """
    import networkx as nx
    from scipy import sparse

    from repro.estimate.batch import active_artifacts

    store = active_artifacts()
    if store is not None:
        adjacency = store.csr_adjacency(topo)
    else:
        adjacency = nx.to_scipy_sparse_array(
            topo.graph, nodelist=topo.switches, weight=None, format="csr"
        )
    identity = sparse.eye_array(adjacency.shape[0], format="csr", dtype=bool)
    return adjacency.astype(bool) + identity


def _point_balls(rows, num_nodes: int):
    """One radius-0 ball per entry of ``rows``: row ``i`` holds ``rows[i]``."""
    import numpy as np
    from scipy import sparse

    return sparse.csr_array(
        (np.ones(len(rows), dtype=bool), rows, np.arange(len(rows) + 1)),
        shape=(len(rows), num_nodes),
    )


def _pair_distances(reach, heads, tails):
    """Hop distance of every pair ``(heads[i], tails[i])`` of node-row arrays.

    Meets balls in the middle: each pair keeps a sparse boolean ball
    around both ends, and round ``k`` grows the head side (odd ``k``) or
    the tail side (even ``k``) by one product with ``reach`` (see
    :func:`_reach_matrix`). A pair's distance is the first ``k`` at which
    its two balls intersect. A ball that grows by no node already covers
    its connected component, so a pair whose balls still do not meet is
    unreachable and gets ``inf``. Pairs go in batches of
    :data:`PAIR_BATCH`, and each round keeps only unresolved pairs'
    balls, which bounds memory.
    """
    import numpy as np

    dist = np.where(heads == tails, 0.0, np.inf)
    num_nodes = reach.shape[0]
    for start in range(0, len(heads), PAIR_BATCH):
        batch = slice(start, start + PAIR_BATCH)
        pending = start + np.flatnonzero(heads[batch] != tails[batch])
        balls = [
            _point_balls(heads[pending], num_nodes),
            _point_balls(tails[pending], num_nodes),
        ]
        hops = 0
        while len(pending):
            hops += 1
            side = (hops - 1) % 2
            grown = balls[side] @ reach
            stalled = np.diff(grown.indptr) == np.diff(balls[side].indptr)
            balls[side] = grown
            met = balls[0].multiply(balls[1]).sum(axis=1) > 0
            dist[pending[met]] = hops
            keep = ~(met | stalled)
            pending = pending[keep]
            balls = [ball[keep] for ball in balls]
    return dist


def _node_rows(index: dict, nodes):
    """Row numbers of ``nodes`` under ``index`` as an int64 array."""
    import numpy as np

    return np.fromiter((index[node] for node in nodes), dtype=np.int64)


def _demands_by_source(traffic: TrafficMatrix, index: dict) -> dict:
    """``{u: {v: units}}`` in insertion order; every endpoint must be in
    ``index``."""
    if not traffic.demands:
        raise TopologyError("traffic matrix has no network demands")
    by_source: dict = {}
    for (u, v), units in traffic.demands.items():
        for node in (u, v):
            if node not in index:
                raise TopologyError(f"demand endpoint {node!r} is not a switch")
        by_source.setdefault(u, {})[v] = units
    return by_source


def demand_hop_sum(topo: Topology, traffic: TrafficMatrix) -> float:
    """Sum over demands of ``units * hop_distance(u, v)``, at scale.

    This is the denominator of the capacity-charging throughput bound
    (each delivered unit consumes at least its shortest-path hops of
    capacity) and equals ``demand_weighted_aspl * total_demand``. Only
    the demand pairs' distances are computed, by the meet-in-the-middle
    kernel :func:`_pair_distances`, so an N = 100,000 permutation
    workload is exact in seconds. Units accumulate sequentially, sources
    in ``repr`` order and each source's destinations in insertion order.
    Raises :class:`TopologyError` on an unroutable demand, naming the
    first one in that order.
    """
    index = {node: i for i, node in enumerate(topo.switches)}
    by_source = _demands_by_source(traffic, index)
    pairs = [
        (u, v, units)
        for u in sorted(by_source, key=repr)
        for v, units in by_source[u].items()
    ]
    hops = _pair_distances(
        _reach_matrix(topo),
        _node_rows(index, (u for u, _, _ in pairs)),
        _node_rows(index, (v for _, v, _ in pairs)),
    )
    total = 0.0
    for (u, v, units), pair_hops in zip(pairs, hops.tolist()):
        if pair_hops == math.inf:
            raise TopologyError(
                f"demand {u!r}->{v!r} has no path in {topo.name!r}"
            )
        total += units * pair_hops
    return total


class DemandHopTracker:
    """Incrementally-maintained :func:`demand_hop_sum` for demand deltas.

    Built once per topology, the tracker caches the hop distance of every
    demand pair it has priced (distances depend only on the topology,
    which replay holds fixed) and each source's hop-sum contribution.
    Applying a :class:`~repro.traffic.timeline.DemandDelta` re-prices
    **only the touched sources** — an O(changed pairs) dictionary update
    per source, with one kernel call for the pairs never seen — so
    ``estimate_bound`` re-prices a timestep without a full recompute.
    """

    def __init__(self, topo: Topology, traffic: TrafficMatrix) -> None:
        self._topo = topo
        self._index = {node: i for i, node in enumerate(topo.switches)}
        self._by_source = _demands_by_source(traffic, self._index)
        self._reach = _reach_matrix(topo)
        self._pair_hops: dict = {}
        self._source_sums: dict = {}
        self.num_repriced = 0
        self._price_sources(sorted(self._by_source, key=repr))
        self.total = float(sum(self._source_sums.values()))

    # ------------------------------------------------------------------
    def _price_sources(self, sources: list) -> None:
        """(Re)compute hop-sum contributions for ``sources``."""
        missing = [
            (u, v)
            for u in sources
            for v in self._by_source.get(u, {})
            if (u, v) not in self._pair_hops
        ]
        if missing:
            hops = _pair_distances(
                self._reach,
                _node_rows(self._index, (u for u, _ in missing)),
                _node_rows(self._index, (v for _, v in missing)),
            )
            self._pair_hops.update(zip(missing, hops.tolist()))
        for source in sources:
            subtotal = 0.0
            for v, units in self._by_source.get(source, {}).items():
                hops = self._pair_hops[(source, v)]
                if hops == math.inf:
                    raise TopologyError(
                        f"demand {source!r}->{v!r} has no path in "
                        f"{self._topo.name!r}"
                    )
                subtotal += units * hops
            self._source_sums[source] = subtotal
            self.num_repriced += 1

    def apply_delta(self, delta) -> float:
        """Fold a delta in; returns the new total hop sum.

        Raises :class:`TopologyError` on unknown endpoints or a pair
        driven negative, leaving the tracker untouched in that case.
        """
        from repro.traffic.timeline import ZERO_DEMAND_TOLERANCE

        pending: dict = {}
        for (u, v), units in delta.changes:
            for node in (u, v):
                if node not in self._index:
                    raise TopologyError(
                        f"delta endpoint {node!r} is not a switch"
                    )
            current = pending.get((u, v))
            if current is None:
                current = self._by_source.get(u, {}).get(v, 0.0)
            new_units = current + units
            if new_units < -ZERO_DEMAND_TOLERANCE:
                raise TopologyError(
                    f"delta {delta.label!r} drives demand for ({u!r}, {v!r}) "
                    f"negative ({new_units})"
                )
            pending[(u, v)] = new_units
        touched: dict = {}
        for (u, v), new_units in pending.items():
            dests = self._by_source.setdefault(u, {})
            if abs(new_units) <= ZERO_DEMAND_TOLERANCE:
                dests.pop(v, None)
            else:
                dests[v] = new_units
            touched.setdefault(u, None)
        self._price_sources(sorted(touched, key=repr))
        for u in list(touched):
            if not self._by_source.get(u):
                self._by_source.pop(u, None)
        self.total = float(sum(self._source_sums.values()))
        return self.total


# ----------------------------------------------------------------------
# Path enumeration
# ----------------------------------------------------------------------
def _bfs_path(adjacency: dict, source, target, banned_nodes: set, banned_edges: set):
    """Shortest path avoiding banned nodes/edges; None if unreachable."""
    if source == target:
        return [source]
    parent = {source: None}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in adjacency[node]:
            if neighbor in parent or neighbor in banned_nodes:
                continue
            if (node, neighbor) in banned_edges:
                continue
            parent[neighbor] = node
            if neighbor == target:
                path = [neighbor]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            frontier.append(neighbor)
    return None


def k_shortest_paths(topo: Topology, source, target, k: int) -> list[list]:
    """Yen's algorithm: up to ``k`` shortest simple paths (by hops).

    Returns fewer than ``k`` paths when the graph does not contain that many
    simple paths. Ties are broken deterministically by path node sequence.
    """
    check_positive_int(k, "k")
    for node in (source, target):
        if node not in topo:
            raise TopologyError(f"switch {node!r} does not exist")
    if source == target:
        raise TopologyError("source and target must differ")
    adjacency = {v: sorted(topo.neighbors(v), key=repr) for v in topo.switches}

    first = _bfs_path(adjacency, source, target, set(), set())
    if first is None:
        return []
    accepted: list[list] = [first]
    candidates: list[tuple[int, list, list]] = []  # (length, tiebreak, path)
    seen: set[tuple] = {tuple(first)}

    while len(accepted) < k:
        prev = accepted[-1]
        for j in range(len(prev) - 1):
            spur_node = prev[j]
            root = prev[: j + 1]
            banned_edges: set = set()
            for path in accepted:
                if len(path) > j and path[: j + 1] == root:
                    banned_edges.add((path[j], path[j + 1]))
                    banned_edges.add((path[j + 1], path[j]))
            banned_nodes = set(root[:-1])
            spur = _bfs_path(adjacency, spur_node, target, banned_nodes, banned_edges)
            if spur is None:
                continue
            candidate = root[:-1] + spur
            key = tuple(candidate)
            if key in seen:
                continue
            seen.add(key)
            heapq.heappush(
                candidates, (len(candidate), [repr(n) for n in candidate], candidate)
            )
        if not candidates:
            break
        _, _, best = heapq.heappop(candidates)
        accepted.append(best)
    return accepted


def all_shortest_paths(
    topo: Topology, source, target, limit: "int | None" = None
) -> Iterator[list]:
    """Enumerate every shortest path from ``source`` to ``target`` (ECMP set).

    Builds the BFS predecessor DAG and walks it; ``limit`` truncates the
    enumeration (shortest-path counts can grow exponentially).
    """
    for node in (source, target):
        if node not in topo:
            raise TopologyError(f"switch {node!r} does not exist")
    if source == target:
        raise TopologyError("source and target must differ")
    dist = shortest_path_lengths_from(topo, source)
    if target not in dist:
        return
    predecessors: dict = {}
    for v in dist:
        predecessors[v] = [
            u for u in topo.neighbors(v) if dist.get(u, -1) == dist[v] - 1
        ]

    emitted = 0
    stack = [(target, [target])]
    while stack:
        node, suffix = stack.pop()
        if node == source:
            yield list(reversed(suffix))
            emitted += 1
            if limit is not None and emitted >= limit:
                return
            continue
        for pred in predecessors[node]:
            stack.append((pred, suffix + [pred]))
