"""Shortest-path metrics over topologies.

Path lengths are measured in switch-to-switch hops (link capacities do not
affect distance), matching the paper's ``<D>`` and the Cerf et al. bound it
is compared against. Two kernels over
:meth:`~repro.topology.base.Topology.adjacency` compute every distance:
:func:`hop_rows` (csgraph BFS rows, for the whole-network metrics, ECMP
and the route enumerators) and, for the demand pairs of hop sums, one
meet-in-the-middle kernel over sparse boolean balls. Includes a
self-contained Yen's algorithm for the k-shortest simple paths used by
the path-restricted LP and the MPTCP simulator.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Iterator

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix
from repro.util.validation import check_positive_int

#: Most distinct sources per csgraph call, and per block of rows that
#: :func:`hop_rows` holds at once.
ROW_BATCH = 256


def hop_distances(topo: Topology, sources) -> np.ndarray:
    """Hop distances from each of ``sources`` to every switch.

    Row ``i`` holds ``sources[i]``'s distances over ``topo.switches`` order
    as floats, ``inf`` for a switch it cannot reach (see :func:`hop_rows`).
    Raises :class:`TopologyError` naming an unknown source.
    """
    rows = list(hop_rows(topo, sources))
    return np.array(rows) if rows else np.empty((0, topo.num_switches))


def hop_rows(topo: Topology, sources) -> Iterator[np.ndarray]:
    """Yield the :func:`hop_distances` row of each of ``sources``, in order.

    Runs csgraph BFS over :meth:`Topology.adjacency`, one call per block
    of consecutive sources holding at most :data:`ROW_BATCH` distinct
    switches, so a walk over many sources holds one block of rows at a
    time and a source repeated within its block costs no second row.
    """
    from scipy.sparse import csgraph

    index = {node: i for i, node in enumerate(topo.switches)}
    sources = list(sources)
    for source in sources:
        if source not in index:
            raise TopologyError(f"switch {source!r} does not exist")
    start, count = 0, len(sources)
    while start < count:
        block: dict = {}
        stop = start
        while stop < count and (sources[stop] in block or len(block) < ROW_BATCH):
            block.setdefault(sources[stop], len(block))
            stop += 1
        indices = [index[source] for source in block]
        rows = csgraph.dijkstra(topo.adjacency(), unweighted=True, indices=indices)
        for source in sources[start:stop]:
            yield rows[block[source]]
        start = stop


def _connected_rows(topo: Topology, metric: str) -> Iterator[np.ndarray]:
    """Every switch's hop row; raises if the network is disconnected or
    has fewer than 2 switches, where ``metric`` is undefined."""
    nodes = topo.switches
    if len(nodes) < 2:
        raise TopologyError(f"{metric} is undefined for fewer than 2 switches")
    for row in hop_rows(topo, nodes):
        if not np.isfinite(row).all():
            raise TopologyError(
                f"topology {topo.name!r} is disconnected; {metric} undefined"
            )
        yield row


def all_pairs_shortest_lengths(topo: Topology) -> dict:
    """Mapping node -> {node -> hop distance} over reachable pairs."""
    nodes = topo.switches
    return {
        source: {nodes[j]: int(d) for j, d in enumerate(row.tolist()) if d != math.inf}
        for source, row in zip(nodes, hop_rows(topo, nodes))
    }


def average_shortest_path_length(topo: Topology) -> float:
    """ASPL over all ordered pairs of distinct switches (the paper's ``<D>``).

    Raises :class:`TopologyError` on disconnected or single-switch networks,
    where the quantity is undefined.
    """
    total = sum(int(row.sum()) for row in _connected_rows(topo, "ASPL"))
    n = topo.num_switches
    return total / (n * (n - 1))


def diameter(topo: Topology) -> int:
    """Longest shortest-path distance between any switch pair."""
    return max(int(row.max()) for row in _connected_rows(topo, "diameter"))


def path_length_histogram(topo: Topology) -> dict[int, int]:
    """Mapping hop distance -> number of ordered switch pairs at it."""
    hist: dict[int, int] = {}
    for row in hop_rows(topo, topo.switches):
        hops, counts = np.unique(row[np.isfinite(row) & (row > 0)], return_counts=True)
        for d, count in zip(hops.tolist(), counts.tolist()):
            hist[int(d)] = hist.get(int(d), 0) + count
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
    """Boolean CSR of ``A + I``: one product grows each row's ball a hop."""
    from scipy import sparse

    adjacency = topo.adjacency()
    identity = sparse.eye_array(adjacency.shape[0], format="csr", dtype=bool)
    return adjacency.astype(bool) + identity


def _point_balls(rows, num_nodes: int):
    """One radius-0 ball per entry of ``rows``: row ``i`` holds ``rows[i]``."""
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

    Walks the BFS predecessor DAG back from ``target``; ``limit``
    truncates the enumeration (shortest-path counts can grow
    exponentially).
    """
    for node in (source, target):
        if node not in topo:
            raise TopologyError(f"switch {node!r} does not exist")
    if source == target:
        raise TopologyError("source and target must differ")
    index = {node: i for i, node in enumerate(topo.switches)}
    (dist,) = hop_rows(topo, [source])
    for path in _walk_shortest_paths(topo, index, dist, source, target, limit):
        yield list(path)


def _dag_enumerate(start, stop, next_hops, cap):
    """Depth-first walk of a shortest-path DAG from ``start`` to ``stop``.

    ``next_hops(node)`` lists ``node``'s successors, which the walk takes
    in that order. Returns ``(paths, weights, truncated)``: node tuples,
    each path's per-hop hash probability (the product of 1/outdegree, so
    a complete enumeration's weights sum to exactly 1), and whether the
    walk stopped at ``cap`` paths with more left.
    """
    paths: list = []
    weights: list = []
    truncated = False
    stack = [((start,), 1.0)]
    while stack:
        path, prob = stack.pop()
        node = path[-1]
        if node == stop:
            paths.append(path)
            weights.append(prob)
            if len(paths) >= cap:
                truncated = bool(stack)
                break
            continue
        hops = next_hops(node)
        share = prob / len(hops)
        for nxt in reversed(hops):
            stack.append((path + (nxt,), share))
    return paths, weights, truncated


def _closer_neighbors(index: dict, dist, neighbors):
    """``next_hops(node)``: the ``neighbors(node)``, in that order, one hop
    closer to the switch whose hop row over ``index`` is ``dist``."""

    def next_hops(node):
        closer = dist[index[node]] - 1
        return [b for b in neighbors(node) if dist[index[b]] == closer]

    return next_hops


def _walk_shortest_paths(
    topo: Topology, index: dict, dist, source, target, limit: "int | None"
) -> list:
    """Up to ``limit`` shortest ``source -> target`` node tuples, ``dist``
    being ``source``'s hop row over ``index``: a walk back from ``target``
    over each node's predecessors in reverse ``topo.neighbors`` order."""
    if dist[index[target]] == math.inf:
        return []
    predecessors = _closer_neighbors(
        index, dist, lambda node: topo.neighbors(node)[::-1]
    )
    paths, _, _ = _dag_enumerate(
        target, source, predecessors, math.inf if limit is None else limit
    )
    return [path[::-1] for path in paths]
