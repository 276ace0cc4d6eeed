"""Incremental all-pairs shortest paths under double edge swaps.

The topology search engine evaluates thousands of candidate double edge
swaps per run; recomputing all-pairs BFS from scratch for each candidate
costs O(n * m) python-level work and dominates the hot loop. This module
maintains the full distance matrix across swaps and repairs it in
O(affected pairs) vectorized work instead:

1. **Deletions.** An edge ``(u, v)`` lies on some shortest path from
   source ``x`` iff ``|d(x, u) - d(x, v)| == 1``; rows where neither
   removed edge satisfies this are provably untouched by the deletions.
   Only the affected rows are recomputed, with a multi-source BFS whose
   per-level step is one dense matrix product (BLAS) rather than a python
   loop.
2. **Insertions.** Distances can only shrink through a new edge
   ``(u, v)``, and any improved path decomposes at its first use of a new
   edge, so the exact update for the remaining rows is the vectorized
   relaxation ``d'(x, y) = min(d(x, y), d'(u, x) + 1 + d'(v, y), ...)``
   using the already-exact rows of the four swap endpoints.

The matrix is repaired exactly (asserted against full recomputation in the
test suite), so the search loop can read ASPL deltas after every proposed
swap at a small fraction of the full-recompute cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import NodeId, Topology
from repro.topology.mutation import DoubleEdgeSwap


def _bfs_rows(adjacency: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """BFS distance rows for ``sources`` over a dense float32 adjacency.

    Runs all sources simultaneously: each BFS level is one ``(k, n) @
    (n, n)`` matrix product. Unreachable entries hold the sentinel ``n``.
    """
    n = adjacency.shape[0]
    k = len(sources)
    dist = np.full((k, n), n, dtype=np.int32)
    frontier = np.zeros((k, n), dtype=np.float32)
    frontier[np.arange(k), sources] = 1.0
    visited = frontier > 0
    dist[visited] = 0
    level = 0
    while True:
        level += 1
        reached = (frontier @ adjacency) > 0
        fresh = reached & ~visited
        if not fresh.any():
            return dist
        dist[fresh] = level
        visited |= fresh
        frontier = fresh.astype(np.float32)


@dataclass
class SwapEvaluation:
    """Outcome of evaluating one candidate swap without committing it.

    ``connected`` is ``False`` when the swap disconnects the network, in
    which case ``total_distance``/``aspl`` are meaningless and committing
    the evaluation raises.
    """

    swap: DoubleEdgeSwap
    connected: bool
    total_distance: int
    aspl: float
    #: Number of distance-matrix rows recomputed by BFS (diagnostics).
    rows_recomputed: int = 0
    _dist: "np.ndarray | None" = field(default=None, repr=False, compare=False)
    _adjacency: "np.ndarray | None" = field(
        default=None, repr=False, compare=False
    )


class IncrementalASPL:
    """Maintain all-pairs hop distances of a topology across edge swaps.

    The tracker snapshots the topology's switch graph at construction; it
    does **not** observe later out-of-band mutations of the topology.
    Drive all structural changes through :meth:`apply` / :meth:`commit`
    (the search engine does), or rebuild with a fresh instance.

    Link capacities are irrelevant here — distances are hop counts, as in
    :func:`repro.metrics.paths.average_shortest_path_length`.
    """

    def __init__(self, topo: Topology) -> None:
        nodes = topo.switches
        if len(nodes) < 2:
            raise TopologyError("incremental ASPL needs at least 2 switches")
        self._nodes: list[NodeId] = list(nodes)
        self._index: dict[NodeId, int] = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        adjacency = (topo.adjacency().toarray() > 0).astype(np.float32)
        dist = _bfs_rows(adjacency, np.arange(n))
        if int(dist.max()) >= n:
            raise TopologyError(
                f"topology {topo.name!r} is disconnected; ASPL undefined"
            )
        self._adjacency = adjacency
        self._dist = dist
        self._total = int(dist.sum())

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_switches(self) -> int:
        return len(self._nodes)

    @property
    def total_distance(self) -> int:
        """Sum of hop distances over all ordered switch pairs."""
        return self._total

    @property
    def aspl(self) -> float:
        """Average shortest path length over ordered pairs."""
        n = len(self._nodes)
        return self._total / (n * (n - 1))

    def distance(self, u: NodeId, v: NodeId) -> int:
        """Current hop distance between two switches."""
        try:
            i, j = self._index[u], self._index[v]
        except KeyError as exc:
            raise TopologyError(f"switch {exc.args[0]!r} does not exist")
        return int(self._dist[i, j])

    def distances(self) -> dict:
        """Mapping node -> {node -> hop distance} (matches metrics.paths)."""
        return {
            u: {
                v: int(self._dist[i, j])
                for j, v in enumerate(self._nodes)
            }
            for i, u in enumerate(self._nodes)
        }

    # ------------------------------------------------------------------
    # Swap evaluation
    # ------------------------------------------------------------------
    def evaluate(self, swap: DoubleEdgeSwap) -> SwapEvaluation:
        """Evaluate ``swap`` against the current graph without mutating it.

        Raises :class:`TopologyError` when the swap is structurally invalid
        for the current graph (missing removed links, present added links,
        repeated endpoints).
        """
        try:
            a, b, c, d = (self._index[v] for v in swap.touched())
        except KeyError as exc:
            raise TopologyError(f"switch {exc.args[0]!r} does not exist")
        if len({a, b, c, d}) < 4:
            raise TopologyError(f"swap endpoints must be distinct: {swap}")
        adj = self._adjacency
        if not (adj[a, b] and adj[c, d]):
            raise TopologyError(f"swap removes a missing link: {swap}")
        if adj[a, d] or adj[c, b]:
            raise TopologyError(f"swap adds an existing link: {swap}")

        n = len(self._nodes)
        adj_new = adj.copy()
        adj_new[a, b] = adj_new[b, a] = 0.0
        adj_new[c, d] = adj_new[d, c] = 0.0
        adj_new[a, d] = adj_new[d, a] = 1.0
        adj_new[c, b] = adj_new[b, c] = 1.0

        dist = self._dist
        affected = (np.abs(dist[:, a] - dist[:, b]) == 1) | (
            np.abs(dist[:, c] - dist[:, d]) == 1
        )
        affected[[a, b, c, d]] = True
        rows = np.flatnonzero(affected)
        repaired = _bfs_rows(adj_new, rows)
        if int(repaired.max()) >= n:
            return SwapEvaluation(
                swap=swap,
                connected=False,
                total_distance=-1,
                aspl=float("inf"),
                rows_recomputed=len(rows),
            )
        dist_new = dist.copy()
        dist_new[rows] = repaired
        # Exact relaxation of the untouched rows through the added edges,
        # using the endpoint rows just recomputed (see module docstring).
        for u, v in ((a, d), (c, b)):
            row_u = dist_new[u]
            row_v = dist_new[v]
            np.minimum(
                dist_new, row_u[:, None] + (row_v + 1)[None, :], out=dist_new
            )
            np.minimum(
                dist_new, row_v[:, None] + (row_u + 1)[None, :], out=dist_new
            )
        total = int(dist_new.sum())
        return SwapEvaluation(
            swap=swap,
            connected=True,
            total_distance=total,
            aspl=total / (n * (n - 1)),
            rows_recomputed=len(rows),
            _dist=dist_new,
            _adjacency=adj_new,
        )

    def commit(self, evaluation: SwapEvaluation) -> None:
        """Adopt a previously evaluated swap as the current state.

        Evaluations are only valid against the graph they were computed
        from; commit them before evaluating further swaps.
        """
        if not evaluation.connected:
            raise TopologyError(
                f"cannot commit disconnecting swap {evaluation.swap}"
            )
        if evaluation._dist is None or evaluation._adjacency is None:
            raise TopologyError("evaluation is missing its repaired state")
        self._dist = evaluation._dist
        self._adjacency = evaluation._adjacency
        self._total = evaluation.total_distance

    def apply(self, swap: DoubleEdgeSwap) -> SwapEvaluation:
        """Evaluate ``swap`` and commit it if it keeps the network connected.

        Returns the evaluation either way; check ``connected`` to learn
        whether the state advanced.
        """
        evaluation = self.evaluate(swap)
        if evaluation.connected:
            self.commit(evaluation)
        return evaluation
