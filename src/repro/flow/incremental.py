"""Reusable max-concurrent-flow LP models for swap-adjacent instances.

:mod:`repro.flow.edge_lp` rebuilds its sparse constraint system on every
call — the right trade for one-off solves, and exactly the wrong one for
the annealing and growth inner loops, which solve thousands of instances
that differ from their predecessor by a single double edge swap.

:class:`EdgeLPModel` assembles the arc-based LP **once** per (topology
structure, traffic structure) and then mutates it in place per swap:

- Conservation uses the *full-row* formulation — one equality row per
  (commodity, node), including the source row (redundant but harmless:
  presolve drops it). With the source row present every arc column has
  exactly two nonzeros (+1 at its head row, -1 at its tail row), so the
  CSC arrays have a fixed layout: column ``c = k * num_arcs + j`` owns
  data/index slots ``[2c, 2c + 2)`` forever. A double edge swap rewires
  the head or tail of 4 arc slots, which is a vectorized write of
  ``4 * num_commodities`` row indices — no reallocation, no re-sort.
- The throughput column (demand terms), the capacity block, bounds and
  objective never change under degree-preserving swaps: capacities travel
  with the arc slot exactly as :class:`~repro.topology.mutation.
  DoubleEdgeSwap` specifies (``(a, d)`` inherits the capacity of
  ``(a, b)``).

Cold solves default to ``method="highs-ipm"`` (interior point +
crossover), which on the anneal-scale instances measured in
``BENCH_solvers.json`` is ~10x faster than the default simplex with optima
agreeing to machine precision; the differential test matrix pins
mutated-model optima to cold :func:`~repro.flow.edge_lp.max_concurrent_flow`
solves at 1e-9.

The model keeps the HiGHS basis of its last optimal solve. A demand delta
changes only the throughput column, so the next solve restarts dual
simplex from that basis (through the basis-aware
:func:`repro.flow.highs.linprog`), several times faster than a cold
interior-point solve on replay windows. A swap rewires
``4 * num_commodities`` arc columns, which leaves the old basis a poor
start, so :meth:`~EdgeLPModel.apply_swap` drops it and the next solve is
cold again. :func:`model_stats` exposes the counters.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import FlowError, SolverError
from repro.flow.edge_lp import _aggregate_by_source
from repro.flow.highs import linprog
from repro.flow.result import ThroughputResult
from repro.topology.base import Topology
from repro.topology.mutation import DoubleEdgeSwap
from repro.traffic.base import TrafficMatrix

#: LP algorithm of a solve without a basis (a fresh model, or one after a
#: swap). Interior point with crossover returns a basic optimal solution
#: like simplex does, several times faster on the multi-commodity
#: instances this module exists for.
DEFAULT_METHOD = "highs-ipm"

#: LP algorithm of a solve that starts from the previous basis. HiGHS
#: ignores a starting basis under interior point.
WARM_METHOD = "highs-ds"

_STATS = {
    "built": 0,
    "solves": 0,
    "swaps": 0,
    "demand_deltas": 0,
}


def model_stats() -> dict:
    """Counters since the last reset: built / solves / swaps /
    demand_deltas."""
    return dict(_STATS)


def reset_model_stats() -> None:
    """Zero the counters."""
    for key in _STATS:
        _STATS[key] = 0


class EdgeLPModel:
    """One assembled max-concurrent-flow LP, mutable under edge swaps.

    Parameters
    ----------
    topo:
        Connected network whose structure seeds the model. The model
        keeps its own arc bookkeeping; later swaps are applied through
        :meth:`apply_swap`, not by mutating ``topo``.
    traffic:
        Demand matrix. Commodities are aggregated by source switch (the
        proven-equivalent compression of :mod:`repro.flow.edge_lp`).
    method:
        HiGHS method (``highs``, ``highs-ds`` or ``highs-ipm``) of a solve
        without a starting basis: the first solve, and the first after a
        swap. A solve after a demand delta restarts :data:`WARM_METHOD`
        from the previous basis whatever ``method`` is.
    """

    def __init__(
        self,
        topo: Topology,
        traffic: TrafficMatrix,
        method: str = DEFAULT_METHOD,
        sources: "str | None" = None,
    ) -> None:
        traffic.validate_against(topo.switches)
        if not traffic.demands:
            raise FlowError("traffic matrix has no network demands")
        arcs = topo.arcs()
        if not arcs:
            raise FlowError("topology has no links")
        if sources not in (None, "all"):
            raise FlowError(f"sources must be None or 'all', got {sources!r}")
        self.method = method
        self.name = f"{topo.name}/{traffic.name}"
        # HiGHS basis of the last optimal solve; None forces a cold solve.
        self._basis = None
        self.num_swaps = 0
        self.num_solves = 0
        self.num_demand_deltas = 0

        nodes = topo.switches
        self._node_index = {node: i for i, node in enumerate(nodes)}
        self._nodes = list(nodes)
        num_nodes = len(nodes)
        commodities = _aggregate_by_source(traffic)
        if sources == "all":
            # One commodity per switch, demand or not: zero-demand
            # commodities cost columns but keep the fixed layout valid for
            # *any* later demand delta (a new source just fills its slot).
            by_source = dict(commodities)
            commodities = [
                (node, by_source.get(node, {}))
                for node in sorted(nodes, key=repr)
            ]
        self._sources_mode = sources
        num_arcs = len(arcs)
        num_commodities = len(commodities)
        self._num_nodes = num_nodes
        self._num_arcs = num_arcs
        self._num_commodities = num_commodities
        num_vars = num_commodities * num_arcs + 1
        self._t_col = num_vars - 1

        # Arc slots: slot j holds directed arc (tail[j], head[j]) with a
        # capacity that never moves — swaps rewrite endpoints in place.
        self._arc_tail = np.fromiter(
            (self._node_index[u] for u, _, _ in arcs),
            dtype=np.int64,
            count=num_arcs,
        )
        self._arc_head = np.fromiter(
            (self._node_index[v] for _, v, _ in arcs),
            dtype=np.int64,
            count=num_arcs,
        )
        self._capacities = np.fromiter(
            (cap for _, _, cap in arcs), dtype=np.float64, count=num_arcs
        )
        self._arc_slot = {
            (u, v): j for j, (u, v, _) in enumerate(arcs)
        }

        # Full-row conservation in fixed-layout CSC arrays. Arc column
        # c = k * num_arcs + j occupies slots [2c, 2c+2): head row (+1)
        # then tail row (-1). The trailing throughput column carries the
        # demand terms (-units at dest rows) and +total_demand at each
        # source row (flow out of the source equals t * its demand).
        commodity_base = (
            np.arange(num_commodities, dtype=np.int64) * num_nodes
        )
        head_rows = commodity_base[:, None] + self._arc_head[None, :]
        tail_rows = commodity_base[:, None] + self._arc_tail[None, :]
        arc_indices = np.empty((num_commodities, num_arcs, 2), dtype=np.int64)
        arc_indices[:, :, 0] = head_rows
        arc_indices[:, :, 1] = tail_rows
        arc_data = np.empty(num_commodities * num_arcs * 2, dtype=np.float64)
        arc_data[0::2] = 1.0
        arc_data[1::2] = -1.0

        for source, dests in commodities:
            if source in dests:
                raise FlowError("a commodity demands traffic to itself")
        self._commodity_sources = [source for source, _ in commodities]
        self._commodity_index = {
            source: k for k, (source, _) in enumerate(commodities)
        }
        self._commodity_dests = [dict(dests) for _, dests in commodities]

        self._arc_nnz = 2 * num_commodities * num_arcs
        self._eq_indices = arc_indices.reshape(-1)
        self._eq_data = arc_data
        self._eq_indptr = np.empty(num_vars + 1, dtype=np.int64)
        self._eq_indptr[: num_vars] = np.arange(
            0, 2 * num_commodities * num_arcs + 1, 2, dtype=np.int64
        )
        self._eq_indptr[num_vars] = self._eq_indptr[num_vars - 1]
        self._num_eq_rows = num_commodities * num_nodes
        self._b_eq = np.zeros(self._num_eq_rows)
        self._rebuild_t_column()

        # Capacity block: sum over commodities of flow on arc slot j <=
        # capacity(j). Column-to-row pattern is layout-only; b_ub moves
        # with the slots, i.e. never.
        ub_rows = np.tile(
            np.arange(num_arcs, dtype=np.int64), num_commodities
        )
        ub_cols = np.arange(num_commodities * num_arcs, dtype=np.int64)
        self._a_ub = sparse.coo_matrix(
            (
                np.ones(num_commodities * num_arcs),
                (ub_rows, ub_cols),
            ),
            shape=(num_arcs, num_vars),
        ).tocsr()

        self._objective = np.zeros(num_vars)
        self._objective[self._t_col] = -1.0
        self.total_demand = float(traffic.total_demand)
        _STATS["built"] += 1

    # ------------------------------------------------------------------
    # Introspection used by the property tests
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """(equality rows, variables) of the conservation block."""
        return (self._num_eq_rows, self._t_col + 1)

    @property
    def nnz(self) -> int:
        """Nonzero count of the conservation block (invariant under swaps)."""
        return len(self._eq_data)

    def arcs(self) -> list:
        """Current directed arcs ``(u, v, capacity)`` in slot order."""
        return [
            (self._nodes[int(t)], self._nodes[int(h)], float(c))
            for t, h, c in zip(self._arc_tail, self._arc_head, self._capacities)
        ]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_swap(self, swap: DoubleEdgeSwap) -> None:
        """Rewire the model for ``swap`` in place (O(num_commodities)).

        Both directed arcs of each swapped link move: ``(a, b)`` becomes
        ``(a, d)`` (head rewrite), ``(b, a)`` becomes ``(d, a)`` (tail
        rewrite), and symmetrically for ``(c, d)``. Raises
        :class:`FlowError` when the swap does not fit the current arc set
        (missing removed link or already-present added link), leaving the
        model untouched.

        The swap drops the kept basis, so the next solve is cold: after
        ``4 * num_commodities`` arc columns move, restarting simplex from
        it is slower than a cold interior-point solve.
        """
        a, b, c, d = swap.a, swap.b, swap.c, swap.d
        for u, v in swap.removed:
            if (u, v) not in self._arc_slot:
                raise FlowError(f"swap removes missing arc ({u!r}, {v!r})")
        for u, v in swap.added:
            if (u, v) in self._arc_slot:
                raise FlowError(f"swap adds existing arc ({u!r}, {v!r})")
        # (endpoint-kind, old pair, new pair, replacement node)
        moves = (
            ("head", (a, b), (a, d), d),
            ("tail", (b, a), (d, a), d),
            ("head", (c, d), (c, b), b),
            ("tail", (d, c), (b, c), b),
        )
        num_arcs = self._num_arcs
        strides = (
            np.arange(self._num_commodities, dtype=np.int64)
            * (2 * num_arcs)
        )
        commodity_rows = (
            np.arange(self._num_commodities, dtype=np.int64) * self._num_nodes
        )
        for kind, old, new, node in moves:
            j = self._arc_slot.pop(old)
            self._arc_slot[new] = j
            node_idx = self._node_index[node]
            if kind == "head":
                self._arc_head[j] = node_idx
                self._eq_indices[strides + 2 * j] = commodity_rows + node_idx
            else:
                self._arc_tail[j] = node_idx
                self._eq_indices[strides + 2 * j + 1] = (
                    commodity_rows + node_idx
                )
        self._basis = None
        self.num_swaps += 1
        _STATS["swaps"] += 1

    def _rebuild_t_column(self) -> None:
        """Regenerate the throughput column's CSC tail from demand state.

        The t-column is the *last* CSC column, so its entries are the tail
        of ``_eq_data`` / ``_eq_indices`` — regenerating it touches no arc
        slot and costs O(demand pairs + commodities), tiny next to a solve.
        """
        num_nodes = self._num_nodes
        dest_commodity = np.fromiter(
            (
                k
                for k, dests in enumerate(self._commodity_dests)
                for _ in dests
            ),
            dtype=np.int64,
        )
        dest_nodes = np.fromiter(
            (
                self._node_index[v]
                for dests in self._commodity_dests
                for v in dests
            ),
            dtype=np.int64,
            count=len(dest_commodity),
        )
        dest_units = np.fromiter(
            (
                units
                for dests in self._commodity_dests
                for units in dests.values()
            ),
            dtype=np.float64,
            count=len(dest_commodity),
        )
        src_rows = np.fromiter(
            (
                k * num_nodes + self._node_index[source]
                for k, source in enumerate(self._commodity_sources)
            ),
            dtype=np.int64,
            count=self._num_commodities,
        )
        src_totals = np.zeros(self._num_commodities)
        np.add.at(src_totals, dest_commodity, dest_units)
        t_rows = np.concatenate(
            (dest_commodity * num_nodes + dest_nodes, src_rows)
        )
        t_vals = np.concatenate((-dest_units, src_totals))
        t_order = np.argsort(t_rows, kind="stable")
        arc_nnz = self._arc_nnz
        self._eq_indices = np.concatenate(
            (self._eq_indices[:arc_nnz], t_rows[t_order])
        )
        self._eq_data = np.concatenate(
            (self._eq_data[:arc_nnz], t_vals[t_order])
        )
        self._eq_indptr[self._t_col + 1] = arc_nnz + len(t_rows)

    def apply_demand_delta(self, delta) -> None:
        """Fold a :class:`~repro.traffic.timeline.DemandDelta` in place.

        Only the throughput column (the CSC tail) and ``total_demand``
        change — arc columns, the capacity block, bounds, and objective
        are untouched, mirroring :meth:`apply_swap`'s slot discipline.
        Reverting is ``apply_demand_delta(delta.inverse())``. The kept
        basis survives, so the next solve restarts from it.

        A delta whose source has no commodity slot raises
        :class:`FlowError` unless the model was built with
        ``sources="all"`` (one commodity per switch, so every source has
        a slot); callers fall back to a cold rebuild in that case. The
        model is left untouched on any validation failure.
        """
        from repro.traffic.timeline import ZERO_DEMAND_TOLERANCE

        pending: dict = {}
        total_change = 0.0
        for (u, v), units in delta.changes:
            k = self._commodity_index.get(u)
            if k is None:
                if u not in self._node_index:
                    raise FlowError(
                        f"delta source {u!r} is not a switch in the model"
                    )
                raise FlowError(
                    f"delta adds new source {u!r}; only models built with "
                    "sources='all' can warm-start new sources — rebuild cold"
                )
            if v not in self._node_index:
                raise FlowError(
                    f"delta destination {v!r} is not a switch in the model"
                )
            key = (k, v)
            current = pending.get(key)
            if current is None:
                current = self._commodity_dests[k].get(v, 0.0)
            new_units = current + units
            if new_units < -ZERO_DEMAND_TOLERANCE:
                raise FlowError(
                    f"delta {delta.label!r} drives demand for ({u!r}, {v!r}) "
                    f"negative ({new_units})"
                )
            pending[key] = new_units
            total_change += units
        if self.total_demand + total_change <= ZERO_DEMAND_TOLERANCE:
            raise FlowError(
                f"delta {delta.label!r} leaves no network demand to solve"
            )
        for (k, v), new_units in pending.items():
            if abs(new_units) <= ZERO_DEMAND_TOLERANCE:
                self._commodity_dests[k].pop(v, None)
            else:
                self._commodity_dests[k][v] = new_units
        self.total_demand = float(
            sum(sum(dests.values()) for dests in self._commodity_dests)
        )
        self._rebuild_t_column()
        self.num_demand_deltas += 1
        _STATS["demand_deltas"] += 1

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> float:
        """Optimal concurrent throughput of the current instance."""
        return float(self._solution()[self._t_col])

    def solve_result(self) -> ThroughputResult:
        """Full :class:`ThroughputResult` for the current instance."""
        solution = self._solution()
        throughput = float(solution[self._t_col])
        per_arc = (
            solution[: self._t_col]
            .reshape(self._num_commodities, self._num_arcs)
            .sum(axis=0)
        )
        arc_pairs = [
            (self._nodes[int(t)], self._nodes[int(h)])
            for t, h in zip(self._arc_tail, self._arc_head)
        ]
        return ThroughputResult(
            throughput=throughput,
            arc_flows=dict(zip(arc_pairs, map(float, per_arc))),
            arc_capacities=dict(zip(arc_pairs, map(float, self._capacities))),
            total_demand=self.total_demand,
            solver="edge-lp-incremental",
            exact=True,
        )

    def _solution(self) -> np.ndarray:
        a_eq = sparse.csc_matrix(
            (self._eq_data, self._eq_indices, self._eq_indptr),
            shape=(self._num_eq_rows, self._t_col + 1),
        )
        method = self.method if self._basis is None else WARM_METHOD
        outcome = linprog(
            self._objective,
            A_ub=self._a_ub,
            b_ub=self._capacities,
            A_eq=a_eq,
            b_eq=self._b_eq,
            bounds=(0, None),
            method=method,
            basis=self._basis,
        )
        if not outcome.success:
            raise SolverError(
                f"HiGHS ({method}) failed on {self.name!r}: {outcome.message}"
            )
        self._basis = outcome.basis
        self.num_solves += 1
        _STATS["solves"] += 1
        return np.asarray(outcome.x)
