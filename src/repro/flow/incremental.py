"""A reusable max-concurrent-flow LP model for demand-delta chains.

Trace replay solves runs of instances that differ from their
predecessor by one demand delta. :class:`EdgeLPModel` keeps the state
such a run shares: the arcs, the per-commodity demands and the HiGHS
basis of its last optimal solve. Every solve builds the LP from that
state through :mod:`repro.flow.edge_lp`'s assembly, so a model solves
exactly the LP :func:`~repro.flow.edge_lp.max_concurrent_flow` solves
for the same arcs and commodities; the rebuild is a few milliseconds
next to a solve.

A demand delta edits the per-commodity demands. The commodity set is
fixed when the model is built, so the LP keeps its rows and columns and
differs only in the throughput column. The next solve therefore
restarts dual simplex from the kept basis (through the basis-aware
:func:`repro.flow.highs.linprog`), several times faster than a cold
interior-point solve on replay windows. The first solve has no basis
and runs :data:`~repro.flow.edge_lp.DEFAULT_METHOD` (interior point
with crossover), the method of every cold
:func:`~repro.flow.edge_lp.max_concurrent_flow` solve.
:func:`model_stats` exposes the counters.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FlowError, SolverError
from repro.flow.edge_lp import (
    DEFAULT_METHOD,
    _aggregate_by_source,
    _arc_arrays,
    _assemble,
    _extract,
)
from repro.flow.highs import linprog
from repro.flow.result import ThroughputResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix

#: LP algorithm of a solve that starts from the previous basis. HiGHS
#: ignores a starting basis under interior point.
WARM_METHOD = "highs-ds"

_STATS = {
    "built": 0,
    "solves": 0,
    "demand_deltas": 0,
}


def model_stats() -> dict:
    """Counters since the last reset: built / solves / demand_deltas."""
    return dict(_STATS)


def reset_model_stats() -> None:
    """Zero the counters."""
    for key in _STATS:
        _STATS[key] = 0


class EdgeLPModel:
    """A max-concurrent-flow LP's state, mutable under demand deltas.

    Parameters
    ----------
    topo:
        Connected network. Its arcs are read once, when the model is
        built.
    traffic:
        Demand matrix. Commodities are aggregated by source switch (the
        proven-equivalent compression of :mod:`repro.flow.edge_lp`).
    method:
        HiGHS method (``highs``, ``highs-ds`` or ``highs-ipm``) of the
        first solve, which has no starting basis. Every later solve
        restarts :data:`WARM_METHOD` from the previous basis whatever
        ``method`` is.
    sources:
        ``None`` gives one commodity per demand source; ``"all"`` gives
        one per switch, so a later delta may add demand from any switch.
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
        self.num_demand_deltas = 0

        nodes = list(topo.switches)
        self._node_index = {node: i for i, node in enumerate(nodes)}
        commodities = _aggregate_by_source(traffic)
        if sources == "all":
            # One commodity per switch, demand or not: zero-demand
            # commodities cost columns but let any later demand delta
            # (a new source just fills its commodity) keep the LP's rows
            # and columns, and with them the kept basis.
            by_source = dict(commodities)
            commodities = [
                (node, by_source.get(node, {}))
                for node in sorted(nodes, key=repr)
            ]
        # Copied: demand deltas edit the demand dicts in place.
        self._commodities = [
            (source, dict(dests)) for source, dests in commodities
        ]
        self._commodity_index = {
            source: k for k, (source, _) in enumerate(self._commodities)
        }
        self._arc_pairs = [(u, v) for u, v, _ in arcs]
        self._arc_tail, self._arc_head, self._capacities = _arc_arrays(
            arcs, self._node_index
        )
        self.total_demand = float(traffic.total_demand)
        _STATS["built"] += 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_demand_delta(self, delta) -> None:
        """Fold a :class:`~repro.traffic.timeline.DemandDelta` in place.

        Only the per-commodity demands and ``total_demand`` change; the
        commodity set, and with it the LP's rows and columns, stays.
        Reverting is ``apply_demand_delta(delta.inverse())``. The kept
        basis survives, so the next solve restarts from it.

        A delta whose source has no commodity raises :class:`FlowError`
        unless the model was built with ``sources="all"`` (one commodity
        per switch, so every source has one); callers fall back to a cold
        rebuild in that case. The model is left untouched on any
        validation failure.
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
                current = self._commodities[k][1].get(v, 0.0)
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
            dests = self._commodities[k][1]
            if abs(new_units) <= ZERO_DEMAND_TOLERANCE:
                dests.pop(v, None)
            else:
                dests[v] = new_units
        self.total_demand = float(
            sum(sum(dests.values()) for _, dests in self._commodities)
        )
        self.num_demand_deltas += 1
        _STATS["demand_deltas"] += 1

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> float:
        """Optimal concurrent throughput of the current instance."""
        return float(self._solution()[-1])

    def solve_result(self) -> ThroughputResult:
        """Full :class:`ThroughputResult` for the current instance."""
        return _extract(
            self._solution(),
            self._arc_pairs,
            self._capacities,
            self._commodities,
            self.total_demand,
            solver="edge-lp-incremental",
        )

    def _solution(self) -> np.ndarray:
        method = self.method if self._basis is None else WARM_METHOD
        outcome = linprog(
            **_assemble(
                self._node_index,
                self._arc_tail,
                self._arc_head,
                self._capacities,
                self._commodities,
            ),
            method=method,
            basis=self._basis,
        )
        if not outcome.success:
            raise SolverError(
                f"HiGHS ({method}) failed on {self.name!r}: {outcome.message}"
            )
        self._basis = outcome.basis
        _STATS["solves"] += 1
        return outcome.x
