"""Exact max concurrent flow via an arc-based linear program.

This replaces the paper's CPLEX runs with HiGHS, called through
:func:`repro.flow.highs.linprog`. The model is the standard maximum
concurrent multi-commodity flow LP:

    maximize    t
    subject to  flow conservation per commodity group and node,
                sum of flows on every arc <= its capacity,
                each pair (u, v) with demand d receives t * d.

Commodities are *aggregated by source switch*: for concurrent flow with a
shared scale factor ``t``, all demands out of one source can share a flow
variable per arc, which shrinks the LP by a factor of ~#switches relative
to per-pair commodities without changing the optimum. The ablation
benchmark ``bench_ablation_aggregation`` verifies the equivalence
empirically; tests verify it exactly on small instances.

:func:`_assemble` is the only code that builds this LP and
:func:`_extract` the only code that reads its solution;
:class:`repro.flow.incremental.EdgeLPModel` solves through both.

Every cold solve runs :data:`DEFAULT_METHOD`, interior point with
crossover. Its optimum is the simplex optimum to machine precision, but
an LP with many optima may return a different optimal *flow*, and
utilization, stretch and path decompositions depend on which one.
:func:`min_hop_flow` picks the canonical one, the optimal flow of least
total volume, for the callers that read flows; throughput-only callers
skip it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import FlowError, SolverError
from repro.flow.highs import linprog
from repro.flow.reachability import resolve_unreachable, unserved_result
from repro.flow.result import ThroughputResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix

#: LP algorithm of every solve without a starting basis. Interior point
#: with crossover returns a basic optimal solution like simplex does,
#: several times faster on the multi-commodity instances sweeps run (see
#: ``docs/performance.md``), but not necessarily the same optimal flow.
DEFAULT_METHOD = "highs-ipm"


def max_concurrent_flow(
    topo: Topology,
    traffic: TrafficMatrix,
    aggregate_by_source: bool = True,
    keep_commodity_flows: bool = False,
    unreachable: str = "error",
    method: str = DEFAULT_METHOD,
) -> ThroughputResult:
    """Solve the exact max concurrent flow problem.

    Parameters
    ----------
    topo:
        The network. Every demand endpoint must be a switch in it.
    traffic:
        Switch-level demand matrix. Must contain at least one network
        demand.
    aggregate_by_source:
        Use one commodity per source switch (default, recommended). Setting
        ``False`` builds one commodity per demand pair — up to N - 1 times
        as many commodities on N switches, same optimum; retained for the
        aggregation ablation.
    keep_commodity_flows:
        Also record per-commodity arc flows on the result (keyed by source
        switch). Required by exact path decomposition
        (:mod:`repro.flow.path_decomposition`); costs O(commodities x arcs)
        memory and a second solve by ``method``: the flows are the
        least-volume optimum of :func:`min_hop_flow`, which carries no
        flow around cycles.
    unreachable:
        Policy for demands with no path (degraded fabrics): ``"error"``
        raises, ``"drop"`` solves over the served demand set and records
        the dropped pairs on the result. See
        :mod:`repro.flow.reachability`.
    method:
        HiGHS algorithm passed to :func:`repro.flow.highs.linprog`. The
        default :data:`DEFAULT_METHOD` (interior point with crossover)
        and ``"highs"`` (simplex) reach the same optimum to machine
        precision, but may return different optimal flows.

    Returns
    -------
    ThroughputResult
        With per-arc flows summed over commodities; ``exact=True``.
    """
    traffic, dropped, dropped_demand = resolve_unreachable(
        topo, traffic, unreachable
    )
    if dropped and not traffic.demands:
        return unserved_result(
            topo, "edge-lp", dropped, dropped_demand, exact=True
        )
    traffic.validate_against(topo.switches)
    if not traffic.demands:
        raise FlowError("traffic matrix has no network demands")

    arcs = topo.arcs()
    if not arcs:
        raise FlowError("topology has no links")
    if aggregate_by_source:
        commodities = _aggregate_by_source(traffic)
    else:
        commodities = [
            (u, {v: units}) for (u, v), units in sorted(
                traffic.demands.items(), key=lambda kv: (repr(kv[0][0]), repr(kv[0][1]))
            )
        ]
    lp, arc_pairs, capacities = _lp(topo, arcs, commodities)
    solution = _solve(lp, topo, traffic, method)
    if keep_commodity_flows:
        # Path peeling discards flow that circulates; the least-volume
        # optimum carries none.
        solution = _solve(_min_hop_lp(lp, solution[-1]), topo, traffic, method)
    result = _extract(
        solution,
        arc_pairs,
        capacities,
        commodities,
        traffic.total_demand,
        solver="edge-lp",
        keep_commodity_flows=keep_commodity_flows,
    )
    result.dropped_pairs = tuple(dropped)
    result.dropped_demand = dropped_demand
    return result


def min_hop_flow(
    topo: Topology, traffic: TrafficMatrix, result: ThroughputResult
) -> ThroughputResult:
    """The least-volume flow that achieves ``result.throughput``.

    The §6.1 identity ``t = C * U / (<D> * AS * f)`` holds for any
    feasible flow, and an exact LP has many optimal ones, so utilization
    ``U`` and stretch ``AS`` are defined only once the flow is. This
    second stage fixes ``t`` at ``result.throughput`` and minimizes the
    total flow over all arcs (flow-hops), which gives every optimal
    ``result`` the same ``U`` and ``AS`` and leaves no flow on cycles.
    It costs about one more cold solve, so only callers that read flows
    run it.

    The returned result keeps ``result``'s throughput bit for bit and its
    dropped pairs, and carries per-commodity flows (keyed by source
    switch) for :func:`~repro.flow.path_decomposition.decompose_commodity_flows`.
    Raises :class:`SolverError` when HiGHS fails.
    """
    if result.dropped_pairs:
        traffic, _, _ = resolve_unreachable(topo, traffic, "drop")
    commodities = _aggregate_by_source(traffic)
    lp, arc_pairs, capacities = _lp(topo, topo.arcs(), commodities)
    flow = _extract(
        _solve(_min_hop_lp(lp, result.throughput), topo, traffic),
        arc_pairs,
        capacities,
        commodities,
        traffic.total_demand,
        solver=result.solver,
        keep_commodity_flows=True,
    )
    flow.dropped_pairs = result.dropped_pairs
    flow.dropped_demand = result.dropped_demand
    return flow


def _lp(topo: Topology, arcs: list, commodities: list) -> tuple:
    """``(LP, arc pairs, capacities)`` of ``commodities`` over ``topo``'s
    ``(u, v, capacity)`` arcs."""
    node_index = {node: i for i, node in enumerate(topo.switches)}
    arc_tail, arc_head, capacities = _arc_arrays(arcs, node_index)
    lp = _assemble(node_index, arc_tail, arc_head, capacities, commodities)
    return lp, [(u, v) for u, v, _ in arcs], capacities


def _min_hop_lp(lp: dict, throughput: float) -> dict:
    """``lp`` with ``t`` fixed at ``throughput``, minimizing total flow."""
    cost = np.ones(len(lp["c"]))
    cost[-1] = 0.0
    bounds = np.zeros((len(cost), 2))
    bounds[:-1, 1] = np.inf
    bounds[-1] = throughput
    return {**lp, "c": cost, "bounds": bounds}


def _solve(
    lp: dict, topo: Topology, traffic: TrafficMatrix, method: str = DEFAULT_METHOD
) -> np.ndarray:
    """Optimal solution of ``lp``; raises :class:`SolverError` on failure."""
    outcome = linprog(**lp, method=method)
    if not outcome.success:
        raise SolverError(
            f"HiGHS failed on {topo.name!r} / {traffic.name!r}: {outcome.message}"
        )
    return outcome.x


def _aggregate_by_source(traffic: TrafficMatrix) -> list[tuple]:
    """Group demands into one commodity per source switch."""
    by_source: dict = {}
    for (u, v), units in traffic.demands.items():
        by_source.setdefault(u, {})[v] = units
    return sorted(by_source.items(), key=lambda kv: repr(kv[0]))


def _arc_arrays(arcs: list, node_index: dict) -> tuple:
    """``(tail, head, capacities)`` of ``(u, v, capacity)`` arcs, in arc
    order: node indices as int64, capacities as float64."""
    num_arcs = len(arcs)
    arc_tail = np.fromiter(
        (node_index[u] for u, _, _ in arcs), dtype=np.int64, count=num_arcs
    )
    arc_head = np.fromiter(
        (node_index[v] for _, v, _ in arcs), dtype=np.int64, count=num_arcs
    )
    capacities = np.fromiter(
        (cap for _, _, cap in arcs), dtype=np.float64, count=num_arcs
    )
    return arc_tail, arc_head, capacities


def _assemble(
    node_index: dict,
    arc_tail: np.ndarray,
    arc_head: np.ndarray,
    capacities: np.ndarray,
    commodities: list,
) -> dict:
    """The LP as :func:`linprog` keyword arguments (all but ``method``).

    Arc slot ``j`` runs from node ``arc_tail[j]`` to ``arc_head[j]``
    (indices into ``node_index``) with capacity ``capacities[j]``;
    ``commodities`` is ``[(source, {dest: units})]``. Variable
    ``k * num_arcs + j`` is commodity ``k``'s flow on slot ``j``, and the
    last variable is the throughput ``t``.
    """
    num_nodes = len(node_index)
    num_arcs = len(arc_tail)
    num_commodities = len(commodities)
    num_vars = num_commodities * num_arcs + 1  # + throughput variable t
    t_col = num_vars - 1

    # Equality rows: conservation for every commodity at every node except
    # the commodity's source (the source row is implied by the others).
    # Assembled as one vectorized COO batch over all commodities at once:
    # node_rows[k, i] maps node i to its conservation row for commodity k
    # (-1 at the skipped source row).
    num_eq_rows = num_commodities * (num_nodes - 1)
    src_idx = np.fromiter(
        (node_index[source] for source, _ in commodities),
        dtype=np.int64,
        count=num_commodities,
    )
    node_ids = np.arange(num_nodes, dtype=np.int64)
    row_base = (np.arange(num_commodities, dtype=np.int64) * (num_nodes - 1))[
        :, None
    ]
    node_rows = row_base + node_ids[None, :] - (node_ids[None, :] > src_idx[:, None])
    node_rows[np.arange(num_commodities), src_idx] = -1
    arc_cols = (
        np.arange(num_commodities, dtype=np.int64)[:, None] * num_arcs
        + np.arange(num_arcs, dtype=np.int64)[None, :]
    )

    head_rows = node_rows[:, arc_head]
    head_mask = head_rows >= 0
    tail_rows = node_rows[:, arc_tail]
    tail_mask = tail_rows >= 0

    # Demand terms: inflow - outflow - t * demand(v) = 0 at each dest.
    dest_commodity = np.fromiter(
        (k for k, (_, dests) in enumerate(commodities) for _ in dests),
        dtype=np.int64,
    )
    dest_nodes = np.fromiter(
        (node_index[v] for _, dests in commodities for v in dests),
        dtype=np.int64,
        count=len(dest_commodity),
    )
    dest_units = np.fromiter(
        (units for _, dests in commodities for units in dests.values()),
        dtype=np.float64,
        count=len(dest_commodity),
    )
    dest_rows = node_rows[dest_commodity, dest_nodes]
    if np.any(dest_rows < 0):
        bad = commodities[int(dest_commodity[int(np.argmin(dest_rows))])][0]
        raise FlowError(f"commodity {bad!r} demands traffic to itself")

    a_eq = sparse.coo_matrix(
        (
            np.concatenate(
                (
                    np.ones(int(head_mask.sum())),
                    -np.ones(int(tail_mask.sum())),
                    -dest_units,
                )
            ),
            (
                np.concatenate((head_rows[head_mask], tail_rows[tail_mask], dest_rows)),
                np.concatenate(
                    (
                        arc_cols[head_mask],
                        arc_cols[tail_mask],
                        np.full(len(dest_rows), t_col, dtype=np.int64),
                    )
                ),
            ),
        ),
        shape=(num_eq_rows, num_vars),
    ).tocsr()

    # Capacity rows: sum over commodities of flow on arc a <= capacity(a).
    ub_rows = np.tile(np.arange(num_arcs, dtype=np.int64), num_commodities)
    ub_cols = np.arange(num_commodities * num_arcs, dtype=np.int64)
    a_ub = sparse.coo_matrix(
        (np.ones(num_commodities * num_arcs), (ub_rows, ub_cols)),
        shape=(num_arcs, num_vars),
    ).tocsr()

    objective = np.zeros(num_vars)
    objective[t_col] = -1.0  # linprog minimizes
    return {
        "c": objective,
        "A_ub": a_ub,
        "b_ub": capacities,
        "A_eq": a_eq,
        "b_eq": np.zeros(num_eq_rows),
        "bounds": (0, None),
    }


def _extract(
    solution: np.ndarray,
    arc_pairs: list,
    capacities: np.ndarray,
    commodities: list,
    total_demand: float,
    solver: str,
    keep_commodity_flows: bool = False,
) -> ThroughputResult:
    """The :class:`ThroughputResult` of an optimal :func:`_assemble`
    solution; ``arc_pairs[j]`` is arc slot ``j`` as ``(u, v)``."""
    throughput = float(solution[-1])
    per_commodity = solution[:-1].reshape(len(commodities), len(arc_pairs))
    # Per-arc totals come from one vectorized reduction; the O(K x m)
    # per-commodity dict materialization below runs only when the caller
    # asked for it (exact path decomposition does, nothing else should).
    per_arc = per_commodity.sum(axis=0)
    commodity_flows = None
    if keep_commodity_flows:
        commodity_flows = {}
        for k, (source, _) in enumerate(commodities):
            row = per_commodity[k]
            nonzero = np.nonzero(row > 1e-12)[0]
            flows_k = {arc_pairs[a]: float(row[a]) for a in nonzero}
            # Per-pair commodities can repeat a source; merge their flows.
            if source in commodity_flows:
                merged = commodity_flows[source]
                for arc, value in flows_k.items():
                    merged[arc] = merged.get(arc, 0.0) + value
            else:
                commodity_flows[source] = flows_k
    return ThroughputResult(
        throughput=throughput,
        arc_flows=dict(zip(arc_pairs, map(float, per_arc))),
        arc_capacities=dict(zip(arc_pairs, map(float, capacities))),
        total_demand=total_demand,
        solver=solver,
        exact=True,
        commodity_flows=commodity_flows,
    )
