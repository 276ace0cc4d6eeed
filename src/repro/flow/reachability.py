"""Unreachable-demand policy shared by every flow backend.

On an intact fabric every demand pair has a path and the policy is moot.
On a degraded fabric (see :mod:`repro.resilience`) a demand can become
unroutable two ways: its endpoint switch failed (it is no longer in the
topology), or the fabric partitioned and the endpoints sit in different
components. Every solver accepts an ``unreachable`` keyword choosing what
to do about it:

- ``"error"`` (default): raise :class:`~repro.exceptions.FlowError` — the
  historical behavior, appropriate when a partition indicates a bug in
  the experiment rather than a scenario under study;
- ``"drop"``: remove the unroutable pairs, solve concurrent flow over the
  *served* demand set, and report the dropped pairs (and their demand
  units) on the :class:`~repro.flow.result.ThroughputResult`.

Note that under ``"drop"`` the reported throughput concerns only the
served pairs — dropping a demand can *raise* the concurrent rate of the
survivors. Compare ``served_fraction`` alongside ``throughput`` when
reading degraded-fabric results.
"""

from __future__ import annotations

from repro.exceptions import FlowError
from repro.flow.result import ThroughputResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix

#: Accepted values for the solvers' ``unreachable`` keyword.
UNREACHABLE_POLICIES = ("error", "drop")


def split_unreachable_demands(
    topo: Topology, traffic: TrafficMatrix
) -> "tuple[TrafficMatrix, tuple]":
    """Partition ``traffic`` into (served matrix, dropped pair tuple).

    A pair is dropped when either endpoint is missing from ``topo`` or the
    endpoints lie in different connected components. Dropped pairs are
    returned in canonical (repr-sorted) order. Flow-count bookkeeping
    (``num_flows``/``num_local_flows``) describes the *offered* workload
    and is kept unchanged on the served matrix.
    """
    labels = dict(zip(topo.switches, topo.component_labels().tolist()))
    served: dict = {}
    dropped: list = []
    for (u, v), units in traffic.demands.items():
        cu = labels.get(u)
        cv = labels.get(v)
        if cu is None or cv is None or cu != cv:
            dropped.append((u, v))
        else:
            served[(u, v)] = units
    if not dropped:
        return traffic, ()
    dropped.sort(key=lambda pair: (repr(pair[0]), repr(pair[1])))
    served_tm = TrafficMatrix(
        name=f"{traffic.name}|served",
        demands=served,
        num_flows=traffic.num_flows,
        num_local_flows=traffic.num_local_flows,
        server_pairs=traffic.server_pairs,
    )
    return served_tm, tuple(dropped)


def resolve_unreachable(
    topo: Topology, traffic: TrafficMatrix, unreachable: str
) -> "tuple[TrafficMatrix, tuple, float]":
    """Apply the unreachable policy before a solve.

    Returns ``(traffic to solve, dropped pairs, dropped demand units)``.
    Under ``"error"`` the first unroutable pair raises; under ``"drop"``
    the served matrix may be empty — callers then short-circuit to
    :func:`unserved_result` instead of invoking the engine.
    """
    if unreachable not in UNREACHABLE_POLICIES:
        known = ", ".join(UNREACHABLE_POLICIES)
        raise FlowError(
            f"unknown unreachable policy {unreachable!r}; known: {known}"
        )
    served, dropped = split_unreachable_demands(topo, traffic)
    if dropped and unreachable == "error":
        u, v = dropped[0]
        for endpoint in (u, v):
            if not topo.has_switch(endpoint):
                raise FlowError(
                    f"demand endpoint {endpoint!r} is not a switch in "
                    f"{topo.name!r}; pass unreachable='drop' to solve over "
                    "the served demand set"
                )
        raise FlowError(
            f"demand {u!r}->{v!r} has no path in {topo.name!r} "
            f"({len(dropped)} unroutable pair(s)); pass unreachable='drop' "
            "to solve over the served demand set"
        )
    dropped_demand = float(
        sum(traffic.demands[pair] for pair in dropped)
    )
    return served, dropped, dropped_demand


def unserved_result(
    topo: Topology,
    solver: str,
    dropped: tuple,
    dropped_demand: float,
    exact: bool = True,
) -> ThroughputResult:
    """Zero-throughput result for a fabric that serves no demand at all.

    Used by every backend when ``unreachable="drop"`` leaves the served
    set empty (e.g. the traffic sources all sat on failed switches):
    the solve is vacuous, throughput over the served set is reported as
    0.0, and the full demand shows up as dropped.
    """
    caps = {(u, v): float(cap) for u, v, cap in topo.arcs()}
    return ThroughputResult(
        throughput=0.0,
        arc_flows={},
        arc_capacities=caps,
        total_demand=0.0,
        solver=solver,
        exact=exact,
        dropped_pairs=tuple(dropped),
        dropped_demand=dropped_demand,
    )
