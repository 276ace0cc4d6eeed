"""Content fingerprints for topologies, traffic matrices, and solver configs.

The result cache is addressed by *what was actually solved*, not by how
the scenario was described: two grids that construct byte-identical
inputs share cache entries even if their specs differ (e.g. an ``rrg``
built by name vs. the same graph loaded from JSON). Fingerprints are
SHA-256 digests of canonical JSON renderings (see
:mod:`repro.util.hashing`).

Labels (topology/traffic ``name``) are deliberately excluded — they do not
affect the solve.
"""

from __future__ import annotations

from repro.flow.solvers import SolverConfig, get_solver
from repro.topology.base import Topology
from repro.topology.serialization import encode_node
from repro.traffic.base import TrafficMatrix
from repro.util.hashing import stable_digest


def topology_fingerprint(topo: Topology) -> str:
    """Digest of the topology's switches, servers, clusters, and links."""
    switches = sorted(
        (
            [
                encode_node(node),
                topo.servers_at(node),
                topo.cluster_of(node),
                topo.switch_type_of(node),
            ]
            for node in topo.switches
        ),
        key=lambda entry: str(entry[0]),
    )
    links = sorted(
        (
            [encode_node(link.u), encode_node(link.v), link.capacity]
            for link in topo.links
        ),
        key=lambda entry: (str(entry[0]), str(entry[1])),
    )
    return stable_digest({"switches": switches, "links": links})


def traffic_fingerprint(traffic: TrafficMatrix) -> str:
    """Digest of the switch-level demands and flow counts.

    ``server_pairs`` only matter to the packet simulator, never to the
    flow solvers, so they are excluded; two workloads with identical
    switch-level aggregation share throughput results.
    """
    demands = sorted(
        (
            [encode_node(u), encode_node(v), units]
            for (u, v), units in traffic.demands.items()
        ),
        key=lambda entry: (str(entry[0]), str(entry[1])),
    )
    return stable_digest(
        {
            "demands": demands,
            "num_flows": traffic.num_flows,
            "num_local_flows": traffic.num_local_flows,
        }
    )


def solver_fingerprint(config: SolverConfig) -> str:
    """Digest of a solver backend choice, its options and its revision.

    The backend's registered ``revision`` joins the digest only when it is
    nonzero, so a revision-0 backend keeps the key of its name and options
    alone (caches written before revisions existed still hit), while a
    bumped backend stops matching entries its older algorithm wrote.
    """
    payload = config.to_dict()
    revision = get_solver(config.name).revision
    if revision:
        payload["revision"] = revision
    return stable_digest(payload)


def result_key(
    topo_fp: str, traffic_fp: str, solver_fp: str
) -> str:
    """Content address of one solve: (topology, traffic, solver config)."""
    return stable_digest(
        {"topology": topo_fp, "traffic": traffic_fp, "solver": solver_fp}
    )
