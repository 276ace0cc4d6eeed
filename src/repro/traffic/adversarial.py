"""Adversarial long-haul permutation traffic.

Random permutations are the paper's default; the hardest permutations pair
up *distant* servers so every flow burns maximal capacity (Theorem 1's
charging argument is tight exactly when flows travel far). This module
builds such a permutation greedily: repeatedly match the unmatched server
whose switch is farthest (on average) with the farthest available partner.

Useful as a stress workload beyond the paper's chunky pattern, and for
probing how close Theorem 1's bound can be pushed from below.
"""

from __future__ import annotations

from repro.exceptions import TrafficError
from repro.metrics.paths import all_pairs_shortest_lengths
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix, servers_of
from repro.util.rng import as_rng


def longest_matching_traffic(
    topo: Topology,
    seed=None,
    name: "str | None" = None,
) -> TrafficMatrix:
    """Greedy maximum-distance server permutation.

    Every server sends to exactly one other server and receives from
    exactly one (a permutation, self-pairs excluded); destinations are
    chosen greedily farthest-first with random tie-breaking.
    """
    rng = as_rng(seed)
    servers = servers_of(topo.server_map())
    if len(servers) < 2:
        raise TrafficError(
            f"need at least 2 servers, topology has {len(servers)}"
        )
    if not topo.is_connected():
        raise TrafficError(
            f"topology {topo.name!r} is disconnected; adversarial "
            "matching undefined"
        )
    distances = all_pairs_shortest_lengths(topo)

    # Order senders by descending mean distance (most remote first get the
    # pick of far destinations).
    def remoteness(server) -> float:
        switch, _ = server
        row = distances[switch]
        return sum(row.values()) / max(len(row) - 1, 1)

    order = sorted(servers, key=lambda s: (-remoteness(s), rng.random()))
    # Insertion-ordered, so the tie-break draws below follow ``servers``
    # order rather than a set's hash order (which varies with
    # PYTHONHASHSEED for string switch ids).
    available = dict.fromkeys(servers)
    pairs: list[tuple] = []
    for source in order:
        src_switch, _ = source
        candidates = [s for s in available if s != source]
        if not candidates:
            # Only `source` itself remains unclaimed: swap destinations
            # with an earlier pair (a -> b). Afterwards a -> source and
            # source -> b; both are valid because a != source (a sent
            # earlier) and b != source (source was still unclaimed).
            if not pairs:
                raise TrafficError("cannot derange a single server")
            a, b = pairs.pop()
            pairs.append((a, source))
            pairs.append((source, b))
            del available[source]
            continue
        best = max(
            candidates,
            key=lambda s: (distances[src_switch][s[0]], rng.random()),
        )
        del available[best]
        pairs.append((source, best))
    return TrafficMatrix.from_server_pairs(
        pairs, name=name or "longest-matching"
    )
