"""Route-set precomputation: the shared substrate of the fidelity solvers.

A :class:`RouteSet` holds, for one (topology, demand-pair set, mechanism)
combination, the concrete switch paths a routing mechanism can use:

- ``mode="ecmp"``: the equal-cost shortest paths of every pair, each
  weighted by its per-hop hash probability (at every switch an ECMP hash
  splits uniformly over the next hops that lie on *some* shortest path,
  so a path's probability is the product of ``1/outdegree`` along it).
  These weights are exactly the distribution a hardware hash samples a
  flow's path from.
- ``mode="ksp"``: up to ``k`` short simple paths per pair for MPTCP-style
  subflow routing. The default ``"tree"`` method enumerates the
  shortest-path DAG first and then mines jittered shortest-path trees for
  detours — everything batched through :mod:`scipy.sparse.csgraph`, which
  is what keeps N = 1000+ precomputation in seconds where per-pair Yen
  would take minutes. ``method="yen"`` calls the exact
  :func:`repro.metrics.paths.k_shortest_paths` per pair (small N, and
  byte-compatible with the packet simulator's historical routing).

Route sets are content-addressed — (topology fingerprint, pair-set
digest, mode, k, method) — and shared through the pipeline's
:class:`~repro.pipeline.cache.ResultCache` as kind-tagged payloads, so a
sweep, an annealing run, and a growth trajectory touching the same fabric
compute its routes exactly once. A small in-process memo sits in front of
the disk store; :func:`route_stats` exposes computed/memo/disk counters
(the CI warm-run gate asserts ``computed == 0`` on a second pass).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.exceptions import FlowError, TopologyError
from repro.metrics.paths import (
    ROW_BATCH,
    _closer_neighbors,
    _dag_enumerate,
    _walk_shortest_paths,
    hop_rows,
    k_shortest_paths,
)
from repro.topology.base import Topology
from repro.util.hashing import stable_digest, stable_seed

#: Payload tag under which route sets live in the result cache.
ROUTE_SET_KIND = "route-set"

#: Bump when the RouteSet payload schema changes; old entries re-compute.
ROUTE_SET_SCHEMA_VERSION = 1

#: Default enumeration method per mode.
DEFAULT_METHODS = {"ecmp": "dag", "ksp": "tree"}

#: Accepted (mode, method) combinations.
_METHODS = {
    "ecmp": ("dag", "enum"),
    "ksp": ("tree", "yen"),
}

#: Minimum detour-mining rounds for the ``"tree"`` method beyond the
#: shortest tier; each round re-runs one batched Dijkstra per pending
#: source with a fresh edge jitter, so the cost is a few tree
#: computations per requested path, not k Yen runs. The actual round
#: count scales with ``k`` (see :func:`_ksp_tree_sets`).
MAX_DETOUR_ROUNDS = 8

#: Jitter amplitudes cycled across detour rounds. Small amplitudes
#: diversify among near-shortest paths; large ones (edge weights up to
#: 1 + amplitude) let genuinely longer detours win a tree, which is
#: where the extra MPTCP subflows come from on low-multiplicity graphs.
_JITTER_AMPLITUDES = (0.25, 0.5, 1.0, 1.75, 3.0, 5.0)

#: In-process memo size (route sets at N=1000 run to a few MB each).
_MEMO_MAX = 8

_MEMO: "OrderedDict[str, RouteSet]" = OrderedDict()
_STATS = {"computed": 0, "memo_hits": 0, "disk_hits": 0}


def route_stats() -> dict:
    """Counters since the last reset: computed / memo_hits / disk_hits."""
    return dict(_STATS)


def reset_route_stats() -> None:
    """Zero the counters and drop the in-process memo (tests, CLI runs)."""
    for key in _STATS:
        _STATS[key] = 0
    _MEMO.clear()


@dataclass(frozen=True)
class RouteSet:
    """Precomputed paths (and path weights) for an ordered pair set.

    ``paths[i]`` is the tuple of switch paths for ``pairs[i]`` (each path
    a node tuple from source to destination, inclusive); ``weights[i]``
    are the matching sampling probabilities, normalized to sum to 1.
    ``truncated`` counts pairs whose enumeration hit the ``k`` cap, so
    their weights describe the enumerated subset only.
    """

    mode: str
    k: int
    method: str
    key: str
    pairs: tuple
    paths: tuple
    weights: tuple
    truncated: int = 0
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._index.update((pair, i) for i, pair in enumerate(self.pairs))

    def paths_for(self, u, v) -> tuple:
        """The path tuple of pair ``(u, v)``."""
        return self.paths[self._position(u, v)]

    def weights_for(self, u, v) -> tuple:
        """The sampling weights of pair ``(u, v)``."""
        return self.weights[self._position(u, v)]

    def _position(self, u, v) -> int:
        try:
            return self._index[(u, v)]
        except KeyError:
            raise FlowError(
                f"route set has no pair ({u!r}, {v!r})"
            ) from None

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def num_paths(self) -> int:
        """Total paths across pairs."""
        return sum(len(group) for group in self.paths)

    def to_payload(self) -> dict:
        """JSON-safe form for the result cache."""
        from repro.topology.serialization import encode_node

        return {
            "schema_version": ROUTE_SET_SCHEMA_VERSION,
            "mode": self.mode,
            "k": self.k,
            "method": self.method,
            "key": self.key,
            "truncated": self.truncated,
            "pairs": [
                {
                    "u": encode_node(u),
                    "v": encode_node(v),
                    "paths": [
                        [encode_node(node) for node in path] for path in group
                    ],
                    "weights": list(wgroup),
                }
                for (u, v), group, wgroup in zip(
                    self.pairs, self.paths, self.weights
                )
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RouteSet":
        """Rebuild from :meth:`to_payload` output (raises on mismatch)."""
        from repro.topology.serialization import decode_node

        if payload.get("schema_version") != ROUTE_SET_SCHEMA_VERSION:
            raise FlowError("route-set payload schema mismatch")
        pairs: list = []
        paths: list = []
        weights: list = []
        for entry in payload["pairs"]:
            pairs.append((decode_node(entry["u"]), decode_node(entry["v"])))
            paths.append(
                tuple(
                    tuple(decode_node(node) for node in path)
                    for path in entry["paths"]
                )
            )
            weights.append(tuple(float(w) for w in entry["weights"]))
        return cls(
            mode=str(payload["mode"]),
            k=int(payload["k"]),
            method=str(payload["method"]),
            key=str(payload["key"]),
            pairs=tuple(pairs),
            paths=tuple(paths),
            weights=tuple(weights),
            truncated=int(payload.get("truncated", 0)),
        )


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
def canonical_pairs(pairs) -> tuple:
    """Deduplicate and repr-sort a pair iterable (the key's pair order)."""
    unique = {
        (u, v): None for u, v in pairs
    }
    return tuple(sorted(unique, key=lambda p: (repr(p[0]), repr(p[1]))))


def pairs_digest(pairs: tuple) -> str:
    """Content digest of a canonical pair tuple."""
    from repro.topology.serialization import encode_node

    return stable_digest(
        [[encode_node(u), encode_node(v)] for u, v in pairs]
    )


def route_set_key(
    topo_fp: str, pairs_fp: str, mode: str, k: int, method: str
) -> str:
    """Content address of one route set.

    The leading ``kind`` field keeps route-set keys in their own address
    space — they can never collide with throughput-result keys, which
    hash a different canonical document.
    """
    return stable_digest(
        {
            "kind": ROUTE_SET_KIND,
            "schema": ROUTE_SET_SCHEMA_VERSION,
            "topology": topo_fp,
            "pairs": pairs_fp,
            "mode": mode,
            "k": int(k),
            "method": method,
        }
    )


def _check_mode(mode: str, method: "str | None") -> str:
    if mode not in _METHODS:
        known = ", ".join(sorted(_METHODS))
        raise FlowError(f"unknown route-set mode {mode!r}; known: {known}")
    method = method or DEFAULT_METHODS[mode]
    if method not in _METHODS[mode]:
        known = ", ".join(_METHODS[mode])
        raise FlowError(
            f"unknown method {method!r} for mode {mode!r}; known: {known}"
        )
    return method


# ----------------------------------------------------------------------
# Enumeration engines
# ----------------------------------------------------------------------
def _ecmp_dag_sets(topo: Topology, pairs: tuple, k: int):
    """Equal-cost path sets with hash weights, batched by destination."""
    index = {node: i for i, node in enumerate(topo.switches)}
    nbrs = {node: sorted(topo.neighbors(node), key=repr) for node in index}
    by_dest: dict = {}
    for u, v in pairs:
        by_dest.setdefault(v, []).append(u)
    dests = sorted(by_dest, key=repr)
    out: dict = {}
    truncated_pairs = 0
    for dest, dist in zip(dests, hop_rows(topo, dests)):
        next_hops = _closer_neighbors(index, dist, nbrs.__getitem__)
        for u in by_dest[dest]:
            if not math.isfinite(dist[index[u]]):
                raise TopologyError(
                    f"pair {u!r}->{dest!r} has no path in {topo.name!r}"
                )
            paths, weights, truncated = _dag_enumerate(u, dest, next_hops, k)
            if truncated:
                truncated_pairs += 1
                total = sum(weights)
                weights = [w / total for w in weights]
            out[(u, dest)] = (tuple(paths), tuple(weights))
    return out, truncated_pairs


def _ecmp_enum_sets(topo: Topology, pairs: tuple, k: int):
    """Equal-cost pools in :func:`all_shortest_paths` order, uniform weights.

    This is the packet simulator's historical path pool, preserved
    byte-for-byte so route-table-backed runs reproduce the direct ones.
    Each source's hop row comes from :func:`hop_rows`.
    """
    index = {node: i for i, node in enumerate(topo.switches)}
    out: dict = {}
    truncated_pairs = 0
    for (u, v), dist in zip(pairs, hop_rows(topo, (u for u, _ in pairs))):
        pool = _walk_shortest_paths(topo, index, dist, u, v, k)
        if not pool:
            raise TopologyError(
                f"pair {u!r}->{v!r} has no path in {topo.name!r}"
            )
        if len(pool) >= k:
            truncated_pairs += 1
        share = 1.0 / len(pool)
        out[(u, v)] = (tuple(pool), tuple(share for _ in pool))
    return out, truncated_pairs


def _first_dag_path(start, target, next_hops, avoid):
    """First shortest-DAG path from ``start`` to ``target`` that skips
    ``avoid`` (bounded DFS; ``None`` when every short path hits it)."""
    paths, _, _ = _dag_enumerate(start, target, next_hops, 8)
    for path in paths:
        if avoid not in path:
            return path
    return None


def _neighbor_detours(topo: Topology, pairs, k: int, found: dict, seen: dict):
    """Deterministic one-hop detours for pairs short of ``k`` paths.

    For a pending pair (u, v), force a path through every neighbor of
    each endpoint: ``u -> w -> (shortest w..v)`` and
    ``(shortest u..w') -> w' -> v``. Jitter alone starves short pairs —
    a direct edge wins nearly every jittered tree — while these detours
    are exactly the next-shortest alternatives MPTCP subflows would use.
    One hop row per endpoint node covers every candidate.
    """
    pending = [pair for pair in pairs if len(found[pair]) < k]
    if not pending:
        return
    index = {node: i for i, node in enumerate(topo.switches)}
    nbrs = {node: sorted(topo.neighbors(node), key=repr) for node in index}
    targets = sorted(
        {u for u, _ in pending} | {v for _, v in pending}, key=repr
    )
    dist_to = dict(zip(targets, hop_rows(topo, targets)))

    for u, v in pending:
        candidates: list = []
        toward_v = _closer_neighbors(index, dist_to[v], nbrs.__getitem__)
        for w in nbrs[u]:
            if w == v or not math.isfinite(dist_to[v][index[w]]):
                continue
            tail = _first_dag_path(w, v, toward_v, avoid=u)
            if tail is not None:
                candidates.append((u,) + tail)
        toward_u = _closer_neighbors(index, dist_to[u], nbrs.__getitem__)
        for w in nbrs[v]:
            if w == u or not math.isfinite(dist_to[u][index[w]]):
                continue
            head = _first_dag_path(w, u, toward_u, avoid=v)
            if head is not None:
                candidates.append(tuple(reversed(head)) + (v,))
        for path in candidates:
            if len(set(path)) != len(path) or path in seen[(u, v)]:
                continue
            seen[(u, v)].add(path)
            found[(u, v)].append(path)


def _extract_tree_path(pred_row, index, nodes, u, v):
    """Walk a Dijkstra predecessor row from ``v`` back to ``u``."""
    path = [v]
    row = index[u]
    cursor = index[v]
    while cursor != row:
        cursor = pred_row[cursor]
        if cursor < 0:
            return None
        path.append(nodes[cursor])
    path.reverse()
    return tuple(path)


def _ksp_tree_sets(topo: Topology, pairs: tuple, k: int, topo_fp: str):
    """k short simple paths per pair: shortest DAG tier + jittered trees.

    Round 0 takes up to ``k`` true shortest paths from the ECMP DAG.
    Subsequent rounds (a few per requested path) rebuild one
    shortest-path tree per pending source on a multiplicatively jittered
    copy of the graph, cycling through :data:`_JITTER_AMPLITUDES` — small
    amplitudes diversify among near-shortest paths, large ones trade hops
    for diversity, which is what MPTCP subflows need on low-multiplicity
    random graphs. Jitter is seeded from (topology fingerprint, round),
    so the result is a pure function of content.
    """
    import numpy as np
    from scipy.sparse import csgraph

    dag_sets, _ = _ecmp_dag_sets(topo, pairs, k)
    found: dict = {pair: list(dag_sets[pair][0]) for pair in pairs}
    seen: dict = {pair: set(found[pair]) for pair in pairs}
    _neighbor_detours(topo, pairs, k, found, seen)

    nodes = topo.switches
    index = {node: i for i, node in enumerate(nodes)}
    base = topo.adjacency()
    rounds = max(MAX_DETOUR_ROUNDS, 4 * k)
    for round_no in range(1, rounds + 1):
        pending = [pair for pair in pairs if len(found[pair]) < k]
        if not pending:
            break
        by_source: dict = {}
        for u, v in pending:
            by_source.setdefault(u, []).append(v)
        sources = sorted(by_source, key=repr)
        seed = stable_seed(
            {"route-jitter": topo_fp, "round": round_no}
        )
        rng = np.random.default_rng(seed)
        jittered = base.copy()
        amplitude = _JITTER_AMPLITUDES[
            (round_no - 1) % len(_JITTER_AMPLITUDES)
        ]
        jittered.data = 1.0 + amplitude * rng.random(jittered.nnz)
        for start in range(0, len(sources), ROW_BATCH):
            batch = sources[start : start + ROW_BATCH]
            _, predecessors = csgraph.dijkstra(
                jittered, indices=[index[u] for u in batch], return_predecessors=True
            )
            for u, pred_row in zip(batch, predecessors):
                for v in by_source[u]:
                    path = _extract_tree_path(pred_row, index, nodes, u, v)
                    if path is None or path in seen[(u, v)]:
                        continue
                    seen[(u, v)].add(path)
                    found[(u, v)].append(path)
    out: dict = {}
    for pair, group in found.items():
        group.sort(key=lambda p: (len(p), tuple(repr(n) for n in p)))
        group = group[:k]
        share = 1.0 / len(group)
        out[pair] = (tuple(group), tuple(share for _ in group))
    return out, 0


def _ksp_yen_sets(topo: Topology, pairs: tuple, k: int):
    """Exact Yen path sets, in Yen's native (length-sorted) order."""
    out: dict = {}
    for u, v in pairs:
        group = [tuple(p) for p in k_shortest_paths(topo, u, v, k)]
        if not group:
            raise TopologyError(
                f"pair {u!r}->{v!r} has no path in {topo.name!r}"
            )
        share = 1.0 / len(group)
        out[(u, v)] = (tuple(group), tuple(share for _ in group))
    return out, 0


def compute_route_set(
    topo: Topology,
    pairs,
    mode: str = "ecmp",
    k: int = 8,
    method: "str | None" = None,
    topo_fp: "str | None" = None,
    key: "str | None" = None,
) -> RouteSet:
    """Enumerate a route set from scratch (no cache involved)."""
    from repro.util.validation import check_positive_int

    check_positive_int(k, "k")
    method = _check_mode(mode, method)
    pairs = canonical_pairs(pairs)
    if not pairs:
        raise FlowError("route set needs at least one pair")
    for u, v in pairs:
        if u == v:
            raise FlowError(f"pair ({u!r}, {v!r}) has equal endpoints")
        for node in (u, v):
            if node not in topo:
                raise TopologyError(f"switch {node!r} does not exist")
    if key is None:
        if topo_fp is None:
            from repro.pipeline.fingerprint import topology_fingerprint

            topo_fp = topology_fingerprint(topo)
        key = route_set_key(topo_fp, pairs_digest(pairs), mode, k, method)
    if mode == "ecmp" and method == "dag":
        sets, truncated = _ecmp_dag_sets(topo, pairs, k)
    elif mode == "ecmp":
        sets, truncated = _ecmp_enum_sets(topo, pairs, k)
    elif method == "tree":
        if topo_fp is None:
            from repro.pipeline.fingerprint import topology_fingerprint

            topo_fp = topology_fingerprint(topo)
        sets, truncated = _ksp_tree_sets(topo, pairs, k, topo_fp)
    else:
        sets, truncated = _ksp_yen_sets(topo, pairs, k)
    return RouteSet(
        mode=mode,
        k=int(k),
        method=method,
        key=key,
        pairs=pairs,
        paths=tuple(sets[pair][0] for pair in pairs),
        weights=tuple(sets[pair][1] for pair in pairs),
        truncated=truncated,
    )


def route_set_for(
    topo: Topology,
    pairs,
    mode: str = "ecmp",
    k: int = 8,
    method: "str | None" = None,
    cache=None,
    topo_fp: "str | None" = None,
) -> RouteSet:
    """Memo -> disk cache -> compute, in that order.

    ``cache=None`` consults :func:`repro.pipeline.cache.active_cache` —
    inside a ``run_grid``/``cached_solve`` invocation that is the sweep's
    own cache, so every worker process shares one on-disk route store.
    """
    method = _check_mode(mode, method)
    pairs = canonical_pairs(pairs)
    if topo_fp is None:
        from repro.pipeline.fingerprint import topology_fingerprint

        topo_fp = topology_fingerprint(topo)
    key = route_set_key(topo_fp, pairs_digest(pairs), mode, k, method)
    memoized = _MEMO.get(key)
    if memoized is not None:
        _MEMO.move_to_end(key)
        _STATS["memo_hits"] += 1
        return memoized
    if cache is None:
        from repro.pipeline.cache import active_cache

        cache = active_cache()
    if cache is not None:
        route_set = cache.get_payload(key, ROUTE_SET_KIND, RouteSet.from_payload)
        if route_set is not None:
            _STATS["disk_hits"] += 1
            _memoize(key, route_set)
            return route_set
    route_set = compute_route_set(
        topo, pairs, mode=mode, k=k, method=method, topo_fp=topo_fp, key=key
    )
    _STATS["computed"] += 1
    if cache is not None:
        cache.put_payload(key, ROUTE_SET_KIND, route_set.to_payload())
    _memoize(key, route_set)
    return route_set


def _memoize(key: str, route_set: RouteSet) -> None:
    _MEMO[key] = route_set
    _MEMO.move_to_end(key)
    while len(_MEMO) > _MEMO_MAX:
        _MEMO.popitem(last=False)
