"""Name-based topology factory registry.

Lets examples, benchmarks and the CLI construct topologies from string
names, e.g. ``make_topology("rrg", num_switches=40, network_degree=10)``.
"""

from __future__ import annotations

import inspect
from typing import Callable

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.topology.bcube import bcube_topology
from repro.topology.clos import folded_clos_topology, leaf_spine_topology
from repro.topology.complete import complete_bipartite_topology, complete_topology
from repro.topology.dragonfly import dragonfly_topology
from repro.topology.fattree import fat_tree_topology
from repro.topology.flattened_butterfly import flattened_butterfly_topology
from repro.topology.heterogeneous import (
    heterogeneous_random_topology,
    matched_random_topology,
    mixed_linespeed_topology,
    power_law_random_topology,
)
from repro.topology.hypercube import hypercube_topology
from repro.topology.random_regular import random_regular_topology
from repro.topology.smallworld import small_world_topology
from repro.topology.torus import torus_topology
from repro.topology.two_cluster import two_cluster_random_topology
from repro.topology.vl2 import rewired_vl2_topology, vl2_topology

def _optimized_topology(**kwargs) -> Topology:
    # Imported lazily: repro.search depends on the topology package, so a
    # top-level import here would be circular.
    from repro.search.engine import optimized_topology

    return optimized_topology(**kwargs)


def _grown_topology(**kwargs) -> Topology:
    # Imported lazily for the same reason: repro.growth builds on the
    # topology package (expansion, RRG, fat-tree).
    from repro.growth.factory import grown_topology

    return grown_topology(**kwargs)


_REGISTRY: dict[str, Callable[..., Topology]] = {
    "rrg": random_regular_topology,
    "optimized": _optimized_topology,
    "grown": _grown_topology,
    "random-regular": random_regular_topology,
    "jellyfish": random_regular_topology,
    "two-cluster": two_cluster_random_topology,
    "heterogeneous": heterogeneous_random_topology,
    "power-law": power_law_random_topology,
    "matched-random": matched_random_topology,
    "mixed-linespeed": mixed_linespeed_topology,
    "vl2": vl2_topology,
    "rewired-vl2": rewired_vl2_topology,
    "fat-tree": fat_tree_topology,
    "leaf-spine": leaf_spine_topology,
    "folded-clos": folded_clos_topology,
    "hypercube": hypercube_topology,
    "torus": torus_topology,
    "complete": complete_topology,
    "complete-bipartite": complete_bipartite_topology,
    "small-world": small_world_topology,
    "bcube": bcube_topology,
    "flattened-butterfly": flattened_butterfly_topology,
    "dragonfly": dragonfly_topology,
}


def available_topologies() -> list[str]:
    """Sorted names accepted by :func:`make_topology`."""
    return sorted(_REGISTRY)


def make_topology(kind: str, **kwargs) -> Topology:
    """Construct a topology by registry name.

    Raises :class:`~repro.exceptions.TopologyError` for unknown names; the
    per-family keyword arguments are documented on each factory function.
    """
    try:
        factory = _REGISTRY[kind]
    except KeyError:
        known = ", ".join(available_topologies())
        raise TopologyError(f"unknown topology {kind!r}; known kinds: {known}")
    return factory(**kwargs)


def factory_accepts_seed(kind: str) -> bool:
    """Whether ``kind``'s factory takes a ``seed`` keyword.

    Structured families (fat-tree, VL2, hypercube, ...) are deterministic
    and accept no seed; randomized families take one directly or via
    ``**kwargs``. Unknown kinds return ``True`` so the real error
    surfaces in :func:`make_topology` with its clear message.
    """
    factory = _REGISTRY.get(kind)
    if factory is None:
        return True
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return True
    if "seed" in signature.parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    )


def topology_factory(kind: str) -> "Callable[..., Topology] | None":
    """The factory registered under ``kind`` (``None`` if unknown)."""
    return _REGISTRY.get(kind)


def register_topology(kind: str, factory: Callable[..., Topology]) -> None:
    """Register a custom topology factory under ``kind``.

    Existing names cannot be overwritten (raise instead of silently
    shadowing a built-in).
    """
    if kind in _REGISTRY:
        raise TopologyError(f"topology kind {kind!r} is already registered")
    _REGISTRY[kind] = factory
