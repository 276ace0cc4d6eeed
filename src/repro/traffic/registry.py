"""Name-based traffic-model registry with a uniform construction shape.

Mirrors :mod:`repro.topology.registry` for workloads: the CLI, the
scenario pipeline, and the analysis report construct traffic matrices from
string names instead of hardcoding constructor imports and argument
shapes. Every registered builder is called as
``builder(topo, seed=..., **params)``; the seedless models (all-to-all,
gravity, stride) ignore the seed.

Timeline kinds (time-varying traffic) register separately — see
:func:`make_timeline` / :func:`register_timeline`, re-exported here from
:mod:`repro.traffic.timeline`.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import TrafficError
from repro.topology.base import Topology
from repro.traffic.adversarial import longest_matching_traffic
from repro.traffic.alltoall import all_to_all_traffic
from repro.traffic.base import TrafficMatrix
from repro.traffic.chunky import chunky_traffic
from repro.traffic.gravity import gravity_traffic
from repro.traffic.hotspot import hotspot_traffic
from repro.traffic.permutation import (
    random_permutation_traffic,
    switch_permutation_traffic,
)
from repro.traffic.stride import stride_traffic
from repro.traffic.timeline import (  # noqa: F401  (re-exported)
    available_timelines,
    make_timeline,
    register_timeline,
)
from repro.traffic.vdc import vdc_snapshot_traffic, vdc_timeline


def _permutation(topo: Topology, seed=None, **params) -> TrafficMatrix:
    return random_permutation_traffic(topo, seed=seed, **params)


def _switch_permutation(topo: Topology, seed=None, **params) -> TrafficMatrix:
    return switch_permutation_traffic(topo, seed=seed, **params)


def _all_to_all(topo: Topology, seed=None, **params) -> TrafficMatrix:
    return all_to_all_traffic(topo, **params)


def _gravity(topo: Topology, seed=None, **params) -> TrafficMatrix:
    return gravity_traffic(topo, **params)


def _stride(topo: Topology, seed=None, **params) -> TrafficMatrix:
    return stride_traffic(topo, **params)


def _hotspot(topo: Topology, seed=None, **params) -> TrafficMatrix:
    return hotspot_traffic(topo, seed=seed, **params)


def _chunky(topo: Topology, seed=None, **params) -> TrafficMatrix:
    params.setdefault("chunky_fraction", 0.5)
    return chunky_traffic(topo, seed=seed, **params)


def _longest_matching(topo: Topology, seed=None, **params) -> TrafficMatrix:
    return longest_matching_traffic(topo, seed=seed, **params)


_REGISTRY: dict[str, Callable[..., TrafficMatrix]] = {
    "permutation": _permutation,
    "switch-permutation": _switch_permutation,
    "all-to-all": _all_to_all,
    "gravity": _gravity,
    "stride": _stride,
    "hotspot": _hotspot,
    "chunky": _chunky,
    "longest-matching": _longest_matching,
    "vdc": vdc_snapshot_traffic,
}


def available_traffic_models() -> list[str]:
    """Sorted model names accepted by :func:`make_traffic`."""
    return sorted(_REGISTRY)


def _normalize_model_name(model: str) -> str:
    return model.strip().lower().replace("_", "-")


def _lookup(model: str) -> Callable[..., TrafficMatrix]:
    key = _normalize_model_name(model)
    if key.startswith("chunky-"):
        key = "chunky"
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(available_traffic_models())
        raise TrafficError(
            f"unknown traffic model {model!r}; known models: {known}"
        )


def traffic_model_builder(model: str) -> "Callable[..., TrafficMatrix] | None":
    """The builder registered under ``model`` (``None`` if unknown)."""
    try:
        return _lookup(model)
    except TrafficError:
        return None


def make_traffic(
    model: str, topo: Topology, seed=None, **params
) -> TrafficMatrix:
    """Construct a workload by registry name.

    ``seed`` follows the library-wide convention (int, ``None``, generator,
    or seed sequence) and is ignored by the seedless models (all-to-all,
    gravity, stride); ``params`` are forwarded to
    the underlying constructor (e.g. ``stride=4``, ``chunky_fraction=1.0``,
    ``num_hotspots=2``). The ``"chunky-<pct>"`` shorthand used by the VL2
    studies (e.g. ``"chunky-50"``) is accepted and sets
    ``chunky_fraction`` accordingly.
    """
    key = _normalize_model_name(model)
    if key.startswith("chunky-"):
        suffix = key.split("-", 1)[1]
        try:
            params.setdefault("chunky_fraction", float(suffix) / 100.0)
        except ValueError:
            raise TrafficError(f"bad chunky percentage in {model!r}")
        key = "chunky"
    return _lookup(key)(topo, seed=seed, **params)


def register_traffic_model(name: str, builder: Callable[..., TrafficMatrix]) -> None:
    """Register a custom traffic model under ``name``.

    The builder must accept ``(topo, seed=None, **params)``. Existing
    names cannot be overwritten (raise instead of silently shadowing a
    built-in).
    """
    key = _normalize_model_name(name)
    if key in _REGISTRY:
        raise TrafficError(f"traffic model {name!r} is already registered")
    _REGISTRY[key] = builder


register_timeline("vdc", vdc_timeline)
