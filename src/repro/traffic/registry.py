"""Name-based traffic-model registry with a uniform construction shape.

Mirrors :mod:`repro.topology.registry` for workloads: the CLI, the
scenario pipeline, and the analysis report construct traffic matrices from
string names instead of hardcoding constructor imports and argument
shapes. Every registered builder is called as
``builder(topo, seed=..., **params)``.

Each entry carries a ``deterministic`` flag: deterministic models
(all-to-all, gravity, stride) produce byte-identical matrices for any
seed, so grid and replay enumeration can collapse redundant replicate
cells instead of solving identical work — and the claim is
machine-checkable via :func:`traffic_model_is_deterministic` (the test
suite builds every model under two seeds and compares fingerprints
against the flag).

Timeline kinds (time-varying traffic) register separately — see
:func:`make_timeline` / :func:`register_timeline`, re-exported here from
:mod:`repro.traffic.timeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class _TrafficModel:
    """Registry entry: the builder plus its determinism contract."""

    builder: Callable[..., TrafficMatrix]
    deterministic: bool


_REGISTRY: dict[str, _TrafficModel] = {
    "permutation": _TrafficModel(_permutation, deterministic=False),
    "switch-permutation": _TrafficModel(_switch_permutation, deterministic=False),
    "all-to-all": _TrafficModel(_all_to_all, deterministic=True),
    "gravity": _TrafficModel(_gravity, deterministic=True),
    "stride": _TrafficModel(_stride, deterministic=True),
    "hotspot": _TrafficModel(_hotspot, deterministic=False),
    "chunky": _TrafficModel(_chunky, deterministic=False),
    "longest-matching": _TrafficModel(_longest_matching, deterministic=False),
    "vdc": _TrafficModel(vdc_snapshot_traffic, deterministic=False),
}


def available_traffic_models() -> list[str]:
    """Sorted model names accepted by :func:`make_traffic`."""
    return sorted(_REGISTRY)


def _normalize_model_name(model: str) -> str:
    return model.strip().lower().replace("_", "-")


def _lookup(model: str) -> _TrafficModel:
    key = _normalize_model_name(model)
    if key.startswith("chunky-"):
        key = "chunky"
    try:
        entry = _REGISTRY[key]
    except KeyError:
        known = ", ".join(available_traffic_models())
        raise TrafficError(
            f"unknown traffic model {model!r}; known models: {known}"
        )
    if isinstance(entry, _TrafficModel):
        return entry
    # Bare callables registered through the pre-flag API default to
    # non-deterministic (the safe assumption: never collapse replicates).
    return _TrafficModel(entry, deterministic=False)


def traffic_model_is_deterministic(model: str) -> bool:
    """Whether ``model`` ignores its seed (same matrix for any seed).

    Deterministic models let enumeration collapse replicate cells — every
    replicate would solve byte-identical work.
    """
    return _lookup(model).deterministic


def traffic_model_builder(model: str) -> "Callable[..., TrafficMatrix] | None":
    """The builder registered under ``model`` (``None`` if unknown)."""
    try:
        return _lookup(model).builder
    except TrafficError:
        return None


def make_traffic(
    model: str, topo: Topology, seed=None, **params
) -> TrafficMatrix:
    """Construct a workload by registry name.

    ``seed`` follows the library-wide convention (int, ``None``, generator,
    or seed sequence) and is ignored by deterministic models (see
    :func:`traffic_model_is_deterministic`); ``params`` are forwarded to
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
    entry = _lookup(key)
    return entry.builder(topo, seed=seed, **params)


def register_traffic_model(
    name: str,
    builder: Callable[..., TrafficMatrix],
    deterministic: bool = False,
) -> None:
    """Register a custom traffic model under ``name``.

    The builder must accept ``(topo, seed=None, **params)``. Pass
    ``deterministic=True`` only if the builder ignores its seed entirely —
    the flag licenses the pipeline to collapse replicate cells. Existing
    names cannot be overwritten (raise instead of silently shadowing a
    built-in).
    """
    key = _normalize_model_name(name)
    if key in _REGISTRY:
        raise TrafficError(f"traffic model {name!r} is already registered")
    _REGISTRY[key] = _TrafficModel(builder, deterministic=deterministic)


register_timeline("vdc", vdc_timeline)
