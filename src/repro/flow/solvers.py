"""Uniform throughput-solver protocol and string-keyed backend registry.

Every flow engine in :mod:`repro.flow` answers the same question — "what
concurrent throughput does this topology sustain under this traffic
matrix?" — but historically each was imported and called by name. This
module puts them behind one shape so callers (search objectives, the
scenario pipeline, the CLI) select a backend by string key and pass
options uniformly:

>>> result = solve_throughput(topo, traffic, solver="path_lp", k=8)

Canonical backend keys are ``edge_lp`` (exact arc LP), ``path_lp``
(k-shortest-path LP), ``approx`` (Garg–Könemann), ``ecmp`` (fluid ECMP),
and the scalable estimators of :mod:`repro.estimate` (``estimate_bound``,
``estimate_cut``, ``estimate_spectral``, ``estimate_sampled_lp`` —
flagged ``estimate=True`` on their :class:`SolverBackend` entries); the
legacy hyphenated labels (``edge-lp``, ``garg-koenemann``, ...) are
accepted as aliases. New backends register via :func:`register_solver`.

:class:`SolverConfig` captures a backend choice *plus its options* as an
immutable, hashable, JSON-serializable value — the unit the result cache
keys on and the sweep grid enumerates over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, runtime_checkable

from repro.exceptions import FlowError
from repro.flow.approx import garg_koenemann_throughput
from repro.flow.ecmp import ecmp_throughput
from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.path_lp import max_concurrent_flow_paths
from repro.flow.result import ThroughputResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix


@runtime_checkable
class ThroughputSolver(Protocol):
    """Anything callable as ``solver(topo, traffic, **options) -> result``."""

    def __call__(
        self, topo: Topology, traffic: TrafficMatrix, **options
    ) -> ThroughputResult: ...


@dataclass(frozen=True)
class SolverBackend:
    """One registered flow engine.

    ``exact`` mirrors :attr:`ThroughputResult.exact` for the backend's
    default options: whether it returns the true optimum rather than a
    lower bound. ``estimate`` marks backends whose output is neither an
    optimum nor a guaranteed lower bound and should be read against a
    calibrated error band — the differential test matrix keys its
    assertions off these two flags, so future backends are auto-enrolled
    by registering with the right combination. ``simulation`` marks the
    routing-fidelity backends of :mod:`repro.fidelity`, which measure a
    concrete routing mechanism instead of an optimal routing: their
    results carry a mechanism gap by design, and the fidelity
    differential gate additionally checks them against per-family
    calibrated bands. ``revision`` versions the backend's algorithm: bump
    it when a change moves the backend's outputs, and the solver
    fingerprint (hence every result-cache key) changes with it, so no
    cache entry written by the old algorithm is served for the new one.
    """

    name: str
    fn: Callable[..., ThroughputResult]
    description: str = ""
    exact: bool = True
    aliases: tuple = ()
    estimate: bool = False
    simulation: bool = False
    revision: int = 0


_REGISTRY: dict[str, SolverBackend] = {}
_ALIASES: dict[str, str] = {}


def normalize_solver_name(name: str) -> str:
    """Resolve a user-facing solver name to its canonical registry key.

    Case-insensitive; hyphens and underscores are interchangeable; legacy
    engine labels map to their canonical backend.
    """
    if not isinstance(name, str):
        raise FlowError(f"solver name must be a string, got {type(name).__name__}")
    key = name.strip().lower().replace("-", "_")
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        known = ", ".join(available_solvers())
        raise FlowError(f"unknown solver {name!r}; known solvers: {known}")
    return key


def register_solver(
    name: str,
    fn: Callable[..., ThroughputResult],
    description: str = "",
    exact: bool = True,
    aliases: "tuple | list" = (),
    estimate: bool = False,
    simulation: bool = False,
    revision: int = 0,
) -> SolverBackend:
    """Register a throughput backend under a canonical key.

    Existing keys (and aliases) cannot be overwritten — raise instead of
    silently shadowing a built-in. ``revision`` is the algorithm version
    folded into the backend's cache keys (see :class:`SolverBackend`).
    """
    key = name.strip().lower().replace("-", "_")
    if key in _REGISTRY or key in _ALIASES:
        raise FlowError(f"solver {name!r} is already registered")
    if not isinstance(revision, int) or revision < 0:
        raise FlowError(f"solver revision must be an int >= 0, got {revision!r}")
    backend = SolverBackend(
        name=key,
        fn=fn,
        description=description,
        exact=exact,
        aliases=tuple(aliases),
        estimate=estimate,
        simulation=simulation,
        revision=revision,
    )
    _REGISTRY[key] = backend
    for alias in backend.aliases:
        alias_key = alias.strip().lower().replace("-", "_")
        if alias_key == key:
            # Hyphen/underscore variants already resolve via normalization;
            # the alias is kept only for display in available_solvers().
            continue
        if alias_key in _REGISTRY or alias_key in _ALIASES:
            raise FlowError(f"solver alias {alias!r} is already registered")
        _ALIASES[alias_key] = key
    return backend


def available_solvers(include_aliases: bool = False) -> list[str]:
    """Sorted canonical solver keys (optionally plus accepted aliases)."""
    names = set(_REGISTRY)
    if include_aliases:
        for key, backend in _REGISTRY.items():
            names.update(backend.aliases)
    return sorted(names)


def get_solver(name: str) -> SolverBackend:
    """Look up a backend by canonical name or alias."""
    return _REGISTRY[normalize_solver_name(name)]


def solve_throughput(
    topo: Topology,
    traffic: TrafficMatrix,
    solver: str = "edge_lp",
    **options,
) -> ThroughputResult:
    """Solve max concurrent flow with a named backend.

    ``options`` are forwarded to the engine (e.g. ``k=8`` for
    ``path_lp``, ``epsilon=0.1`` for ``approx``).
    """
    return get_solver(solver).fn(topo, traffic, **options)


register_solver(
    "edge_lp",
    max_concurrent_flow,
    description="exact arc-based LP (scipy HiGHS), commodities by source",
    exact=True,
    aliases=("edge-lp",),
    revision=1,
)
register_solver(
    "path_lp",
    max_concurrent_flow_paths,
    description="LP over k-shortest path sets (fast lower bound)",
    exact=False,
    aliases=("path-lp",),
)
register_solver(
    "approx",
    garg_koenemann_throughput,
    description="Garg-Koenemann (1-eps) combinatorial approximation",
    exact=False,
    aliases=("garg-koenemann", "gk"),
)
register_solver(
    "ecmp",
    ecmp_throughput,
    description="fluid ECMP over equal-cost shortest paths",
    exact=False,
    revision=1,
)


@dataclass(frozen=True)
class SolverConfig:
    """A backend choice plus its options, as a hashable value object.

    ``options`` is stored as a sorted tuple of ``(key, value)`` pairs so
    equal configurations compare (and hash) equal regardless of the keyword
    order they were built with. List values (e.g. an ``error_band`` read
    back from a JSON grid file) are normalized to tuples so the config
    stays hashable and JSON round trips compare equal.
    """

    name: str
    options: tuple = field(default=())

    def __post_init__(self) -> None:
        canonical = normalize_solver_name(self.name)
        object.__setattr__(self, "name", canonical)
        if isinstance(self.options, Mapping):
            items = self.options.items()
        else:
            items = tuple(self.options)
        object.__setattr__(
            self,
            "options",
            tuple(
                sorted(
                    (str(k), tuple(v) if isinstance(v, list) else v)
                    for k, v in items
                )
            ),
        )

    @classmethod
    def make(cls, name: str, **options) -> "SolverConfig":
        """Build a config from keyword options."""
        return cls(name=name, options=tuple(options.items()))

    def options_dict(self) -> dict:
        return dict(self.options)

    def solve(self, topo: Topology, traffic: TrafficMatrix) -> ThroughputResult:
        """Run the configured backend."""
        return solve_throughput(topo, traffic, self.name, **self.options_dict())

    def label(self) -> str:
        """Human-readable label, e.g. ``path_lp(k=8)``."""
        if not self.options:
            return self.name
        inner = ", ".join(f"{k}={v!r}" for k, v in self.options)
        return f"{self.name}({inner})"

    def to_dict(self) -> dict:
        return {"name": self.name, "options": self.options_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SolverConfig":
        return cls.make(payload["name"], **dict(payload.get("options") or {}))


# Estimator backends live in repro.estimate (imported last: the estimators
# depend on flow.result/flow.reachability but never on this module, while
# repro.estimate.calibrate reads this module's registry lazily — keeping
# this import below every definition breaks the remaining cycle risk).
from repro.estimate.bound import estimate_bound  # noqa: E402
from repro.estimate.cut import estimate_cut  # noqa: E402
from repro.estimate.sampled_lp import estimate_sampled_lp  # noqa: E402
from repro.estimate.spectral import estimate_spectral  # noqa: E402

register_solver(
    "estimate_bound",
    estimate_bound,
    description="capacity-charging ASPL bound estimate (exact pair hops, N=100k)",
    exact=False,
    estimate=True,
)
register_solver(
    "estimate_cut",
    estimate_cut,
    description="min over sparse sampled cuts (Fiedler sweep + random + ToR)",
    exact=False,
    estimate=True,
    revision=1,
)
register_solver(
    "estimate_spectral",
    estimate_spectral,
    description="algebraic-connectivity expansion estimate (one eigensolve)",
    exact=False,
    estimate=True,
    revision=1,
)
register_solver(
    "estimate_sampled_lp",
    estimate_sampled_lp,
    description="exact LP on a scaled demand sample (mid-scale)",
    exact=False,
    estimate=True,
    revision=1,
)

# Routing-fidelity backends live in repro.fidelity and follow the same
# bottom-import rule as the estimators: they depend on flow.result and
# flow.reachability but import this module only lazily (fingerprinting),
# so importing them after every definition keeps the cycle broken.
from repro.fidelity.adapter import sim_packet  # noqa: E402
from repro.fidelity.solvers import sim_ecmp, sim_mptcp  # noqa: E402

register_solver(
    "sim_ecmp",
    sim_ecmp,
    description="fluid simulation of hash-split ECMP over k equal-cost paths",
    exact=False,
    aliases=("sim-ecmp",),
    simulation=True,
)
register_solver(
    "sim_mptcp",
    sim_mptcp,
    description="fluid simulation of MPTCP with k uncoupled subflows",
    exact=False,
    aliases=("sim-mptcp",),
    simulation=True,
)
register_solver(
    "sim_packet",
    sim_packet,
    description="packet-level simulation (TCP dynamics; calibrated estimate)",
    exact=False,
    aliases=("sim-packet",),
    estimate=True,
    simulation=True,
)
