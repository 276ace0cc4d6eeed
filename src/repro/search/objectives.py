"""Pluggable objectives for the topology search engine.

An :class:`Objective` scores a topology; the annealer maximizes the score.
Quantities the paper *minimizes* (ASPL) are negated so "higher is better"
holds uniformly.

Objectives come in two speed classes:

- **Proxies** — ASPL (the paper's Theorem 1 argument makes it an excellent
  throughput predictor for uniform traffic), spectral gap, and a bisection
  estimate. ASPL additionally supports *incremental* evaluation through
  :class:`repro.metrics.incremental.IncrementalASPL`, which is what makes
  long annealing runs cheap.
- **Direct throughput** — any backend of the solver registry
  (:mod:`repro.flow.solvers`) via
  :func:`repro.flow.objective.throughput_evaluator`; canonical keys
  (``edge_lp``) and legacy labels (``edge-lp``) both resolve. Exact but
  orders of magnitude slower per evaluation; best used to *score* final
  candidates or for short polishing runs.

All objectives are picklable so the parallel engine can ship them to
worker processes.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ExperimentError
from repro.flow.objective import throughput_evaluator
from repro.metrics.cuts import bisection_bandwidth
from repro.metrics.incremental import IncrementalASPL, SwapEvaluation
from repro.metrics.paths import average_shortest_path_length
from repro.metrics.spectral import algebraic_connectivity
from repro.topology.base import Topology
from repro.topology.mutation import DoubleEdgeSwap
from repro.traffic.base import TrafficMatrix


class Objective:
    """Scores topologies; the search engine maximizes ``evaluate``."""

    #: Registry name (set by subclasses).
    name: str = "objective"

    def evaluate(self, topo: Topology) -> float:
        """Score ``topo`` from scratch (higher is better)."""
        raise NotImplementedError

    def attach(self, topo: Topology) -> "ObjectiveState | None":
        """Build an incremental evaluation state for ``topo``.

        Returns ``None`` when the objective has no incremental form; the
        annealer then falls back to apply/evaluate/revert per candidate.
        """
        return None


class ObjectiveState:
    """Incremental evaluation protocol used by the annealing hot loop."""

    def score(self) -> float:
        """Score of the current graph."""
        raise NotImplementedError

    def evaluate(self, swap: DoubleEdgeSwap) -> "tuple[float, object] | None":
        """Score after ``swap``, or ``None`` if the swap is inadmissible.

        Returns ``(new_score, token)``; pass the token to :meth:`commit`
        to adopt the swap. Evaluating never mutates the state.
        """
        raise NotImplementedError

    def commit(self, token: object) -> None:
        """Adopt a swap previously returned by :meth:`evaluate`."""
        raise NotImplementedError


class ASPLObjective(Objective):
    """Minimize average shortest path length (score is ``-ASPL``).

    The workhorse proxy: by Theorem 1, uniform-traffic throughput is
    capped by ``C / (f * <D>)``, so lowering ASPL raises the achievable
    ceiling — and empirically moves LP throughput almost in lockstep.
    """

    name = "aspl"

    def evaluate(self, topo: Topology) -> float:
        return -average_shortest_path_length(topo)

    def attach(self, topo: Topology) -> "ObjectiveState":
        return _ASPLState(IncrementalASPL(topo))


class _ASPLState(ObjectiveState):
    def __init__(self, tracker: IncrementalASPL) -> None:
        self._tracker = tracker

    def score(self) -> float:
        return -self._tracker.aspl

    def evaluate(self, swap: DoubleEdgeSwap) -> "tuple[float, SwapEvaluation] | None":
        evaluation = self._tracker.evaluate(swap)
        if not evaluation.connected:
            return None
        return -evaluation.aspl, evaluation

    def commit(self, token: SwapEvaluation) -> None:
        self._tracker.commit(token)


class SpectralGapObjective(Objective):
    """Maximize algebraic connectivity (the Fiedler value).

    Larger spectral gap means better expansion, which Theorem 2 ties to
    near-optimal throughput. O(n^3) per evaluation — use on small graphs.
    """

    name = "spectral"

    def __init__(self, weighted: bool = True) -> None:
        self.weighted = bool(weighted)

    def evaluate(self, topo: Topology) -> float:
        return algebraic_connectivity(topo, weighted=self.weighted)


class BisectionObjective(Objective):
    """Maximize (estimated) bisection bandwidth.

    Exact below :data:`repro.metrics.cuts.EXACT_CUT_LIMIT` switches, a
    Fiedler-sweep/random-bipartition estimate above it. The estimate seed
    is fixed so scores are deterministic and comparable across steps.
    """

    name = "bisection"

    def __init__(self, attempts: int = 50, seed: int = 0) -> None:
        self.attempts = int(attempts)
        self.seed = int(seed)

    def evaluate(self, topo: Topology) -> float:
        return bisection_bandwidth(
            topo, attempts=self.attempts, seed=self.seed
        )


class ThroughputObjective(Objective):
    """Maximize throughput of a fixed workload under a chosen flow engine.

    ``traffic`` is either a concrete :class:`TrafficMatrix` (the swap moves
    never rename switches, so one matrix stays valid across the whole
    search) or a picklable callable ``topology -> TrafficMatrix`` for
    workloads that must be rebuilt per candidate.

    Every candidate is scored by a from-scratch solve. With the exact
    edge LP that is the cold :func:`~repro.flow.edge_lp.max_concurrent_flow`
    solve the paper scores topologies by.
    """

    def __init__(
        self,
        traffic: "TrafficMatrix | Callable[[Topology], TrafficMatrix]",
        solver: str = "edge-lp",
        **solver_kwargs,
    ) -> None:
        self._traffic = traffic
        self._evaluator = throughput_evaluator(solver, **solver_kwargs)
        self.name = f"throughput-{solver}"

    def evaluate(self, topo: Topology) -> float:
        traffic = (
            self._traffic(topo) if callable(self._traffic) else self._traffic
        )
        return self._evaluator(topo, traffic)


_PROXY_OBJECTIVES: dict[str, Callable[..., Objective]] = {
    "aspl": ASPLObjective,
    "spectral": SpectralGapObjective,
    "bisection": BisectionObjective,
}


def available_objectives() -> list[str]:
    """Names accepted by :func:`make_objective` (plus ``throughput-<solver>``)."""
    return sorted(_PROXY_OBJECTIVES) + ["throughput-<solver>"]


def make_objective(spec: "str | Objective", **kwargs) -> Objective:
    """Build an objective from a registry name (or pass one through).

    ``"throughput-edge-lp"``, ``"throughput-path-lp"`` etc. require a
    ``traffic`` keyword; remaining keywords go to the objective
    constructor.
    """
    if isinstance(spec, Objective):
        return spec
    if spec in _PROXY_OBJECTIVES:
        return _PROXY_OBJECTIVES[spec](**kwargs)
    if spec.startswith("throughput-"):
        solver = spec[len("throughput-") :]
        if "traffic" not in kwargs:
            raise ExperimentError(
                f"objective {spec!r} needs a traffic= workload"
            )
        traffic = kwargs.pop("traffic")
        return ThroughputObjective(traffic, solver=solver, **kwargs)
    known = ", ".join(available_objectives())
    raise ExperimentError(
        f"unknown objective {spec!r}; known objectives: {known}"
    )
