"""Failure injection and degraded-fabric evaluation.

The paper evaluates intact fabrics, but the companion throughput work
(Jyothi et al., "Measuring and Understanding Throughput of Network
Topologies") and the broader topology-survey literature weight *fault
tolerance* heavily when comparing structured designs (fat-tree, VL2)
against random graphs. This package turns degraded-fabric throughput into
a first-class pipeline axis:

- :class:`FailureSpec` — a declarative failure model (uniform-random link
  failures, uniform-random switch failures, correlated cluster-local
  failures) at a given rate, hashable and JSON round-trippable like the
  other pipeline specs,
- :func:`apply_failures` / :func:`degraded_view` — deterministic sampling
  plus O(1)-construction degraded :class:`~repro.topology.base.Topology`
  views (each filters the intact topology's store on first read; the
  intact topology is never copied or rebuilt),
- nested-by-rate sampling: for one seed, the failed set at rate ``a`` is
  a subset of the failed set at rate ``b > a``, so throughput-vs-rate
  curves are monotone per sample, not just in expectation.

Degraded views are read-only; solve them with ``unreachable="drop"``
(see :mod:`repro.flow.reachability`) so partitioned fabrics report
throughput over the served demand set instead of raising.
"""

from repro.resilience.spec import FAILURE_MODELS, FailureSpec
from repro.resilience.inject import (
    DegradedTopology,
    apply_failures,
    degraded_view,
    failure_seed,
)

__all__ = [
    "FAILURE_MODELS",
    "FailureSpec",
    "DegradedTopology",
    "apply_failures",
    "degraded_view",
    "failure_seed",
]
