"""Traffic matrices: the workloads the paper evaluates.

All constructors return a switch-level :class:`~repro.traffic.base.TrafficMatrix`
whose demands count unit server flows between switch pairs. Server-level
pair lists are retained where the packet simulator needs them (permutations,
chunky), and omitted for dense matrices (all-to-all).

Time-varying traffic lives in :mod:`repro.traffic.timeline`: a
:class:`~repro.traffic.timeline.TrafficTimeline` folds per-step
:class:`~repro.traffic.timeline.DemandDelta` records over a base matrix,
generated synthetically (:mod:`repro.traffic.vdc`) or ingested from
CSV/JSON traces.
"""

from repro.traffic.base import TrafficMatrix, servers_of
from repro.traffic.permutation import (
    random_permutation_traffic,
    switch_permutation_traffic,
)
from repro.traffic.alltoall import all_to_all_traffic
from repro.traffic.chunky import chunky_traffic
from repro.traffic.stride import stride_traffic
from repro.traffic.hotspot import hotspot_traffic
from repro.traffic.gravity import gravity_traffic
from repro.traffic.adversarial import longest_matching_traffic
from repro.traffic.timeline import (
    DemandDelta,
    TrafficTimeline,
    available_timelines,
    make_timeline,
    read_trace,
    register_timeline,
    write_trace,
)
from repro.traffic.vdc import vdc_snapshot_traffic, vdc_timeline
from repro.traffic.registry import (
    available_traffic_models,
    make_traffic,
    register_traffic_model,
)

__all__ = [
    "TrafficMatrix",
    "servers_of",
    "random_permutation_traffic",
    "switch_permutation_traffic",
    "all_to_all_traffic",
    "chunky_traffic",
    "stride_traffic",
    "hotspot_traffic",
    "gravity_traffic",
    "longest_matching_traffic",
    "DemandDelta",
    "TrafficTimeline",
    "available_timelines",
    "make_timeline",
    "read_trace",
    "register_timeline",
    "write_trace",
    "vdc_snapshot_traffic",
    "vdc_timeline",
    "available_traffic_models",
    "make_traffic",
    "register_traffic_model",
]
