"""repro — reproduction of "High Throughput Data Center Topology Design".

Singla, Godfrey, Kolla (NSDI 2014). The library provides:

- :mod:`repro.topology` — capacitated switch-level topologies: random
  regular graphs, controlled two-cluster networks, heterogeneous port/line
  speed populations, VL2 and the paper's rewired VL2, plus classical
  baselines,
- :mod:`repro.traffic` — permutation / all-to-all / chunky and other
  traffic matrices,
- :mod:`repro.flow` — exact max concurrent flow (LP), path-restricted LP,
  and a Garg-Koenemann approximation, with the §6.1 throughput
  decomposition,
- :mod:`repro.metrics` — path lengths, cuts, and spectral expansion,
- :mod:`repro.estimate` — calibrated throughput estimators that take
  sweeps to N = 10,000 (capacity-charging bound, sampled cuts, spectral,
  sampled LP) with per-family error bands,
- :mod:`repro.growth` — multi-stage incremental expansion planning and
  throughput-trajectory evaluation (swap growth vs the fat-tree upgrade
  ladder),
- :mod:`repro.core` — the paper's bounds, design rules, two-regime theory,
  and the VL2 improvement pipeline,
- :mod:`repro.simulation` — a packet-level MPTCP simulator,
- :mod:`repro.experiments` — a harness regenerating every figure.

Quickstart::

    from repro import (
        random_regular_topology, random_permutation_traffic,
        max_concurrent_flow, throughput_upper_bound,
    )

    topo = random_regular_topology(40, 10, servers_per_switch=5, seed=0)
    traffic = random_permutation_traffic(topo, seed=1)
    result = max_concurrent_flow(topo, traffic)
    bound = throughput_upper_bound(40, 10, traffic.num_network_flows)
    print(result.throughput, result.throughput / bound)
"""

from repro.exceptions import (
    BoundError,
    ExperimentError,
    FlowError,
    GraphConstructionError,
    ReproError,
    SimulationError,
    SolverError,
    TopologyError,
    TrafficError,
)
from repro.topology import (
    Topology,
    fat_tree_topology,
    heterogeneous_random_topology,
    make_topology,
    mixed_linespeed_topology,
    random_regular_topology,
    rewired_vl2_topology,
    two_cluster_random_topology,
    vl2_topology,
)
from repro.traffic import (
    TrafficMatrix,
    all_to_all_traffic,
    chunky_traffic,
    random_permutation_traffic,
)
from repro.flow import (
    ThroughputResult,
    decompose_throughput,
    garg_koenemann_throughput,
    max_concurrent_flow,
    max_concurrent_flow_paths,
    min_hop_flow,
)
from repro.core import (
    aspl_lower_bound,
    throughput_upper_bound,
    two_part_throughput_bound,
    vl2_improvement_ratio,
)
from repro.metrics import average_shortest_path_length, diameter
from repro.simulation import PacketLevelSimulator, SimulationConfig

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "TopologyError",
    "GraphConstructionError",
    "TrafficError",
    "FlowError",
    "SolverError",
    "BoundError",
    "SimulationError",
    "ExperimentError",
    # topology
    "Topology",
    "random_regular_topology",
    "two_cluster_random_topology",
    "heterogeneous_random_topology",
    "mixed_linespeed_topology",
    "vl2_topology",
    "rewired_vl2_topology",
    "fat_tree_topology",
    "make_topology",
    # traffic
    "TrafficMatrix",
    "random_permutation_traffic",
    "all_to_all_traffic",
    "chunky_traffic",
    # flow
    "ThroughputResult",
    "max_concurrent_flow",
    "max_concurrent_flow_paths",
    "min_hop_flow",
    "garg_koenemann_throughput",
    "decompose_throughput",
    # core
    "aspl_lower_bound",
    "throughput_upper_bound",
    "two_part_throughput_bound",
    "vl2_improvement_ratio",
    # metrics
    "average_shortest_path_length",
    "diameter",
    # simulation
    "PacketLevelSimulator",
    "SimulationConfig",
]
