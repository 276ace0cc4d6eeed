"""The paper's contribution: bounds, design rules, and the VL2 case study.

- :mod:`repro.core.bounds` — Theorem 1's capacity/path-length throughput
  bound and the Cerf et al. ASPL lower bound with its "curved step"
  structure (Figures 1-3),
- :mod:`repro.core.cut_bounds` — the two-part Equation 1 bound, the
  Equation 2 drop point, and the empirical C̄* threshold (Figures 10-11),
- :mod:`repro.core.theory` — Theorem 2's two-regime throughput model for
  two-cluster random graphs,
- :mod:`repro.core.placement` / :mod:`repro.core.interconnect` — server
  placement and cross-cluster wiring rules (Figures 4-8; the joint
  placement x interconnect sweep is Figure 7's
  :func:`repro.experiments.fig07.run_fig7`),
- :mod:`repro.core.optimality` — throughput-vs-bound gap measurements,
- :mod:`repro.core.vl2_improvement` — binary search for servers supported
  at full throughput, VL2 vs rewired VL2 (Figure 12).
"""

from repro.core.bounds import (
    aspl_lower_bound,
    aspl_step_boundaries,
    rrg_diameter_upper_bound,
    throughput_upper_bound,
)
from repro.core.cut_bounds import (
    cut_drop_point,
    expected_cross_flow_fraction,
    threshold_cross_capacity,
    two_part_throughput_bound,
)
from repro.core.theory import (
    predicted_profile,
    q_star,
    two_regime_throughput,
)
from repro.core.placement import (
    expected_share_per_switch,
    feasible_server_splits,
    server_placement_ratio,
)
from repro.core.interconnect import feasible_cross_fractions
from repro.core.cabling import (
    CableReport,
    cable_report,
    compare_layouts,
    grid_layout,
    linear_layout,
)
from repro.core.optimality import bound_ratio, measure_optimality_gap
from repro.core.vl2_improvement import (
    max_tors_at_full_throughput,
    supports_full_throughput,
    vl2_improvement_ratio,
)

__all__ = [
    "aspl_lower_bound",
    "aspl_step_boundaries",
    "rrg_diameter_upper_bound",
    "throughput_upper_bound",
    "cut_drop_point",
    "expected_cross_flow_fraction",
    "threshold_cross_capacity",
    "two_part_throughput_bound",
    "predicted_profile",
    "q_star",
    "two_regime_throughput",
    "expected_share_per_switch",
    "feasible_server_splits",
    "server_placement_ratio",
    "feasible_cross_fractions",
    "CableReport",
    "cable_report",
    "compare_layouts",
    "grid_layout",
    "linear_layout",
    "bound_ratio",
    "measure_optimality_gap",
    "max_tors_at_full_throughput",
    "supports_full_throughput",
    "vl2_improvement_ratio",
]
