"""Figure 12: improving VL2 by rewiring the same equipment (§7).

(a) For each (DA, DI), binary-search the number of ToRs supported at full
throughput under random permutations, for VL2 and for the rewired network,
and plot the ratio — the paper reaches 1.43x at its largest size, with
gains growing with scale.

(b) On the rewired topology sized to its permutation limit, measure
throughput under x% chunky traffic — only majority-chunky patterns dent it.

(c) Repeat (a) requiring full throughput under all-to-all, permutation, and
100% chunky — gains shrink under chunky but remain significant.
"""

from __future__ import annotations

from repro.core.vl2_improvement import (
    max_tors_at_full_throughput,
    vl2_improvement_ratio,
)
from repro.exceptions import ExperimentError
from repro.experiments.common import ExperimentResult, ExperimentSeries, mean_and_std
from repro.pipeline.engine import evaluate_throughput
from repro.topology.vl2 import rewired_vl2_topology
from repro.traffic.registry import make_traffic
from repro.util.rng import spawn_seeds

DEFAULT_DA_VALUES = (4, 6, 8)
DEFAULT_DI_VALUES = (4, 8)
PAPER_DA_VALUES = (6, 8, 10, 12, 14, 16, 18, 20)
PAPER_DI_VALUES = (16, 20, 24, 28)
DEFAULT_SERVERS_PER_TOR = 10
DEFAULT_FABRIC_CAPACITY = 10.0


def run_fig12a(
    da_values: "tuple[int, ...]" = DEFAULT_DA_VALUES,
    di_values: "tuple[int, ...]" = DEFAULT_DI_VALUES,
    servers_per_tor: int = DEFAULT_SERVERS_PER_TOR,
    fabric_capacity: float = DEFAULT_FABRIC_CAPACITY,
    traffic_kind: str = "permutation",
    runs: int = 2,
    seed: "int | None" = 0,
) -> ExperimentResult:
    """Servers supported at full throughput, rewired over VL2 (Figure 12a)."""
    result = ExperimentResult(
        experiment_id="fig12a",
        title="Rewired VL2 vs VL2: servers at full throughput",
        x_label="aggregation switch degree DA",
        y_label="supported servers (ratio over VL2)",
        metadata={
            "servers_per_tor": servers_per_tor,
            "traffic_kind": traffic_kind,
            "runs": runs,
            "seed": seed,
            "vl2_tors": {},
            "rewired_tors": {},
        },
    )
    for di_index, di in enumerate(di_values):
        series = ExperimentSeries(f"{di} Agg Switches (DI={di})")
        for da_index, da in enumerate(da_values):
            child_seed = (
                None
                if seed is None
                else seed * 47_017 + di_index * 191 + da_index
            )
            comparison = vl2_improvement_ratio(
                da,
                di,
                traffic_kind=traffic_kind,
                runs=runs,
                seed=child_seed,
                servers_per_tor=servers_per_tor,
                fabric_capacity=fabric_capacity,
            )
            if comparison.vl2_tors == 0:
                continue
            series.add(da, comparison.ratio)
            result.metadata["vl2_tors"][(di, da)] = comparison.vl2_tors
            result.metadata["rewired_tors"][(di, da)] = comparison.rewired_tors
        result.add_series(series)
    return result


def run_fig12b(
    da_values: "tuple[int, ...]" = DEFAULT_DA_VALUES,
    di: int = 8,
    chunky_percents: "tuple[int, ...]" = (20, 60, 100),
    servers_per_tor: int = DEFAULT_SERVERS_PER_TOR,
    fabric_capacity: float = DEFAULT_FABRIC_CAPACITY,
    runs: int = 2,
    seed: "int | None" = 0,
) -> ExperimentResult:
    """Chunky-traffic throughput on permutation-sized rewired VL2 (Fig 12b).

    The topology for each DA is the rewired network holding the largest ToR
    count that sustains permutations at full throughput; y is the per-flow
    throughput under each chunky mix (1.0 = line rate).
    """
    result = ExperimentResult(
        experiment_id="fig12b",
        title="Rewired VL2 under chunky traffic",
        x_label="aggregation switch degree DA",
        y_label="per-flow throughput (1.0 = line rate)",
        metadata={"di": di, "runs": runs, "seed": seed, "sized_tors": {}},
    )
    series_by_percent = {
        pct: ExperimentSeries(f"{pct}% Chunky") for pct in chunky_percents
    }
    for da_index, da in enumerate(da_values):
        root = None if seed is None else seed * 53_003 + da_index
        rng_children = spawn_seeds(root, 2)

        def builder(num_tors: int, seed=None, da=da) -> object:
            return rewired_vl2_topology(
                da,
                di,
                num_tors=num_tors,
                servers_per_tor=servers_per_tor,
                fabric_capacity=fabric_capacity,
                seed=seed,
            )

        fabric_ports = di * da + (da // 2) * di
        sized = max_tors_at_full_throughput(
            builder,
            fabric_ports // 2 - 1,
            traffic_kind="permutation",
            runs=runs,
            seed=rng_children[0],
        )
        if sized < 2:
            continue
        result.metadata["sized_tors"][da] = sized
        for pct in chunky_percents:
            values = []
            for child in spawn_seeds(rng_children[1], runs):
                topo = builder(sized, seed=child)
                traffic = make_traffic(f"chunky-{pct}", topo, seed=child)
                values.append(evaluate_throughput(topo, traffic).throughput)
            mean, std = mean_and_std(values)
            series_by_percent[pct].add(da, min(mean, 1.0), std)
    for pct in chunky_percents:
        result.add_series(series_by_percent[pct])
    return result


def run_fig12c(
    da_values: "tuple[int, ...]" = DEFAULT_DA_VALUES,
    di: int = 8,
    traffic_kinds: "tuple[str, ...]" = ("all-to-all", "permutation", "chunky-100"),
    servers_per_tor: int = DEFAULT_SERVERS_PER_TOR,
    fabric_capacity: float = DEFAULT_FABRIC_CAPACITY,
    runs: int = 2,
    seed: "int | None" = 0,
) -> ExperimentResult:
    """Improvement ratio when full throughput is required per workload."""
    if not traffic_kinds:
        raise ExperimentError("need at least one traffic kind")
    label_map = {
        "all-to-all": "All-to-All Traffic",
        "permutation": "Permutation Traffic",
        "chunky-100": "100% Chunky Traffic",
    }
    result = ExperimentResult(
        experiment_id="fig12c",
        title="Rewired VL2 vs VL2 under harder workloads",
        x_label="aggregation switch degree DA",
        y_label="supported servers (ratio over VL2)",
        metadata={"di": di, "runs": runs, "seed": seed},
    )
    for kind_index, kind in enumerate(traffic_kinds):
        series = ExperimentSeries(label_map.get(kind, kind))
        for da_index, da in enumerate(da_values):
            child_seed = (
                None
                if seed is None
                else seed * 59_009 + kind_index * 197 + da_index
            )
            comparison = vl2_improvement_ratio(
                da,
                di,
                traffic_kind=kind,
                runs=runs,
                seed=child_seed,
                servers_per_tor=servers_per_tor,
                fabric_capacity=fabric_capacity,
            )
            if comparison.vl2_tors == 0:
                continue
            series.add(da, comparison.ratio)
        result.add_series(series)
    return result
