"""Shared containers and helpers for the figure-reproduction harness.

Beyond the series/result containers, this module hosts the one
seed-sweep evaluation loop every figure used to hand-roll:
:func:`mean_throughput_over_seeds` builds a scenario per child seed,
solves it through the pipeline's cached solver-registry entry point
(:func:`repro.pipeline.evaluate_throughput`), and aggregates. Setting
``REPRO_CACHE_DIR`` therefore warms every figure at once.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.exceptions import ExperimentError
from repro.util.tables import format_table


@dataclass(frozen=True)
class SeriesPoint:
    """One measured point: x, mean y over runs, and run std-deviation."""

    x: float
    y: float
    std: float = 0.0


@dataclass
class ExperimentSeries:
    """A named curve of an experiment figure."""

    name: str
    points: list[SeriesPoint] = field(default_factory=list)

    def add(self, x: float, y: float, std: float = 0.0) -> None:
        """Append a point (kept sorted by x on access)."""
        self.points.append(SeriesPoint(float(x), float(y), float(std)))

    def sorted_points(self) -> list[SeriesPoint]:
        return sorted(self.points, key=lambda p: p.x)

    def xs(self) -> list[float]:
        return [p.x for p in self.sorted_points()]

    def ys(self) -> list[float]:
        return [p.y for p in self.sorted_points()]

    def y_at(self, x: float, tolerance: float = 1e-9) -> float:
        """The y value at a given x (exact match within tolerance)."""
        for point in self.points:
            if abs(point.x - x) <= tolerance:
                return point.y
        raise ExperimentError(f"series {self.name!r} has no point at x={x}")

    def peak(self) -> SeriesPoint:
        """The point with the highest y."""
        if not self.points:
            raise ExperimentError(f"series {self.name!r} is empty")
        return max(self.points, key=lambda p: p.y)

    def normalized_to_peak(self) -> "ExperimentSeries":
        """A copy with y (and std) divided by the series' peak y."""
        peak = self.peak().y
        if peak <= 0:
            raise ExperimentError(
                f"series {self.name!r} has non-positive peak; cannot normalize"
            )
        out = ExperimentSeries(self.name)
        for p in self.sorted_points():
            out.add(p.x, p.y / peak, p.std / peak)
        return out


@dataclass
class ExperimentResult:
    """All series of one figure plus labelling and provenance metadata."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    series: list[ExperimentSeries] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def get_series(self, name: str) -> ExperimentSeries:
        for s in self.series:
            if s.name == name:
                return s
        known = ", ".join(s.name for s in self.series)
        raise ExperimentError(
            f"no series {name!r} in {self.experiment_id}; have: {known}"
        )

    def add_series(self, series: ExperimentSeries) -> None:
        self.series.append(series)

    def to_table(self, float_format: str = "{:.4f}") -> str:
        """Render all series as one aligned text table keyed by x."""
        xs = sorted({p.x for s in self.series for p in s.points})
        headers = [self.x_label] + [s.name for s in self.series]
        rows: list[list[object]] = []
        for x in xs:
            row: list[object] = [x]
            for s in self.series:
                try:
                    row.append(s.y_at(x))
                except ExperimentError:
                    row.append("-")
            rows.append(row)
        header = f"== {self.experiment_id}: {self.title} ==\n"
        header += f"   y: {self.y_label}\n"
        return header + format_table(headers, rows, float_format=float_format)


def mean_and_std(values: Iterable[float]) -> tuple[float, float]:
    """Mean and population std of a non-empty value collection."""
    data = list(values)
    if not data:
        raise ExperimentError("no values to aggregate")
    if len(data) == 1:
        return float(data[0]), 0.0
    return statistics.fmean(data), statistics.pstdev(data)


def mean_throughput_over_seeds(
    build: Callable,
    runs: int,
    seed,
    solver: str = "edge_lp",
    solver_options: "dict | None" = None,
    zero_when_disconnected: bool = True,
) -> tuple[float, float]:
    """Mean/std throughput over ``runs`` independently seeded scenarios.

    ``build(child_seed)`` returns ``(topology, traffic)`` — or ``None`` to
    score the sample as zero throughput (e.g. an infeasible construction).
    Disconnected topologies score zero without solving when
    ``zero_when_disconnected`` (the LP optimum when some demand cannot be
    routed, and how a physically stranded cluster behaves); the workload
    is then never built, which keeps seed consumption identical to the
    historical per-figure loops.
    """
    from repro.pipeline.engine import evaluate_throughput
    from repro.util.rng import spawn_seeds

    options = solver_options or {}
    values: list[float] = []
    for child in spawn_seeds(seed, runs):
        scenario = build(child)
        if scenario is None:
            values.append(0.0)
            continue
        topo, traffic = scenario
        if zero_when_disconnected and not topo.is_connected():
            values.append(0.0)
            continue
        if callable(traffic):
            traffic = traffic()
        result = evaluate_throughput(topo, traffic, solver=solver, **options)
        values.append(result.throughput)
    return mean_and_std(values)
