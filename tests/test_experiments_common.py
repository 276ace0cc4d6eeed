"""Tests for experiment containers and aggregation helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSeries,
    SeriesPoint,
    mean_and_std,
)


class TestSeries:
    def test_add_and_sort(self):
        series = ExperimentSeries("s")
        series.add(2.0, 0.5)
        series.add(1.0, 0.25)
        assert series.xs() == [1.0, 2.0]
        assert series.ys() == [0.25, 0.5]

    def test_y_at(self):
        series = ExperimentSeries("s")
        series.add(1.0, 0.3)
        assert series.y_at(1.0) == 0.3
        with pytest.raises(ExperimentError, match="no point"):
            series.y_at(9.0)

    def test_peak(self):
        series = ExperimentSeries("s")
        series.add(1.0, 0.3)
        series.add(2.0, 0.9)
        series.add(3.0, 0.6)
        assert series.peak() == SeriesPoint(2.0, 0.9, 0.0)

    def test_peak_of_empty_rejected(self):
        with pytest.raises(ExperimentError, match="empty"):
            ExperimentSeries("s").peak()

    def test_normalized_to_peak(self):
        series = ExperimentSeries("s")
        series.add(1.0, 0.5, std=0.1)
        series.add(2.0, 1.0)
        normalized = series.normalized_to_peak()
        assert normalized.y_at(1.0) == pytest.approx(0.5)
        assert normalized.y_at(2.0) == pytest.approx(1.0)
        assert normalized.sorted_points()[0].std == pytest.approx(0.1)

    def test_normalize_zero_peak_rejected(self):
        series = ExperimentSeries("s")
        series.add(1.0, 0.0)
        with pytest.raises(ExperimentError, match="non-positive"):
            series.normalized_to_peak()


class TestResult:
    def _result(self) -> ExperimentResult:
        result = ExperimentResult("id", "title", "x", "y")
        a = ExperimentSeries("a")
        a.add(1.0, 0.1)
        a.add(2.0, 0.2)
        b = ExperimentSeries("b")
        b.add(2.0, 0.9)
        result.add_series(a)
        result.add_series(b)
        return result

    def test_get_series(self):
        result = self._result()
        assert result.get_series("a").name == "a"
        with pytest.raises(ExperimentError, match="no series"):
            result.get_series("zz")

    def test_table_contains_all_points(self):
        table = self._result().to_table()
        assert "id" in table and "title" in table
        assert "0.9000" in table
        assert "-" in table  # series b has no point at x=1


class TestAggregation:
    def test_mean_and_std(self):
        mean, std = mean_and_std([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(0.8164965809)

    def test_single_value(self):
        assert mean_and_std([4.0]) == (4.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError, match="no values"):
            mean_and_std([])
