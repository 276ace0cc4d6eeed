"""Tests for placement rules, interconnect sweeps, and their joint sweep."""

from __future__ import annotations

import pytest

from repro.core.interconnect import feasible_cross_fractions
from repro.core.placement import (
    expected_share_per_switch,
    feasible_server_splits,
    proportional_split_for,
    server_placement_ratio,
)
from repro.exceptions import ExperimentError
from repro.experiments.fig07 import run_fig7
from repro.experiments.heterogeneity import TwoTypeConfig


class TestPlacementNormalization:
    def test_expected_share(self):
        # 480 servers, 30-port switch in a 1000-port network -> 14.4.
        assert expected_share_per_switch(480, 30, 1000) == pytest.approx(14.4)

    def test_ratio(self):
        assert server_placement_ratio(24, 480, 30, 1000) == pytest.approx(
            24 / 14.4
        )

    def test_switch_ports_exceeding_total_rejected(self):
        with pytest.raises(ExperimentError, match="exceeds"):
            expected_share_per_switch(10, 20, 10)


class TestFeasibleSplits:
    def test_totals_and_budgets(self):
        splits = feasible_server_splits(8, 15, 16, 5, 96)
        assert splits
        for split in splits:
            total = split.totals(8, 16)
            assert total == 96
            assert split.servers_per_large <= 14
            assert split.servers_per_small <= 4

    def test_ratios_increase(self):
        splits = feasible_server_splits(8, 15, 16, 5, 96)
        ratios = [s.ratio for s in splits]
        assert ratios == sorted(ratios)

    def test_proportional_split_near_one(self):
        split = proportional_split_for(8, 15, 16, 5, 96)
        assert abs(split.ratio - 1.0) < 0.25

    def test_infeasible_total_rejected(self):
        with pytest.raises(ExperimentError, match="no feasible"):
            feasible_server_splits(2, 3, 2, 3, 100)


class TestFeasibleCrossFractions:
    def test_range_and_count(self):
        fractions = feasible_cross_fractions(8, 7, 16, 2, points=6)
        assert len(fractions) == 6
        assert fractions == sorted(fractions)
        assert fractions[0] >= 0.1

    def test_upper_clip(self):
        # Tiny small-cluster stubs force the max below 2.0.
        fractions = feasible_cross_fractions(
            8, 10, 4, 2, points=5, max_fraction=5.0
        )
        from repro.topology.two_cluster import expected_cross_links

        expected = expected_cross_links(80, 8)
        assert fractions[-1] <= 8 / expected + 1e-9

    def test_empty_range_rejected(self):
        # Feasible max here is ~1.1x expectation (the small cluster has only
        # 4 stubs), so a sweep starting at 1.5 has nowhere to go.
        with pytest.raises(ExperimentError, match="empty sweep"):
            feasible_cross_fractions(
                4, 10, 4, 1, points=3, min_fraction=1.5, max_fraction=2.0
            )

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ExperimentError, match="min_fraction"):
            feasible_cross_fractions(4, 4, 4, 4, min_fraction=0.5, max_fraction=0.2)


class TestJointSweep:
    """§5's placement x interconnect sweep, as Figure 7 runs it."""

    def test_proportional_near_top(self):
        """The paper's rule: proportional + vanilla random is among the
        optima. Demand it lands within 15% of the best."""
        # Oversubscribed on purpose: the paper's placement claim concerns
        # the capacity-bound regime (underloaded networks instead reward
        # whatever shortens paths).
        config = TwoTypeConfig(4, 12, 8, 6, 40)
        result = run_fig7(
            config=config,
            num_splits=5,
            points=3,
            min_fraction=0.6,
            max_fraction=1.4,
            runs=2,
            seed=7,
        )
        ratios = {
            f"{split.servers_per_large}H, {split.servers_per_small}L": split.ratio
            for split in feasible_server_splits(4, 12, 8, 6, 40)
        }
        best = max(series.peak().y for series in result.series)
        # The integer split grid is coarse at this scale: the nearest
        # feasible splits to proportional (4H 3L and 6H 2L) sit at ratios
        # 0.8 and 1.2.
        closest = min(abs(ratios[series.name] - 1.0) for series in result.series)
        near_proportional = [
            series.y_at(1.0)
            for series in result.series
            if abs(ratios[series.name] - 1.0) <= closest + 1e-9
        ]
        assert near_proportional
        assert max(near_proportional) >= 0.85 * best
