"""Integration tests: every figure experiment runs at micro scale and
reproduces the paper's qualitative shape.

These are the repository's "does the reproduction reproduce" checks: each
test asserts the *claim* the figure makes (ratios near 1, peaks at
proportional placement, plateaus, thresholds, improvement factors), not
exact numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig01 import run_fig1a, run_fig1b
from repro.experiments.fig02 import run_fig2a, run_fig2b
from repro.experiments.fig03 import run_fig3
from repro.experiments.fig04 import run_fig4a
from repro.experiments.fig05 import run_fig5
from repro.experiments.fig06 import run_fig6a
from repro.experiments.fig07 import run_fig7a
from repro.experiments.fig08 import run_fig8b, run_fig8c
from repro.experiments.fig09 import run_fig9b
from repro.experiments.fig10 import run_fig10a
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12a
from repro.experiments.fig13 import run_fig13
from repro.experiments.heterogeneity import TwoTypeConfig


@pytest.mark.slow
class TestHomogeneousFigures:
    def test_fig1a_ratio_rises_with_density(self):
        result = run_fig1a(
            num_switches=14,
            degrees=(4, 8, 11),
            servers_per_switch_options=(4,),
            include_all_to_all=True,
            runs=2,
            seed=1,
        )
        a2a = result.get_series("All to All")
        assert a2a.ys()[-1] >= a2a.ys()[0]
        assert a2a.ys()[-1] >= 0.9  # near-optimal when dense
        for series in result.series:
            assert all(0 <= y <= 1.0 + 1e-9 for y in series.ys())

    def test_fig1b_bound_below_observed(self):
        result = run_fig1b(num_switches=16, degrees=(3, 5, 7), runs=2, seed=2)
        observed = result.get_series("Observed ASPL")
        bound = result.get_series("ASPL lower-bound")
        for x in observed.xs():
            assert observed.y_at(x) >= bound.y_at(x) - 1e-9

    def test_fig2a_ratio_stays_high(self):
        result = run_fig2a(
            sizes=(12, 18),
            network_degree=5,
            servers_per_switch_options=(4,),
            include_all_to_all=False,
            runs=2,
            seed=3,
        )
        series = result.get_series("Permutation (4 servers per switch)")
        assert all(y >= 0.5 for y in series.ys())

    def test_fig2b_bound_below_observed(self):
        result = run_fig2b(sizes=(12, 20, 30), network_degree=4, runs=2, seed=4)
        observed = result.get_series("Observed ASPL")
        bound = result.get_series("ASPL lower-bound")
        for x in observed.xs():
            assert observed.y_at(x) >= bound.y_at(x) - 1e-9

    def test_fig3_ratio_shrinks_with_size(self):
        result = run_fig3(sizes=(17, 53, 161), degree=4, runs=2, seed=5)
        ratio = result.get_series("Ratio (observed / bound)")
        ys = ratio.ys()
        assert all(y >= 1.0 - 1e-9 for y in ys)
        assert ys[-1] <= ys[0] + 0.05
        assert result.metadata["step_boundaries"][:3] == [5, 17, 53]


@pytest.mark.slow
class TestHeterogeneousFigures:
    SMALL = (TwoTypeConfig(4, 10, 8, 4, 28, label="small"),)

    def test_fig4a_peak_near_proportional(self):
        result = run_fig4a(configs=self.SMALL, max_points=7, runs=2, seed=6)
        series = result.series[0]
        peak_x = series.peak().x
        assert 0.5 <= peak_x <= 1.6
        # Extremes are strictly worse than the peak.
        assert series.ys()[0] < series.peak().y
        assert series.ys()[-1] < series.peak().y

    def test_fig5_beta_one_competitive(self):
        result = run_fig5(
            num_switches=12,
            mean_ports_options=(6.0,),
            betas=(0.0, 1.0, 1.6),
            runs=2,
            seed=7,
        )
        series = result.series[0]
        best = series.peak().y
        assert series.y_at(1.0) >= 0.75 * best

    def test_fig6a_drop_at_low_cross(self):
        result = run_fig6a(
            configs=self.SMALL,
            points=5,
            min_fraction=0.1,
            max_fraction=1.5,
            runs=2,
            seed=8,
        )
        series = result.series[0]
        ys = series.ys()
        assert ys[0] < 0.7 * max(ys)  # starved cut collapses throughput

    def test_fig7a_multiple_optima_include_proportional(self):
        config = TwoTypeConfig(4, 10, 8, 4, 28, label="combined")
        result = run_fig7a(
            config=config, num_splits=3, points=4, runs=2, seed=9
        )
        assert len(result.series) >= 2
        best = max(s.peak().y for s in result.series)
        # Some split must be clearly worse somewhere: deviations lose.
        worst_curve_min = min(min(s.ys()) for s in result.series)
        assert worst_curve_min < 0.8 * best

    def test_fig8b_faster_links_help_at_high_cross(self):
        # Fabric-limited (not access-limited): with 48 servers both series
        # saturate on the access links at high cross connectivity and the
        # line-speed advantage disappears into noise; 36 servers keeps the
        # bottleneck in the fabric where the fast mesh can matter.
        config = TwoTypeConfig(6, 10, 6, 6, 36, label="mixed")
        result = run_fig8b(
            config=config,
            high_ports_per_large=2,
            speeds=(2.0, 8.0),
            points=4,
            min_fraction=0.2,
            max_fraction=1.5,
            runs=3,
            seed=10,
        )
        slow = result.get_series("High-speed = 2")
        fast = result.get_series("High-speed = 8")
        top = max(fast.xs())
        bottom = min(fast.xs())
        # At ample cross connectivity the faster mesh helps ...
        assert fast.y_at(top) >= slow.y_at(top) - 1e-9
        # ... and at a starved cut its benefit vanishes (both cut-limited).
        assert abs(fast.y_at(bottom) - slow.y_at(bottom)) < 0.3 * slow.y_at(top)

    def test_fig8c_more_links_help(self):
        config = TwoTypeConfig(5, 8, 5, 6, 25, label="mixed")
        result = run_fig8c(
            config=config,
            high_counts=(1, 3),
            high_speed=4.0,
            points=4,
            runs=2,
            seed=11,
        )
        few = result.get_series("1 H-links")
        many = result.get_series("3 H-links")
        assert many.peak().y >= few.peak().y - 1e-9


@pytest.mark.slow
class TestExplanatoryFigures:
    def test_fig9b_utilization_tracks_throughput(self):
        # Oversubscribed with a genuinely starved low end so the bottleneck
        # regime appears (the §6.1 setting).
        config = TwoTypeConfig(6, 12, 12, 6, 60, label="dec")
        result = run_fig9b(
            config=config, points=6, min_fraction=0.05, max_fraction=1.5,
            runs=2, seed=12,
        )
        throughput = result.get_series("Throughput")
        utilization = result.get_series("Utilization")
        spl = result.get_series("Inverse SPL")

        # The paper's §6.1 conclusion: utilization explains throughput far
        # better than path length. (a) U moves over a wider range than
        # 1/<D>; (b) at the starved end, U sits much closer to T.
        def swing(series):
            ys = series.ys()
            return max(ys) - min(ys)

        assert swing(utilization) > swing(spl)
        bottom = min(throughput.xs())
        t0 = throughput.y_at(bottom)
        assert abs(utilization.y_at(bottom) - t0) < abs(spl.y_at(bottom) - t0)

    def test_fig9_rerun_against_a_warm_cache_solves_nothing(
        self, tmp_path, monkeypatch
    ):
        # U and AS come from the least-volume optimal flow, which is
        # cached with the throughput it was solved for.
        import repro.flow.edge_lp as edge_lp

        solves = []
        linprog = edge_lp.linprog

        def counting(*args, **kwargs):
            solves.append(kwargs["method"])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(edge_lp, "linprog", counting)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = TwoTypeConfig(4, 10, 8, 4, 28, label="A")
        cold = run_fig9b(config=config, points=3, runs=1, seed=3)
        assert solves and len(solves) % 2 == 0
        count = len(solves)
        warm = run_fig9b(config=config, points=3, runs=1, seed=3)
        assert len(solves) == count
        for name in ("Throughput", "Utilization", "Inverse SPL", "Inverse Stretch"):
            assert warm.get_series(name).ys() == cold.get_series(name).ys()

    def test_fig10a_bound_upper_bounds_throughput(self):
        cases = (TwoTypeConfig(4, 10, 8, 4, 28, label="A"),)
        result = run_fig10a(
            cases=cases, points=5, min_fraction=0.15, max_fraction=1.4,
            runs=2, seed=13,
        )
        bound = result.get_series("Bound A")
        observed = result.get_series("Throughput A")
        for x in observed.xs():
            # Eqn. 1 holds in expectation; permit small sampling slack.
            assert observed.y_at(x) <= bound.y_at(x) * 1.35 + 1e-9
        # And it should be reasonably tight at the plateau for uniform
        # speeds (within a factor ~2 even at micro scale).
        top = observed.xs()[-1]
        assert observed.y_at(top) >= 0.45 * bound.y_at(top)

    def test_fig11_throughput_below_peak_under_threshold(self):
        configs = (
            TwoTypeConfig(4, 10, 8, 4, 28, label="c1"),
            TwoTypeConfig(4, 10, 8, 6, 32, label="c2"),
        )
        result = run_fig11(
            configs=configs, points=6, min_fraction=0.1, max_fraction=1.0,
            runs=2, seed=14,
        )
        for series in result.series:
            threshold = result.metadata["thresholds"][series.name]
            peak = result.metadata["peaks"][series.name]
            for point in series.sorted_points():
                if point.x < threshold * 0.98:
                    assert point.y < peak - 1e-9


@pytest.mark.slow
class TestVl2Figures:
    def test_fig12a_rewired_wins(self):
        result = run_fig12a(
            da_values=(4,),
            di_values=(4,),
            servers_per_tor=20,
            runs=2,
            seed=15,
        )
        series = result.series[0]
        assert series.ys()[0] >= 1.0

    def test_fig13_packet_close_to_flow(self):
        result = run_fig13(
            da_values=(4,),
            di=4,
            servers_per_tor=10,
            runs=1,
            seed=16,
            duration=250.0,
            warmup=100.0,
            subflows=4,
            packet_size=0.5,
        )
        flow = result.get_series("Flow-level").ys()[0]
        packet = result.get_series("Packet-level").ys()[0]
        packet_min = result.get_series("Packet-level (min flow)").ys()[0]
        assert 0.0 < flow < 1.0  # genuinely oversubscribed
        # Efficiency: the transport recovers most of the fluid optimum.
        assert packet >= 0.6 * flow
        # Validity: no allocation's minimum flow can beat the LP maximin.
        assert packet_min <= flow * 1.05


def test_fig5_betas_of_a_curve_share_instances(monkeypatch):
    """Every β point of a Figure-5 curve averages over the same port lists
    (common random numbers), so only the server placement varies."""
    import repro.experiments.fig05 as fig05

    drawn = []
    draw = fig05.power_law_ports_with_mean

    def recording(*args, **kwargs):
        ports = draw(*args, **kwargs)
        drawn.append(tuple(ports))
        return ports

    monkeypatch.setattr(fig05, "power_law_ports_with_mean", recording)
    runs = 2
    run_fig5(
        num_switches=12,
        mean_ports_options=(6.0,),
        betas=(0.0, 1.0),
        runs=runs,
        seed=7,
    )
    assert len(drawn) == 2 * runs
    assert drawn[:runs] == drawn[runs:]
