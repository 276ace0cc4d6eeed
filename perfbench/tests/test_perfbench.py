"""Tests of the benchmark's own code (not collected by the tier-1 run):

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import run  # noqa: E402
from measure import Meter  # noqa: E402
from tracing import Recorder, Span, attributed_frac, self_times  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    REFERENCE_PATH,
    WORKLOADS,
    RepOutput,
)


def _span(name, start, end, parent):
    return Span(name=name, start=start, end=end, parent=parent, item=-1)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        # Overlaps "a": the overlap counts once against the root.
        _span("b", 3.0, 6.0, 0),
        # Reaches past its parent: only the part inside counts.
        _span("b.child", 5.0, 7.0, 3),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 2.0])


def test_attribution_leaves_out_kernel_and_pipeline_remainders():
    self_s = {
        "lp.solve": 5.0,
        "cache.get": 1.0,
        "ref.kernel": 2.0,
        "pipeline.eval": 1.0,
        "pipeline.overhead": 1.0,
    }
    # 6 named seconds of the 8 outside the kernel.
    assert attributed_frac(self_s, wall=10.0) == pytest.approx(0.75)


class _InstantWorkload:
    """Three sets whose repetitions land one item each, instantly."""

    fresh_cache = False
    burst = 1
    kernel_units = 1
    kernel_exponent = 1.0

    def repeat(self, inputs, cache_dir, progress):
        progress(1, 1, None)
        return RepOutput([1.0], [True])


@pytest.mark.parametrize("seconds", [0.0, 0.5])
def test_timed_phase_runs_whole_passes(seconds, tmp_path):
    sets = [type("Set", (), {"cache_dir": str(tmp_path)})() for _ in range(3)]
    reps = run.timed_phase(_InstantWorkload(), sets, tmp_path, seconds, False)
    assert len(reps) % 3 == 0
    assert [rep.index for rep in reps] == [0, 1, 2] * (len(reps) // 3)
    if seconds:
        assert len(reps) > 3


def test_metric_names_come_from_the_benchmark_definition():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert list(run.metric_units("end_to_end")) == [
        metric["name"] for metric in spec["end_to_end"]
    ]
    assert run.metric_units("per_layer")["lp.solves"] == "count"


def test_span_on_another_thread_nests_under_the_owner_span():
    recorder = Recorder()
    with recorder.span("pipeline.run"):
        worker = threading.Thread(
            target=recorder.open, args=("pipeline.eval",), kwargs={"new_item": True}
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    run_span, eval_span = recorder.spans
    assert eval_span.parent == 0 and eval_span.item == 0
    assert run_span.item == -1


def _reference_output(workload, sets) -> RepOutput:
    stored = json.loads(REFERENCE_PATH.read_text())[workload.name][0]
    values = [float.fromhex(text) for text in stored]
    return RepOutput(values, [not workload.fresh_cache] * len(values))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_throughput_off_by_1e6_fails_its_item(name, tmp_path):
    workload = WORKLOADS[name]
    sets = workload.inputs(DEFAULT_SEED, tmp_path)
    good = _reference_output(workload, sets)
    assert not any(workload.check(sets[0], good, DEFAULT_SEED, 0))
    bad = RepOutput(list(good.values), list(good.hits))
    bad.values[-1] *= 1 + 1e-6
    flags = workload.check(sets[0], bad, DEFAULT_SEED, 0)
    assert flags == [False] * (len(flags) - 1) + [True]


def test_failed_items_are_counted_per_repetition(tmp_path):
    workload = WORKLOADS["sweep_exact"]
    sets = workload.inputs(DEFAULT_SEED, tmp_path)
    good = _reference_output(workload, sets)
    drifted = RepOutput(list(good.values), list(good.hits))
    drifted.values[0] *= 1 + 1e-6

    def rep(output):
        return run.Repetition(index=0, meter=Meter(1, 1, 1.0), output=output)

    reps = [rep(good), rep(drifted), rep(None)]
    items = workload.items(sets[0])
    # The drifted item differs from the checked first run; the raised
    # repetition fails all of its items.
    assert run.count_failures(workload, sets, reps, DEFAULT_SEED) == (
        3 * items,
        1 + items,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_counts_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    sets = workload.inputs(DEFAULT_SEED, tmp_path)
    first, second = (
        run.run_repetition(workload, sets, 0, tmp_path, traced=True)
        for _ in range(2)
    )
    for rep in (first, second):
        assert rep.error is None
    assert first.layers["counts"] == second.layers["counts"]
    assert first.layers["bytes_written"] == second.layers["bytes_written"]
    assert first.output.modes == second.output.modes
    counts, self_s = first.layers["counts"], first.layers["self_s"]
    if name in ("rerun_cached", "sweep_estimate"):
        assert counts["lp.solves"] == 0
    else:
        assert counts["lp.solves"] > 0
        assert max(self_s, key=self_s.get) == "lp.solve"
