"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload of ``workloads.py``:

1. set-up: imports, inputs from the seed (and the workload's prefill, if
   any), then one warm-up repetition. :data:`SETUP_SAMPLES` - 1 more
   cold set-ups run in fresh processes (``--setup-only``), so every
   sample pays the process's one-time costs;
2. the timed phase: whole passes over the workload's input sets while
   the next pass is expected to end within ``--seconds`` (at least one),
   each repetition on a fresh cache directory under ``.perfbench_run/``;
3. output checks, outside the timed phase.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see ``tracing.py``), plus the tracing overhead. Metric
names and units are those of ``BENCHMARK.json``. A readable table comes
first; the last line of stdout is one JSON object. Exits 1 when any item
failed its checks, 2 when the program source is missing.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

#: Set before the interpreter starts (the hash seed cannot change later):
#: single-threaded BLAS keeps a 2-vCPU VM from oversubscribing, and one
#: malloc arena keeps the scheduler's dispatcher thread from holding a
#: second heap, which made peak RSS jump by ~10 MB from run to run.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_ARENA_MAX": "1",
}
if __name__ == "__main__" and any(
    os.environ.get(key) != value for key, value in PINNED_ENV.items()
):
    os.execve(
        sys.executable,
        [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
        {**os.environ, **PINNED_ENV},
    )

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from statistics import median  # noqa: E402

from measure import NOMINAL_UNIT_MS, Meter  # noqa: E402
from tracing import (  # noqa: E402
    Recorder,
    attributed_frac,
    instrument,
    layer_summary,
    write_spans,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

#: Cold set-ups whose median is ``setup_s``: this process's own and
#: ``SETUP_SAMPLES - 1`` fresh ``--setup-only`` processes.
SETUP_SAMPLES = 3
#: Seconds a ``--setup-only`` process may take.
SETUP_TIMEOUT_S = 60


def metric_units(kind: str) -> "dict[str, str]":
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics of
    ``BENCHMARK.json``, the one place they are defined."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@dataclass
class Repetition:
    #: Index of the input set the repetition ran.
    index: int
    meter: Meter
    #: ``workloads.RepOutput``; ``None`` when the repetition raised.
    output: object
    error: "str | None" = None
    #: ``tracing.layer_summary`` plus ``bytes_written`` (traced only).
    layers: "dict | None" = None
    recorder: "Recorder | None" = None


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def run_repetition(
    workload, sets: list, index: int, workdir: Path, traced: bool
) -> Repetition:
    """One timed pipeline call on input set ``index``; ``traced`` records
    spans around it."""
    inputs = sets[index]
    if workload.fresh_cache:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    else:
        cache_dir = inputs.cache_dir
    recorder = Recorder() if traced else None
    meter = Meter(
        workload.burst, workload.kernel_units, workload.kernel_exponent, recorder
    )
    before = _dir_bytes(cache_dir) if traced else 0
    rep = Repetition(index=index, meter=meter, output=None, recorder=recorder)
    with instrument(recorder) if traced else nullcontext():
        meter.start()
        try:
            with recorder.span("pipeline.run") if traced else nullcontext():
                rep.output = workload.repeat(inputs, cache_dir, meter.progress)
        except Exception:
            rep.error = traceback.format_exc()
        meter.stop()
    if traced:
        rep.layers = layer_summary(recorder)
        rep.layers["bytes_written"] = _dir_bytes(cache_dir) - before
    if workload.fresh_cache:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return rep


def set_up(workload, seed: int, workdir: Path) -> list:
    """Input sets, then one warm-up repetition on set 0."""
    sets = workload.inputs(seed, workdir)
    warm = run_repetition(workload, sets, 0, workdir, traced=False)
    if warm.error:
        sys.stderr.write(warm.error)
    return sets


def cold_setup_s(workload, seed: int) -> float:
    """Seconds from process start to the end of set-up, in a fresh
    ``--setup-only`` process."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload.name,
            "--seed",
            str(seed),
            "--setup-only",
        ],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=False,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"--setup-only exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def timed_phase(workload, sets: list, workdir: Path, seconds: float, trace: bool):
    """Rounds of repetitions while the next round is expected to end
    within ``seconds`` (at least one round).

    Untraced, a round is one pass over every set, so each run of a seed
    times the same instances whatever the program's speed. With
    ``trace``, a round is an untraced and a traced repetition of set 0,
    so traced and untraced ones do the same work.
    """
    if trace:
        schedule = [(0, False), (0, True)]
    else:
        schedule = [(index, False) for index in range(len(sets))]
    reps: "list[Repetition]" = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for index, traced in schedule:
            reps.append(run_repetition(workload, sets, index, workdir, traced))
            if reps[-1].error:
                sys.stderr.write(reps[-1].error)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return reps


def count_failures(workload, sets: list, reps, seed: int) -> "tuple[int, int]":
    """``(attempted, failed)`` items over the timed repetitions.

    The workload's checks run on the first completed repetition of each
    input set; every later repetition of that set must reproduce it bit
    for bit. A repetition that raised fails all its items.
    """
    attempted = failed = 0
    first: dict = {}
    for rep in reps:
        items = workload.items(sets[rep.index])
        attempted += items
        out = rep.output
        if out is None or len(out.values) != items:
            failed += items
            continue
        if rep.index not in first:
            try:
                flags = workload.check(sets[rep.index], out, seed, rep.index)
            except Exception:
                sys.stderr.write(traceback.format_exc())
                flags = [True] * items
            first[rep.index] = (out, flags)
        done, flags = first[rep.index]
        for item in range(items):
            same = (out.values[item], out.hits[item]) == (
                done.values[item],
                done.hits[item],
            )
            failed += flags[item] or not same
    return attempted, failed


def end_to_end(
    workload, sets: list, reps, setup_wall_s: float, attempted: int, failed: int
) -> "tuple[dict, dict]":
    """The metrics, and the raw wall-clock figures behind them.

    Times are in nominal seconds: the VM's speed drifts by over 25%
    between runs minutes apart, which a raw rate or set-up time carries
    straight into the comparison of two commits. The rate scales each
    untraced repetition by the kernel calls made during it, to the
    workload's exponent; set-up, which has too few of its own, by those
    of the whole timed phase right after, linearly: its time followed the
    kernel's too loosely (correlation 0.3-0.8) to fit an exponent.
    """
    untraced = [rep.meter for rep in reps if rep.layers is None]
    items = sum(
        workload.work(sets[rep.index]) for rep in reps if rep.layers is None
    )
    meters = [rep.meter for rep in reps]
    slowdown = sum(sum(m.kernels) for m in meters) / sum(
        len(m.kernels) * m.units * NOMINAL_UNIT_MS / 1e3 for m in meters
    )
    metrics = {
        "norm_items_per_s": items / sum(m.norm_work_s for m in untraced),
        "setup_s": setup_wall_s / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_frac": 1.0 - failed / attempted,
    }
    raw = {
        "items_per_s": items / sum(m.work_s for m in untraced),
        "setup_wall_s": setup_wall_s,
        "kernel_slowdown": slowdown,
    }
    return metrics, raw


def per_layer(reps, items: int, units: int, names) -> "tuple[dict, list]":
    """Per-repetition layer metrics of the traced repetitions, and rows of
    ``(layer, self seconds, share of traced wall)``."""
    traced = [rep for rep in reps if rep.layers is not None]
    untraced = [rep for rep in reps if rep.layers is None]
    first = traced[0].layers
    for rep in traced[1:]:
        if rep.layers["counts"] != first["counts"]:
            print(
                "perfbench: layer counts differ between traced repetitions",
                file=sys.stderr,
            )
    wall = sum(rep.meter.wall for rep in traced) / len(traced)
    self_s = {
        layer: sum(rep.layers["self_s"][layer] for rep in traced) / len(traced)
        for layer in first["self_s"]
    }
    counts = first["counts"]
    lookups = counts["cache.hits"] + counts["cache.misses"]
    modes = traced[0].output.modes if traced[0].output is not None else {}
    kernel_ms = [
        k / units * 1e3 for rep in reps for k in rep.meter.kernels
    ]
    metrics = {f"{layer}_s": self_s[layer] for layer in self_s}
    metrics.update(
        {
            "lp.solve_p50_ms": median(
                ms for rep in traced for ms in rep.layers["solve_ms"]
            )
            if counts["lp.solves"]
            else 0.0,
            "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
            "cache.bytes_written": first["bytes_written"],
            "replay.cold_builds": modes.get("cold", 0),
            "replay.warm_steps": modes.get("warm", 0),
            "replay.cache_steps": modes.get("cache", 0),
            "pipeline.items": items,
            "ref.kernel_ms": median(kernel_ms),
            "trace.overhead_frac": median(
                rep.meter.norm_work_s for rep in traced
            )
            / median(rep.meter.norm_work_s for rep in untraced)
            - 1.0,
            "trace.attributed_frac": attributed_frac(self_s, wall),
        }
    )
    metrics.update(counts)
    rows = sorted(
        ((layer, seconds, seconds / wall) for layer, seconds in self_s.items()),
        key=lambda row: -row[1],
    )
    return {name: metrics[name] for name in names}, rows


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<24} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up once, print its seconds as JSON and exit",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        sets = set_up(workload, args.seed, workdir)
        setups = [time.perf_counter() - T_START]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        setups += [
            cold_setup_s(workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        reps = timed_phase(
            workload, sets, workdir, args.seconds, bool(args.trace)
        )
        attempted, failed = count_failures(workload, sets, reps, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_units, layer_units = metric_units("end_to_end"), metric_units("per_layer")
    items = workload.items(sets[0])
    e2e, raw = end_to_end(
        workload, sets, reps, median(setups), attempted, failed
    )
    _print_table(
        f"== {workload.name} seed={args.seed}: {len(reps)} repetitions of "
        f"{items} items, {failed}/{attempted} items failed ==",
        [(name, e2e[name], unit) for name, unit in end_units.items()]
        + [
            ("raw items_per_s", raw["items_per_s"], "1/s"),
            ("raw setup_s", raw["setup_wall_s"], "s"),
            ("kernel slowdown", raw["kernel_slowdown"], "x nominal"),
        ],
    )
    print("  set-up samples: " + ", ".join(f"{s:.3f} s" for s in setups))
    if args.trace:
        metrics, rows = per_layer(
            reps, items, workload.kernel_units, layer_units
        )
        print("== traced layers: self seconds per repetition, share of wall ==")
        for layer, seconds, share in rows:
            print(f"  {layer:<24} {seconds:>12.6f} s {share:>8.1%}")
        _print_table(
            "== per-layer metrics ==",
            [(name, metrics[name], unit) for name, unit in layer_units.items()],
        )
        write_spans(
            WORK / f"spans_{workload.name}.json",
            [rep.recorder for rep in reps if rep.recorder is not None],
        )
        units = layer_units
    else:
        metrics = {name: e2e[name] for name in end_units}
        units = end_units
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
