"""Command-line entry point: ``repro-experiments``.

Examples::

    repro-experiments list
    repro-experiments run fig1a fig1b --runs 3 --seed 0
    repro-experiments run fig12a --paper
    repro-experiments run all --out results.txt
    repro-experiments analyze topo.json --traffic gravity
    repro-experiments sweep --topologies rrg --topo-param network_degree=6 \\
        --topo-param servers_per_switch=4 --sizes 16,24 \\
        --traffics permutation,stride --solvers edge_lp,ecmp --seeds 3 \\
        --workers 4 --cache-dir .sweep-cache --json sweep.json --csv sweep.csv
    repro-experiments sweep --grid grid.json --workers 4
    repro-experiments sweep --topologies rrg --topo-param network_degree=6 \\
        --topo-param servers_per_switch=4 --sizes 24 --seeds 3 \\
        --failure-rates 0 0.02 0.05 0.1 --failure-model random_links
    repro-experiments sweep --topologies rrg --topo-param network_degree=8 \\
        --topo-param servers_per_switch=1 --sizes 1000,5000,10000 \\
        --traffics permutation --solvers estimate_bound,estimate_cut
    repro-experiments sweep --grid grid.json --manifest run-manifest.json
    repro-experiments sweep --resume run-manifest.json
    repro-experiments serve --socket eval.sock --workers 4 \\
        --cache-dir .sweep-cache
    repro-experiments submit --socket eval.sock --grid grid.json \\
        --priority interactive
    repro-experiments fidelity --k 4 --runs 2
    repro-experiments grow --start 64 --target 2048 --stages 5 \\
        --degree 8 --servers-per-switch 4 \\
        --strategies swap,rebuild,fattree_upgrade --seeds 2 \\
        --workers 4 --cache-dir .sweep-cache --json growth.json
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
from contextlib import contextmanager

from repro.experiments.registry import (
    available_experiments,
    describe_experiments,
    run_experiment,
)


def _parse_value(text: str):
    """Parse a CLI parameter value: int/float/bool/tuple where possible."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_params(entries: "list[str] | None") -> dict:
    """Parse repeated ``key=value`` flags into a keyword dict."""
    params: dict = {}
    for entry in entries or ():
        key, sep, value = entry.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad parameter {entry!r}; expected key=value")
        params[key] = _parse_value(value)
    return params


def _split_list(text: "str | None") -> list[str]:
    return [item for item in (text or "").split(",") if item]


#: The flags that more than one subcommand takes, each defined once as
#: ``add_argument`` keywords. ``_add_flags`` adds them to a subcommand and
#: applies that subcommand's overrides there. (An argparse parent parser
#: would share one action object between subcommands, so one
#: subcommand's default would change every other's.)
_FLAGS: "dict[str, dict]" = {
    "--workers": dict(type=int, default=1, help="worker processes"),
    "--cache-dir": dict(
        type=str,
        default=None,
        help="content-addressed result cache directory (reused across runs)",
    ),
    "--quiet": dict(action="store_true", help="suppress per-item progress"),
    "--seed": dict(type=int, default=None, help="root RNG seed"),
    "--json": dict(
        type=str, default=None, help="write the full result as JSON here"
    ),
    "--csv": dict(
        type=str, default=None, help="write the result rows as CSV here"
    ),
    "--traffic": dict(
        type=str,
        default="permutation",
        help="traffic model (default: permutation)",
    ),
    "--name": dict(type=str, help="name recorded in artifacts"),
    "--base-seed": dict(
        type=int, default=0, help="root seed the replicates derive from"
    ),
    "--paper": dict(
        action="store_true",
        help="use paper-scale parameters (slow; minutes to hours)",
    ),
    "--runs": dict(type=int, default=None, help="runs per point"),
    "--grid": dict(
        type=str,
        default=None,
        help="JSON grid config file (ScenarioGrid.to_dict schema)",
    ),
    "--topo-param": dict(
        action="append",
        metavar="KEY=VALUE",
        help="topology constructor parameter, applied to every topology "
        "(repeatable)",
    ),
    "--solver-param": dict(
        action="append",
        metavar="KEY=VALUE",
        help="solver option, applied to every solver (repeatable)",
    ),
    "--failure-model": dict(
        type=str,
        default="random_links",
        help="failure model: random_links, random_switches, or correlated "
        "(default: random_links)",
    ),
    "--seeds": dict(type=int, default=1, help="replicates per combination"),
    "--manifest": dict(
        type=str,
        default=None,
        help="write a resumable run manifest here (rewritten atomically "
        "after every completed work item)",
    ),
    "--resume": dict(
        type=str,
        default=None,
        metavar="MANIFEST",
        help="re-attach to an interrupted run: work items the manifest "
        "records are skipped, the rest re-run against its cache (other "
        "flags are ignored)",
    ),
    "--profile": dict(
        type=str,
        nargs="?",
        default=None,
        metavar="PATH",
        help="emit a repro.perf JSON span artifact (timer spans + cProfile "
        "hotspots; cProfile covers this process only — with --workers > 1 "
        "the solve time lives in the span records) to PATH "
        "(default: %(const)s)",
    ),
    "--socket": dict(
        type=str,
        default="repro-eval.sock",
        help="daemon unix socket path (default: %(default)s)",
    ),
    "--solver": dict(type=str),
    "--exact-limit": dict(
        type=int,
        help="largest fabric (switches) solved by the exact LP; larger "
        "ones use --estimator",
    ),
    "--estimator": dict(
        type=str,
        default="estimate_bound",
        help="calibrated estimator backend for fabrics above --exact-limit",
    ),
    "--anneal-steps": dict(type=int),
}


def _add_flags(parser, *flags: str, **overrides: dict) -> None:
    """Add the named ``_FLAGS`` to a subcommand's parser.

    ``overrides`` maps a flag's dest to the ``add_argument`` keywords
    that differ in this subcommand, such as its default.
    """
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        parser.add_argument(flag, **{**_FLAGS[flag], **overrides.get(dest, {})})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the figures of 'High Throughput Data Center Topology "
            "Design' (NSDI 2014)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="list available experiment ids")
    listing.set_defaults(func=_run_list)

    from repro.traffic.registry import available_traffic_models

    analyze = sub.add_parser(
        "analyze", help="analyze a serialized topology (JSON) under a workload"
    )
    analyze.set_defaults(func=_run_analyze)
    analyze.add_argument("topology", help="path to a topology JSON file")
    _add_flags(
        analyze,
        "--traffic",
        "--seed",
        traffic=dict(
            type=None,
            choices=[*available_traffic_models(), "none"],
            help="workload to solve, or 'none' for a structure-only report "
            "(default: permutation)",
        ),
        seed=dict(default=0),
    )

    run = sub.add_parser("run", help="run one or more experiments")
    run.set_defaults(func=_run_experiments)
    run.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (e.g. fig1a fig12a) or 'all'",
    )
    run.add_argument(
        "--out", type=str, default=None, help="also append tables to this file"
    )
    _add_flags(run, "--paper", "--runs", "--seed")

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative scenario grid (topologies x traffic x "
        "solvers x sizes x seeds)",
    )
    sweep.set_defaults(func=_run_sweep)
    sweep.add_argument(
        "--topologies",
        type=str,
        default="rrg",
        help="comma-separated topology registry kinds",
    )
    sweep.add_argument(
        "--sizes",
        type=str,
        default=None,
        help="comma-separated sizes injected as the topology size parameter",
    )
    sweep.add_argument(
        "--size-param",
        type=str,
        default="num_switches",
        help="topology parameter the sizes map to (default: num_switches)",
    )
    sweep.add_argument(
        "--traffics",
        type=str,
        default="permutation",
        help="comma-separated traffic models",
    )
    sweep.add_argument(
        "--traffic-param",
        action="append",
        metavar="KEY=VALUE",
        help="traffic constructor parameter, applied to every model "
        "(repeatable)",
    )
    sweep.add_argument(
        "--solvers",
        type=str,
        default="edge_lp",
        help="comma-separated solver registry keys",
    )
    sweep.add_argument(
        "--failure-rates",
        type=float,
        nargs="+",
        default=None,
        metavar="RATE",
        help="failure axis: one grid column per rate (0 means the intact "
        "fabric; its cells share seeds and cache entries with "
        "failure-free sweeps)",
    )
    sweep.add_argument(
        "--failure-param",
        action="append",
        metavar="KEY=VALUE",
        help="failure-model parameter, e.g. cluster=small for correlated "
        "failures (repeatable)",
    )
    sweep.add_argument(
        "--unreachable",
        type=str,
        choices=("error", "drop"),
        default=None,
        help="demand policy on partitioned fabrics; failure cells default "
        "to 'drop', intact cells to 'error'",
    )
    _add_flags(
        sweep,
        "--grid",
        "--name",
        "--topo-param",
        "--solver-param",
        "--failure-model",
        "--seeds",
        "--base-seed",
        "--workers",
        "--cache-dir",
        "--manifest",
        "--resume",
        "--json",
        "--csv",
        "--quiet",
        "--profile",
        grid=dict(
            help="JSON grid config file (ScenarioGrid.to_dict schema); other "
            "grid flags are ignored when given, except the failure flags, "
            "which apply on top"
        ),
        name=dict(default="sweep"),
        profile=dict(const="profile_sweep.json"),
    )

    serve = sub.add_parser(
        "serve",
        help="run the evaluation daemon: JSON-lines over a unix socket "
        "(streaming cell results); interactive submits preempt queued "
        "bulk sweeps, and repeat grids answer from the grid memo without "
        "touching a worker",
    )
    serve.set_defaults(func=_run_serve)
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="backpressure bound on concurrently dispatched work items "
        "(default: 2 x workers)",
    )
    serve.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-attempt wall-clock timeout for work items (retried "
        "with backoff until attempts run out)",
    )
    _add_flags(
        serve,
        "--socket",
        "--workers",
        "--cache-dir",
        workers=dict(default=2),
        cache_dir=dict(
            help="content-addressed result cache directory; after a "
            "restart, the daemon answers solved grids from its instance "
            "index"
        ),
    )

    submit = sub.add_parser(
        "submit",
        help="submit a grid to a running daemon and stream its cells",
    )
    submit.set_defaults(func=_run_submit)
    submit.add_argument(
        "--priority",
        type=str,
        default="bulk",
        help="'interactive' (jumps queued bulk work) or 'bulk'",
    )
    _add_flags(
        submit, "--socket", "--grid", "--quiet", grid=dict(required=True)
    )

    fidelity = sub.add_parser(
        "fidelity",
        help="routing-fidelity study: ECMP/MPTCP vs the exact LP on "
        "matched equipment, with calibrated-band and route-cache stats",
    )
    fidelity.set_defaults(func=_run_fidelity)
    fidelity.add_argument(
        "--k", type=int, default=None, help="fat-tree arity / equipment scale"
    )
    _add_flags(fidelity, "--runs", "--seed", "--paper")

    grow = sub.add_parser(
        "grow",
        help="run a multi-stage growth campaign (strategies x seeds over "
        "one equipment schedule)",
    )
    grow.set_defaults(func=_run_grow)
    grow.add_argument(
        "--schedule",
        type=str,
        default=None,
        help="JSON growth schedule file (GrowthSchedule.to_dict schema); "
        "--start/--target/--stages/--degree/--servers-per-switch are "
        "ignored when given",
    )
    grow.add_argument(
        "--start", type=int, default=64, help="initial switch budget"
    )
    grow.add_argument(
        "--target", type=int, default=2048, help="final switch budget"
    )
    grow.add_argument(
        "--stages",
        type=int,
        default=5,
        help="growth stages after the initial build (geometric spacing)",
    )
    grow.add_argument(
        "--degree", type=int, default=8, help="network ports per switch"
    )
    grow.add_argument(
        "--servers-per-switch", type=int, default=4, help="servers per switch"
    )
    grow.add_argument(
        "--strategies",
        type=str,
        default="swap,fattree_upgrade",
        help="comma-separated growth strategies (swap, swap_anneal, "
        "rebuild, fattree_upgrade)",
    )
    _add_flags(
        grow,
        "--name",
        "--traffic",
        "--solver",
        "--exact-limit",
        "--estimator",
        "--anneal-steps",
        "--seeds",
        "--base-seed",
        "--workers",
        "--cache-dir",
        "--json",
        "--csv",
        "--quiet",
        "--profile",
        name=dict(default="growth"),
        solver=dict(
            default="auto",
            help="throughput solver; 'auto' uses the exact LP up to "
            "--exact-limit switches and --estimator beyond it",
        ),
        exact_limit=dict(default=80),
        anneal_steps=dict(
            default=150,
            help="annealing budget per stage for the swap_anneal strategy",
        ),
        profile=dict(const="profile_grow.json"),
    )

    replay = sub.add_parser(
        "replay",
        help="replay a time-varying traffic timeline step by step, "
        "warm-starting the solver between steps (VDC workload generator "
        "or a JSON/CSV trace file)",
    )
    replay.set_defaults(func=_run_replay)
    replay.add_argument(
        "--topology",
        type=str,
        default="rrg",
        help="topology registry kind (default: rrg)",
    )
    replay.add_argument(
        "--trace",
        type=str,
        default=None,
        help="JSON/CSV trace file (step,src,dst,units rows; step 0 is the "
        "base matrix, later steps are deltas); timeline flags are "
        "ignored when given",
    )
    replay.add_argument(
        "--timeline",
        type=str,
        default="vdc",
        help="timeline generator registry kind (default: vdc)",
    )
    replay.add_argument(
        "--steps", type=int, default=100, help="generated timeline length"
    )
    replay.add_argument(
        "--timeline-param",
        action="append",
        metavar="KEY=VALUE",
        help="timeline generator parameter, e.g. arrival_rate=1.5 "
        "(repeatable)",
    )
    replay.add_argument(
        "--window",
        type=int,
        default=None,
        help="timeline steps per work item (the warm-chain unit; "
        "default: 16)",
    )
    _add_flags(
        replay,
        "--name",
        "--topo-param",
        "--solver",
        "--solver-param",
        "--seed",
        "--workers",
        "--cache-dir",
        "--manifest",
        "--resume",
        "--json",
        "--csv",
        "--quiet",
        name=dict(default="replay"),
        solver=dict(
            default="edge_lp",
            help="solver registry key; edge_lp and bound re-solve "
            "incrementally between steps, others fall back to per-step "
            "cold solves",
        ),
        seed=dict(
            default=0,
            help="seed for the topology build and the timeline generator",
        ),
        cache_dir=dict(
            help="content-addressed result cache directory; replay steps "
            "are addressed by chained content fingerprints, so a warm "
            "re-run of the same trace answers every step from the cache"
        ),
    )

    design = sub.add_parser(
        "design",
        help="cost-Pareto topology designer: search buildable designs "
        "from a parts catalog for the cost x throughput x resilience x "
        "churn frontier under a budget",
    )
    design.set_defaults(func=_run_design)
    design.add_argument(
        "--budget",
        type=float,
        required=True,
        help="total dollar budget (equipment + cabling)",
    )
    design.add_argument(
        "--servers", type=int, default=16, help="server target for candidates"
    )
    design.add_argument(
        "--catalog",
        type=str,
        default=None,
        help="parts catalog JSON (PartsCatalog schema); default: the "
        "built-in 4-SKU catalog",
    )
    design.add_argument(
        "--replicates", type=int, default=2, help="instances per design point"
    )
    design.add_argument(
        "--failure-rate",
        type=float,
        default=0.1,
        help="failure rate for the resilience axis",
    )
    design.add_argument(
        "--generators",
        type=str,
        default=None,
        help="comma-separated candidate generators (default: all; see "
        "repro.design.available_generators)",
    )
    design.add_argument(
        "--no-promote",
        action="store_true",
        help="skip the exact-LP confirmation pass over frontier finalists",
    )
    _add_flags(
        design,
        "--traffic",
        "--base-seed",
        "--failure-model",
        "--estimator",
        "--exact-limit",
        "--anneal-steps",
        "--workers",
        "--cache-dir",
        "--json",
        "--csv",
        "--quiet",
        failure_model=dict(
            help="failure model for the resilience axis ('none' disables "
            "it; default: random_links)"
        ),
        exact_limit=dict(default=120),
        anneal_steps=dict(
            default=0,
            help="annealing mutations after the generator population",
        ),
        quiet=dict(help="print only the summary's last two lines"),
    )
    return parser


def _failure_axis(args) -> "tuple | None":
    """Build the failure axis from --failure-* flags (None when absent)."""
    if not args.failure_rates:
        return None
    from repro.resilience import FailureSpec

    params = _parse_params(args.failure_param)
    return tuple(
        FailureSpec.make(args.failure_model, rate=rate, **params)
        for rate in args.failure_rates
    )


def _grid_from_args(args) -> "object":
    """The sweep's grid, from ``--grid`` or the grid flags; the failure
    flags and ``--unreachable`` apply on top of either."""
    from dataclasses import replace

    from repro.flow.solvers import SolverConfig
    from repro.pipeline.scenario import ScenarioGrid, TopologySpec, TrafficSpec

    if args.grid:
        with open(args.grid, "r", encoding="utf-8") as handle:
            grid = ScenarioGrid.from_dict(json.load(handle))
    else:
        topo_params = _parse_params(args.topo_param)
        traffic_params = _parse_params(args.traffic_param)
        solver_params = _parse_params(args.solver_param)
        sizes = (
            tuple(int(s) for s in _split_list(args.sizes))
            if args.sizes
            else None
        )
        grid = ScenarioGrid(
            name=args.name,
            topologies=tuple(
                TopologySpec.make(kind, **topo_params)
                for kind in _split_list(args.topologies)
            ),
            traffics=tuple(
                TrafficSpec.make(model, **traffic_params)
                for model in _split_list(args.traffics)
            ),
            solvers=tuple(
                SolverConfig.make(solver, **solver_params)
                for solver in _split_list(args.solvers)
            ),
            sizes=sizes,
            seeds=args.seeds,
            base_seed=args.base_seed,
            size_param=args.size_param,
        )
    failures = _failure_axis(args)
    if failures is not None:
        grid = replace(grid, failures=failures)
    if args.unreachable is not None:
        grid = replace(
            grid,
            solvers=tuple(
                SolverConfig.make(
                    config.name,
                    **{**config.options_dict(), "unreachable": args.unreachable},
                )
                for config in grid.solvers
            ),
        )
    return grid


@contextmanager
def _profiled(args, label: str):
    """Run a ``sweep`` or ``grow`` command body under its ``--profile``.

    Yields the run's :class:`~repro.perf.Profiler`, scoped for
    ``perf_span`` and capturing cProfile, or ``None`` without the flag.
    The JSON artifact is written when the body finishes.
    """
    if not args.profile:
        yield None
        return
    from repro.perf import Profiler, profiling

    profiler = Profiler(label=label, cprofile=True)
    with profiling(profiler), profiler.profiled():
        yield profiler
    profiler.write_json(args.profile)
    print(f"wrote profile {args.profile}")


def _write_artifacts(args, result) -> None:
    """Write ``result`` to the ``--json`` and ``--csv`` paths given."""
    from repro.perf import perf_span

    with perf_span("artifacts"):
        if args.json:
            result.write_json(args.json)
            print(f"wrote {args.json}")
        if args.csv:
            result.write_csv(args.csv)
            print(f"wrote {args.csv}")


def _experiment_kwargs(args, *flags: str) -> dict:
    """``run_experiment`` keywords from ``--paper``, ``--runs``, ``--seed``
    and the named extra ``flags``; a flag left unset is not passed."""
    overrides = {
        key: getattr(args, key)
        for key in ("runs", "seed", *flags)
        if getattr(args, key) is not None
    }
    return {"scale": "paper" if args.paper else "default", **overrides}


def _run_sweep(args) -> int:
    from repro.perf import perf_span
    from repro.pipeline.engine import resume_grid, run_grid

    with _profiled(args, "sweep") as profiler:
        def progress(done: int, count: int, cell) -> None:
            if profiler is not None:
                profiler.record(
                    "cell",
                    cell.elapsed_s,
                    scenario=cell.scenario.label(),
                    cache_hit=cell.cache_hit,
                )
            if not args.quiet:
                hit = " [cached]" if cell.cache_hit else ""
                print(
                    f"  [{done}/{count}] {cell.scenario.label()}: "
                    f"throughput {cell.throughput:.4f}{hit}"
                )

        if args.resume:
            with perf_span("run", workers=args.workers):
                sweep = resume_grid(
                    args.resume, workers=args.workers, progress=progress
                )
            counts = sweep.solve_counts or {}
            print(
                f"resumed {sweep.grid.name!r} from {args.resume}: "
                f"{counts.get('re_solved', 0)} re-solved, "
                f"{counts.get('cache_hit', 0)} cache-hit, "
                f"{counts.get('skipped', 0)} skipped"
            )
        else:
            with perf_span("grid"):
                grid = _grid_from_args(args)
            print(
                f"sweep {grid.name!r}: {len(grid)} cells, "
                f"{args.workers} worker(s)"
            )
            with perf_span("run", cells=len(grid), workers=args.workers):
                sweep = run_grid(
                    grid,
                    workers=args.workers,
                    cache_dir=args.cache_dir,
                    progress=progress,
                    manifest=args.manifest,
                )
        print(sweep.to_table())
        _write_artifacts(args, sweep)
    return 0


def _run_grow(args) -> int:
    from repro.growth.plan import GrowthSchedule
    from repro.growth.trajectory import run_growth_sweep
    from repro.perf import perf_span

    with _profiled(args, "grow") as profiler:
        with perf_span("schedule"):
            if args.schedule:
                with open(args.schedule, "r", encoding="utf-8") as handle:
                    schedule = GrowthSchedule.from_dict(json.load(handle))
            else:
                schedule = GrowthSchedule.geometric(
                    args.start,
                    args.target,
                    args.stages,
                    name=args.name,
                    network_degree=args.degree,
                    servers_per_switch=args.servers_per_switch,
                )
        strategies = tuple(_split_list(args.strategies))
        print(
            f"growth {schedule.name!r}: {len(schedule)} stages to "
            f"N={schedule.final_switches}, {len(strategies)} strategies x "
            f"{args.seeds} seed(s), {args.workers} worker(s)"
        )

        def progress(done: int, count: int, trajectory) -> None:
            final = trajectory.final()
            hits = sum(1 for r in trajectory.records if r.cache_hit)
            if profiler is not None:
                profiler.record(
                    "trajectory",
                    sum(r.elapsed_s for r in trajectory.records),
                    strategy=trajectory.strategy,
                    replicate=trajectory.replicate,
                    cache_hits=hits,
                )
            if not args.quiet:
                print(
                    f"  [{done}/{count}] {trajectory.strategy} rep"
                    f"{trajectory.replicate}: final throughput "
                    f"{final.throughput:.4f} at N={final.num_switches}, "
                    f"{final.cumulative_links_touched} links touched "
                    f"({hits}/{len(trajectory.records)} cached)"
                )

        with perf_span("run", strategies=len(strategies), workers=args.workers):
            sweep = run_growth_sweep(
                schedule,
                strategies,
                seeds=args.seeds,
                base_seed=args.base_seed,
                workers=args.workers,
                cache_dir=args.cache_dir,
                strategy_options={"swap_anneal": {"steps": args.anneal_steps}},
                traffic=args.traffic,
                solver=args.solver,
                exact_limit=args.exact_limit,
                estimator=args.estimator,
                progress=progress,
            )
        print(sweep.to_table())
        _write_artifacts(args, sweep)
    return 0


def _replay_plan_from_args(args):
    from repro.flow.solvers import SolverConfig
    from repro.pipeline.replay import DEFAULT_WINDOW, ReplayPlan
    from repro.pipeline.scenario import TopologySpec
    from repro.traffic.timeline import make_timeline, read_trace

    spec = TopologySpec.make(args.topology, **_parse_params(args.topo_param))
    if args.trace:
        timeline = read_trace(args.trace)
    else:
        topo = spec.build(seed=args.seed)
        timeline = make_timeline(
            args.timeline,
            topo,
            seed=args.seed,
            steps=args.steps,
            **_parse_params(args.timeline_param),
        )
    return ReplayPlan(
        name=args.name,
        topology=spec,
        timeline=timeline,
        solver=SolverConfig.make(
            args.solver, **_parse_params(args.solver_param)
        ),
        seed=args.seed,
        window=args.window if args.window is not None else DEFAULT_WINDOW,
    )


def _run_replay(args) -> int:
    from repro.pipeline.replay import resume_replay, run_replay

    def progress(done: int, count: int, cell) -> None:
        if not args.quiet:
            mode = cell.replay_mode or ("cached" if cell.cache_hit else "?")
            print(
                f"  [{done}/{count}] {cell.scenario.label()}: "
                f"throughput {cell.throughput:.4f} [{mode}]"
            )

    if args.resume:
        result = resume_replay(
            args.resume, workers=args.workers, progress=progress
        )
    else:
        plan = _replay_plan_from_args(args)
        print(
            f"replay {plan.name!r}: {plan.num_steps} steps of "
            f"{plan.timeline.name!r} on {plan.topology.label()}, "
            f"window {plan.window}, {args.workers} worker(s)"
        )
        result = run_replay(
            plan,
            workers=args.workers,
            cache_dir=args.cache_dir,
            progress=progress,
            manifest=args.manifest,
        )
    print(result.summary())
    retained = result.retained_series()
    if retained:
        print(
            f"retained throughput vs t0: min {min(retained):.4f}, "
            f"final {retained[-1]:.4f}"
        )
    _write_artifacts(args, result)
    return 0


def _run_design(args) -> int:
    from repro.design import DesignSpec, PartsCatalog, default_catalog, run_design

    catalog = (
        PartsCatalog.load(args.catalog) if args.catalog else default_catalog()
    )
    spec = DesignSpec.make(
        budget=args.budget,
        servers=args.servers,
        traffic=args.traffic,
        replicates=args.replicates,
        base_seed=args.base_seed,
        failure_model=args.failure_model,
        failure_rate=args.failure_rate,
        estimator=args.estimator,
        exact_limit=args.exact_limit,
        anneal_steps=args.anneal_steps,
        generators=tuple(_split_list(args.generators)),
    )
    if not args.quiet:
        print(
            f"design: budget {spec.budget:g}, {spec.servers} servers, "
            f"{len(catalog.skus)} SKUs, {args.workers} worker(s)"
        )
    report = run_design(
        spec,
        catalog=catalog,
        cache_dir=args.cache_dir,
        workers=args.workers,
        promote=not args.no_promote,
    )
    if args.quiet:
        lines = report.summary().splitlines()
        print("\n".join(lines[-2:]))
    else:
        print(report.summary())
    _write_artifacts(args, report)
    return 0


def _run_serve(args) -> int:
    from repro.pipeline.jobs import RetryPolicy
    from repro.service import serve

    retry = (
        RetryPolicy(timeout_s=args.timeout_s)
        if args.timeout_s is not None
        else None
    )

    def ready() -> None:
        print(
            f"serving on {args.socket} ({args.workers} worker(s), "
            f"cache {args.cache_dir or 'off'})",
            flush=True,
        )

    return serve(
        args.socket,
        workers=args.workers,
        cache_dir=args.cache_dir,
        retry=retry,
        max_in_flight=args.max_in_flight,
        ready=ready,
    )


def _run_submit(args) -> int:
    from repro.service import ServiceClient

    with open(args.grid, "r", encoding="utf-8") as handle:
        grid_dict = json.load(handle)

    def on_event(message: dict) -> None:
        event = message.get("event")
        if event == "accepted":
            mode = "cached" if message.get("cached") else "queued"
            print(
                f"job {message['job_id']}: {message['cells']} cells ({mode})"
            )
        elif event == "cell" and not args.quiet:
            row = message["row"]
            hit = " [cached]" if row.get("cache_hit") else ""
            print(
                f"  [{message['index']}] {row['topology']}/{row['traffic']}/"
                f"{row['solver']}: throughput {row['throughput']:.4f}{hit}"
            )

    client = ServiceClient(args.socket)
    done = client.submit(grid_dict, priority=args.priority, on_event=on_event)
    counts = done.get("solve_counts", {})
    print(
        f"done in {done['elapsed_s']:.3f}s: "
        f"{counts.get('re_solved', 0)} solves, "
        f"{counts.get('cache_hit', 0)} cache hits, "
        f"{counts.get('skipped', 0)} skipped"
        + (" (memo answer)" if done.get("cached") else "")
    )
    return 0


def _run_fidelity(args) -> int:
    result = run_experiment("fidelity", **_experiment_kwargs(args, "k"))
    print(result.to_table())
    stats = result.metadata.get("route_stats", {})
    print(f"routes computed: {stats.get('computed', 0)}")
    print(
        f"route cache hits: {stats.get('memo_hits', 0)} memo, "
        f"{stats.get('disk_hits', 0)} disk"
    )
    checks = result.metadata.get("band_checks", 0)
    violations = result.metadata.get("band_violations", 0)
    print(f"band violations: {violations} (of {checks} checks)")
    return 1 if violations else 0


def _run_list(args) -> int:
    for eid, description in describe_experiments():
        print(f"{eid:8s}  {description}")
    return 0


def _run_analyze(args) -> int:
    from repro.analysis.report import analyze_network
    from repro.topology.serialization import load_topology

    topo = load_topology(args.topology)
    traffic = None if args.traffic == "none" else args.traffic
    analysis = analyze_network(topo, traffic=traffic, seed=args.seed)
    print(analysis.to_text())
    return 0


def _run_experiments(args) -> int:
    ids = list(args.experiments)
    if ids == ["all"]:
        ids = available_experiments()
    unknown = [eid for eid in ids if eid not in available_experiments()]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        return 2

    kwargs = _experiment_kwargs(args)
    exit_code = 0
    for eid in ids:
        start = time.time()
        try:
            result = run_experiment(eid, **kwargs)
        except Exception as exc:  # surface which figure failed, keep going
            print(f"!! {eid} failed: {exc}", file=sys.stderr)
            exit_code = 1
            continue
        elapsed = time.time() - start
        table = result.to_table()
        print(table)
        print(f"   ({elapsed:.1f}s)\n")
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(table + f"\n   ({elapsed:.1f}s)\n\n")
    return exit_code


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
