"""CI perf-regression gate over the repo-root ``BENCH_*.json`` trajectories.

Run after the gated benchmarks have appended fresh records: the newest
record of each gated benchmark is compared against the best (fastest)
*committed* record, and the gate fails on a >2x slowdown of

- the cold exact solves of the default method at N = 20 and 40 and the
  end-to-end N = 100,000 estimator-ladder cell (``BENCH_solvers.json``,
  appended by ``bench_solvers.py``),
- the mean per-step latency of a warm-started 60-step replay
  (``BENCH_pipeline.json``, appended by ``bench_replay.py``), and
- the cold cost-Pareto design run over every generator family
  (``BENCH_design.json``, appended by ``bench_design.py``).

The 2x threshold absorbs shared-runner noise; the in-run ratio asserts
(e.g. warm >= 3x faster than cold) live in the benchmark files
themselves and are machine-independent. Usage::

    python benchmarks/check_perf_gate.py            # gate every artifact
    python benchmarks/check_perf_gate.py BENCH_solvers.json   # just one
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Gated artifact -> {benchmark name -> (watched timing field, its unit)}.
GATES = {
    "BENCH_solvers.json": {
        "edge_lp_cold": ("ipm_seconds", "s"),
        "estimator_ladder_100k": ("total_seconds", "s"),
    },
    "BENCH_pipeline.json": {
        "replay_warm_vs_cold": ("warm_ms_per_step", "ms"),
    },
    "BENCH_design.json": {
        "design_cold_run": ("cold_seconds", "s"),
    },
}

#: Newest record may be at most this many times slower than the fastest
#: committed record.
SLOWDOWN_LIMIT = 2.0


def check_artifact(path: Path, gates: "dict[str, tuple[str, str]]") -> "list[str]":
    """Gate one artifact; return failures (empty when it passes)."""
    if not path.exists():
        return [
            f"{path.name}: artifact missing (run the benchmark that "
            "appends it first)"
        ]
    payload = json.loads(path.read_text())
    failures: list[str] = []
    for name, (fld, unit) in gates.items():
        records = [
            r for r in payload.get("records", []) if r.get("benchmark") == name
        ]
        if not records:
            failures.append(f"{name}: no records in {path.name}")
            continue
        latest = float(records[-1][fld])
        prior = [float(r[fld]) for r in records[:-1]]
        if not prior:
            print(f"{name}: {fld}={latest:.2f}{unit} (first record; baseline set)")
            continue
        baseline = min(prior)
        ratio = latest / baseline
        print(
            f"{name}: {fld}={latest:.2f}{unit} vs baseline {baseline:.2f}{unit} "
            f"({ratio:.2f}x, limit {SLOWDOWN_LIMIT:.1f}x)"
        )
        if ratio > SLOWDOWN_LIMIT:
            failures.append(
                f"{name}: {fld} regressed {ratio:.2f}x over baseline "
                f"{baseline:.2f}{unit} (limit {SLOWDOWN_LIMIT:.1f}x)"
            )
    return failures


def check(path: "Path | None" = None) -> "list[str]":
    """Gate one artifact (by path) or every registered artifact."""
    if path is not None:
        gates = GATES.get(path.name)
        if gates is None:
            known = ", ".join(sorted(GATES))
            return [f"{path.name}: no gates registered (known: {known})"]
        return check_artifact(path, gates)
    failures: list[str] = []
    for name, gates in GATES.items():
        failures.extend(check_artifact(REPO_ROOT / name, gates))
    return failures


def main(argv: "list[str]") -> int:
    path = Path(argv[1]) if len(argv) > 1 else None
    failures = check(path)
    for failure in failures:
        print(f"PERF GATE FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("perf gate ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
