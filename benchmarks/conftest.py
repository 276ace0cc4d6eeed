"""Benchmark-suite configuration.

Every benchmark regenerates one paper figure at CI scale via
``benchmark.pedantic(..., rounds=1)`` (experiment sweeps are far too heavy
for pytest-benchmark's auto-calibration), prints the figure's series table
(run with ``-s`` to see it), and asserts the figure's qualitative claim.

Paper-scale parameter sets are available through the CLI:
``repro-experiments run <fig-id> --paper``.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path

#: Artifact format for the repo-root ``BENCH_*.json`` perf trajectory
#: (ROADMAP: record timings so re-anchors can see the perf curve).
BENCH_SCHEMA_VERSION = 1
REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> "str | None":
    """Stripped stdout of one git command in the repo, ``None`` on failure."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _git_provenance() -> dict:
    """``git_sha``: HEAD's short SHA (``"unknown"`` outside a checkout);
    ``dirty``: set when ``src`` or ``benchmarks`` differ from HEAD, so the
    record measured uncommitted changes on top of ``git_sha``."""
    sha = _git("rev-parse", "--short", "HEAD")
    provenance = {"git_sha": sha or "unknown"}
    if _git("status", "--porcelain", "--", "src", "benchmarks"):
        provenance["dirty"] = True
    return provenance


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under benchmark timing and return its value."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def append_record(artifact: str, benchmark: str, **fields) -> None:
    """Append one machine-readable timing record to a repo-root artifact.

    The artifact is append-only JSON — ``{"schema_version": 1,
    "records": [...]}`` — so successive benchmark runs (and future
    re-anchors) extend the same trajectory instead of overwriting it.
    """
    path = REPO_ROOT / artifact
    if path.exists():
        payload = json.loads(path.read_text())
        version = payload.get("schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise ValueError(f"{artifact}: unknown schema_version {version!r}")
    else:
        payload = {"schema_version": BENCH_SCHEMA_VERSION, "records": []}
    payload["records"].append(
        {
            "benchmark": benchmark,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            **_git_provenance(),
            **fields,
        }
    )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
