"""Tripwire golden for what each registered kind builds.

The result cache's instance index serves a cell's fingerprints from its
specs without rebuilding it, keyed by a digest of the package source.
``tests/golden/instance_fingerprints.json`` pins one small instance per
topology kind, traffic model (on an integer-id RRG and on a VL2, whose
switch ids are strings) and failure model (cases defined in
``instance_golden.py``), so a change that moves what a kind builds fails
here, naming the kind, until it is re-recorded on purpose. Each case's
``order_fp`` pins the order of its arcs and neighbor lists, which the
content fingerprints cannot see. The cases are
also computed in fresh processes under two ``PYTHONHASHSEED`` values,
which must both reproduce the golden: the source digest does not change
with the hash seed, so an index written under one hash seed is read by
processes under any other.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from instance_golden import GOLDEN_PATH, compute

GOLDEN = json.loads(GOLDEN_PATH.read_text())
SCRIPT = Path(__file__).with_name("instance_golden.py")
SRC = Path(__file__).resolve().parent.parent / "src"
RERECORD = "PYTHONPATH=src python tests/instance_golden.py --record"


def drift(computed: dict) -> "list[str]":
    """Every way ``computed`` departs from the golden, one line each."""
    recorded = {case["name"]: case for case in GOLDEN["cases"]}
    problems = []
    for case in computed["cases"]:
        old = recorded.pop(case["name"], None)
        if old is None:
            problems.append(f"{case['subject']}: no golden case; re-record ({RERECORD})")
            continue
        for field in ("topology_fp", "traffic_fp", "order_fp"):
            if case[field] != old[field]:
                problems.append(
                    f"{case['subject']}: {field} moved; if the change to what "
                    f"it builds is deliberate, re-record ({RERECORD})"
                )
    problems.extend(
        f"{case['subject']}: golden case no longer computed; re-record ({RERECORD})"
        for case in recorded.values()
    )
    return problems


def test_fingerprints_match_golden():
    problems = drift(compute())
    assert not problems, "\n".join(problems)


def test_drift_names_the_kind():
    moved = json.loads(json.dumps(GOLDEN))
    case = next(c for c in moved["cases"] if c["name"] == "topology:fat-tree")
    case["topology_fp"] = "0" * 64
    (problem,) = drift(moved)
    assert "topology kind 'fat-tree'" in problem
    assert "topology_fp moved" in problem and "re-record" in problem


def _compute_under(hash_seeds) -> "list[dict]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    procs = [
        subprocess.Popen(
            [sys.executable, str(SCRIPT)],
            env={**env, "PYTHONHASHSEED": str(seed)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in hash_seeds
    ]
    payloads = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        payloads.append(json.loads(out))
    return payloads


def test_cases_match_golden_under_two_hash_seeds():
    for payload in _compute_under((1, 2)):
        problems = drift(payload)
        assert not problems, "\n".join(problems)
        # A fresh process lists exactly the built-in registrations: each
        # needs a case, and the golden records the same lists.
        names = {case["name"] for case in payload["cases"]}
        for prefix, listed in (
            ("topology", payload["topology_kinds"]),
            ("traffic", payload["traffic_models"]),
            ("failure", payload["failure_models"]),
        ):
            missing = {f"{prefix}:{name}" for name in listed} - names
            assert not missing, f"no golden case for {sorted(missing)}"
        assert payload == GOLDEN
