"""The ``repro-experiments`` command line, pinned argument by argument.

``tests/golden/cli_surface.json`` records, for every subcommand, each
argument's option strings, dest, action class, type, default, nargs,
const, choices, required flag and metavar (help text is left out). Any
change to how a command line parses then fails here, naming the
subcommand and the argument, until the golden is re-recorded on purpose.

Usage, from the repository root::

    PYTHONPATH=src python tests/test_cli_surface.py            # print JSON
    PYTHONPATH=src python tests/test_cli_surface.py --record   # re-record
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.runner import _build_parser

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_surface.json"
RERECORD = "PYTHONPATH=src python tests/test_cli_surface.py --record"


def _argument(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "action": type(action).__name__,
        "type": getattr(action.type, "__name__", action.type),
        "default": action.default,
        "nargs": action.nargs,
        "const": action.const,
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "metavar": action.metavar,
    }


def cli_surface() -> dict:
    """``{subcommand: {dest: argument fields}}`` of ``_build_parser()``."""
    parser = _build_parser()
    (subparsers,) = (
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {
            action.dest: _argument(action)
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for name, sub in subparsers.choices.items()
    }


def test_cli_surface_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    # A JSON round trip turns tuples into lists, as the golden stores them.
    surface = json.loads(json.dumps(cli_surface()))
    problems = []
    for command in sorted(set(golden) | set(surface)):
        old, new = golden.get(command), surface.get(command)
        if old is None or new is None:
            change = "added" if old is None else "removed"
            problems.append(f"{command}: subcommand {change}")
            continue
        for dest in sorted(set(old) | set(new)):
            if old.get(dest) != new.get(dest):
                problems.append(f"{command} {dest}: {old.get(dest)} -> {new.get(dest)}")
    assert not problems, (
        "command line changed:\n  " + "\n  ".join(problems)
        + f"\nif deliberate, re-record ({RERECORD})"
    )


def main(argv: "list[str]") -> int:
    text = json.dumps(cli_surface(), indent=2, sort_keys=True) + "\n"
    if "--record" in argv:
        GOLDEN_PATH.write_text(text)
        print(f"recorded {GOLDEN_PATH}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
