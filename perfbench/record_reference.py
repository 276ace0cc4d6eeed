"""Rewrite ``reference.json``: every input set's outputs at the default seed.

    python3 perfbench/record_reference.py

The benchmark compares default-seed runs against this file at 1e-9
relative, so rerun it only with a change that is meant to alter outputs.
Values are stored as ``float.hex`` strings, exactly.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS

    reference = {}
    with tempfile.TemporaryDirectory() as scratch:
        for workload in WORKLOADS.values():
            sets = workload.inputs(DEFAULT_SEED, Path(scratch))
            outputs = []
            for index, inputs in enumerate(sets):
                cache_dir = tempfile.mkdtemp(dir=scratch)
                if not workload.fresh_cache:
                    cache_dir = inputs.cache_dir
                out = workload.repeat(inputs, cache_dir, None)
                outputs.append([value.hex() for value in out.values])
                print(f"{workload.name} set {index}: {len(out.values)} items")
            reference[workload.name] = outputs
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
