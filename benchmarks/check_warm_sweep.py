"""Check a warm sweep against its cold run, cell for cell.

    python benchmarks/check_warm_sweep.py COLD.json WARM.json CELLS

Both files are ``repro-experiments sweep --json`` outputs of one grid on
one cache dir, the warm run second. Every warm cell must be a cache hit
whose throughput, result key and instance size equal the cold run's
exactly (the key hashes both instance fingerprints and the solver). A
warm run reads its cells through the cache's instance index, so this
pins that path end to end. Exits nonzero on the first mismatch.
"""

from __future__ import annotations

import json
import sys

FIELDS = ("throughput", "key", "num_switches", "num_servers")


def main(argv: "list[str]") -> None:
    cold_path, warm_path, cells = argv
    cold, warm = (
        json.load(open(path))["cells"] for path in (cold_path, warm_path)
    )
    assert len(cold) == len(warm) == int(cells), (len(cold), len(warm), cells)
    for a, b in zip(cold, warm):
        assert b["cache_hit"], b
        assert all(a[field] == b[field] for field in FIELDS), (a, b)
    print(f"{len(warm)} warm cells: all cache hits, equal to the cold run")


if __name__ == "__main__":
    main(sys.argv[1:])
