"""Exact references for the fixed inputs of matrix-1d and sweep-2d.

Every supremum is enumerated exhaustively (``pairs.*_exhaustive``), so the
stored ratios and terms are exact for the grids the workloads build.  This is
never run inside a timed pass.  Regenerate the stored file with

    PYTHONPATH=src python3 perfbench/refs.py

from the root of the repository; it takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys
import time

import checks
import workloads
from holonorm.pairs import DEFAULT_SEED

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
FIXED_WORKLOADS = ("matrix-1d", "sweep-2d")


def compute(name: str, small: bool = False, log=None) -> dict:
    """Reference entries for every fixed check of a workload."""
    out = {}
    for key, spec, make_grid in workloads.reference_inputs(name, small):
        t0 = time.perf_counter()
        report = checks.exact_check(spec, make_grid(), DEFAULT_SEED).to_json_dict()
        out[key] = checks.reference_entry(report)
        if log:
            log(f"{name} {key}: {report['status']} {report['ratio']!r} "
                f"({time.perf_counter() - t0:.1f}s)")
    return out


def load() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def main() -> int:
    table = {name: compute(name, log=lambda msg: print(msg, file=sys.stderr))
             for name in FIXED_WORKLOADS}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
