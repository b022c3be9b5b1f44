"""Time the table build of each family in the audit workload.

    PYTHONPATH=src python3 scripts/time_build.py [--specs C4096 He13 ...] [--reps 7]

For each spec it prints, as JSON, the best-of-reps time in ms of:
- build: `build_group(parse_group_spec(spec))`, with the spec parsed afresh
  each rep so that nothing is cached between reps;
- fill: allocating an n-by-n array in the table's dtype and filling it, the
  least any builder of an order-n table can cost.

Before each rep the script runs `gc.collect()` and `malloc_trim(0)` (on glibc),
so every rep starts cold, with its table's pages handed back to the OS, as
the benchmark's worker does between operations. The default specs are the
largest of each family that the audit workload's `stats` calls build under
the brute-force cap. Only the standard library, numpy and pgx are used.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pgx.constructors import build_group, parse_group_spec  # noqa: E402
from pgx.groups import index_dtype  # noqa: E402

SPECS = ("C4096", "D2048", "Q2048", "SD2048", "M(11,2)", "M(5,5)", "He13",
         "Ab(13;2,1)", "Ab(13;1,1,1)", "Ab(3;1,1)xAb(5;1,1,1)")


def _malloc_trim():
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError):    # not glibc
        return lambda pad: 0


MALLOC_TRIM = _malloc_trim()


def cold_best_ms(fn, reps: int):
    """The best time of reps calls of fn, in ms, each after a garbage
    collection and a heap trim, and fn's last result."""
    best = float("inf")
    for _ in range(reps):
        result = None        # free the last rep's table before the trim
        gc.collect()
        MALLOC_TRIM(0)
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 3), result


def fill(n: int) -> np.ndarray:
    table = np.empty((n, n), dtype=index_dtype(n))
    table.fill(1)
    return table


def timings(spec: str, reps: int) -> dict:
    build_ms, g = cold_best_ms(lambda: build_group(parse_group_spec(spec)), reps)
    n = g.size
    del g
    fill_ms, _ = cold_best_ms(lambda: fill(n), reps)
    return {"order": n, "build_ms": build_ms, "fill_ms": fill_ms,
            "build_over_fill": round(build_ms / fill_ms, 2) if fill_ms else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--specs", nargs="+", default=list(SPECS))
    ap.add_argument("--reps", type=int, default=7)
    args = ap.parse_args()
    print(json.dumps({"reps": args.reps,
                      "builds": {s: timings(s, args.reps) for s in args.specs}}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
