"""Time `groups.validate` on the tables the io workload ingests.

    PYTHONPATH=src python3 scripts/time_validate.py [--seeds 1 2 3] [--reps 5]

For each seed it builds the generated census that pgxbench/workloads.py
lists for the io workload, validates every table, and prints the best-of-reps
time of each as JSON with its order, validation mode (always `full`) and
verdict; the shipped census/16 tables, which every io round ingests too, come
first. `validate` takes no settings, so each table is checked as
`census ingest` checks it. Only the standard library and pgx are used; the
spec list is read from pgxbench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "pgxbench"))

import workloads  # noqa: E402

from pgx.constructors import build_group, parse_group_spec  # noqa: E402
from pgx.groups import GroupTable, read_cayley, validate  # noqa: E402


def best_ms(g: GroupTable, reps: int) -> tuple[float, str, bool]:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        report = validate(g)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3, report.mode, report.ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    tables = [("census/16", p.name, read_cayley(p))
              for p in sorted((ROOT / "census" / "16").glob("*.cayley"))]
    for seed in args.seeds:
        _, specs = workloads.build_round("io", seed)
        tables += [(f"seed {seed}", s.text, build_group(parse_group_spec(s.text)))
                   for s in specs]
    rows = []
    for source, name, g in tables:
        ms, mode, ok = best_ms(g, args.reps)
        rows.append({"source": source, "table": name, "order": g.size,
                     "mode": mode, "ok": ok, "ms": round(ms, 3)})
    totals: dict[str, float] = {}
    for row in rows:
        totals[row["source"]] = totals.get(row["source"], 0.0) + row["ms"]
    print(json.dumps({"reps": args.reps, "tables": rows,
                      "total_ms": {k: round(v, 3) for k, v in totals.items()}}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
