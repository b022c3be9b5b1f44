"""Time `groups.write_cayley`, `groups.read_cayley` and `groups.validate` on the io workload's tables.

    PYTHONPATH=src python3 scripts/time_validate.py [--seeds 1 2 3] [--reps 5]

For each seed it builds the generated census that pgxbench/workloads.py
lists for the io workload, writes each table once with `write_cayley` to a
temporary directory, and prints, as JSON, the best-of-reps time of reading
it back and of validating it, with its order, validation mode (always
`full`) and verdict; the shipped census/16 tables, which every io round
ingests too, come first. Neither call takes a setting, so each table is
read and checked as `census ingest` reads and checks it. Tables of more
than one block are parsed and Latin-checked on up to two of the CPUs the
process may use; `taskset -c 0 python3 scripts/time_validate.py` times them
on one. After every table is read and checked, each is written again
`--reps` times to one file, as pgxbench/gencensus.py writes it, and the
best time goes in its `write_ms` column.
Only the standard library and pgx are used; the spec list is read from
pgxbench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "pgxbench"))

import workloads  # noqa: E402

from pgx.constructors import build_group, parse_group_spec  # noqa: E402
from pgx.groups import read_cayley, validate, write_cayley  # noqa: E402


def best_ms(call: Callable[[], object], reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


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
    with tempfile.TemporaryDirectory() as tmp:
        for k, (source, name, g) in enumerate(tables):
            path = Path(tmp) / f"{k}.cayley"
            write_cayley(g, path)
            read_ms = best_ms(lambda: read_cayley(path), args.reps)
            path.unlink()
            validate_ms = best_ms(lambda: validate(g), args.reps)
            report = validate(g)
            rows.append({"source": source, "table": name, "order": g.size,
                         "mode": report.mode, "ok": report.ok,
                         "read_ms": round(read_ms, 3), "validate_ms": round(validate_ms, 3)})
        # the timed rewrites come last: the kernel flushes the pages they dirty
        # in the background, which slowed the reads and checks timed after them
        path = Path(tmp) / "written.cayley"
        for row, (_, _, g) in zip(rows, tables):
            row["write_ms"] = round(best_ms(lambda: write_cayley(g, path), args.reps), 3)
    totals: dict[str, dict[str, float]] = {}
    for row in rows:
        total = totals.setdefault(row["source"],
                                  {"read_ms": 0.0, "validate_ms": 0.0, "write_ms": 0.0})
        for key in total:
            total[key] += row[key]
    print(json.dumps({"reps": args.reps, "cpus": len(os.sched_getaffinity(0)), "tables": rows,
                      "total_ms": {source: {k: round(v, 3) for k, v in total.items()}
                                   for source, total in totals.items()}}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
