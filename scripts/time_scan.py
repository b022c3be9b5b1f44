"""Time each layer of the conjecture-2.9 scan.

    PYTHONPATH=src python3 scripts/time_scan.py [--n-max 3000 10000 1000000] [--reps 5]
                                                [--census-dir census]

For each n_max it prints, as JSON, the best-of-reps time in ms of:
- sieve: `OddSieve(n_max)`;
- sylow_table: the Sylow data of every (p, a) the scan reads, as
  `scan_rows` builds it: the census orders through `_census_sylows`, each
  its catalog reduced as the claims reduce theirs, and the rest in closed
  form through `_scan_sylow`;
- rows: factoring each order by the sieve and making its row with
  `_scan_row`, from the finished Sylow table;
- csv_write: writing the finished rows to an in-memory text buffer with
  `_write_scan_csv`, the writer `scan --format csv` uses for stdout;
- end_to_end: `pgx scan conjecture-2.9 --format csv` run in process through
  `pgx.cli.main`, with stdout sent to an in-memory buffer.

The census defaults to the shipped one, as the benchmark's formula workload
passes it. Only the standard library and pgx are used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pgx.census import _census_sylows, _scan_row, _scan_sylow  # noqa: E402
from pgx.cli import _write_scan_csv  # noqa: E402
from pgx.cli import main as cli_main  # noqa: E402
from pgx.constructors import Census  # noqa: E402
from pgx.spectrum import OddSieve  # noqa: E402


def best_ms(fn, reps: int):
    """The best time of reps calls of fn, in ms, and fn's last result."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 3), result


def layers(n_max: int, census: Census, reps: int) -> dict:
    sieve_ms, sieve = best_ms(lambda: OddSieve(n_max), reps)
    orders = list(sieve.not_square_free())
    read = {f for n in orders for f in sieve.factor(n)}

    def sylow_table():
        table = _census_sylows(n_max, census, sieve)
        for f in read - table.keys():
            table[f] = _scan_sylow(*f)
        return table

    table_ms, table = best_ms(sylow_table, reps)

    def rows():
        out = []
        for n in orders:
            factors = sieve.factor(n)
            out.append(_scan_row(n, [table[f] for f in factors],
                                 next(i for i, (_, a) in enumerate(factors) if a > 1)))
        return out

    rows_ms, made = best_ms(rows, reps)
    csv_ms, _ = best_ms(lambda: _write_scan_csv(io.StringIO(), made), reps)

    def end_to_end():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(["scan", "conjecture-2.9", "--n-max", str(n_max), "--format", "csv",
                             "--census-dir", str(census.dir)])

    total_ms, code = best_ms(end_to_end, reps)
    if code != 0:
        raise SystemExit(f"scan to {n_max} exited {code}")
    return {"rows": len(made), "sylows": len(table), "sieve_ms": sieve_ms,
            "sylow_table_ms": table_ms, "rows_ms": rows_ms, "csv_write_ms": csv_ms,
            "end_to_end_ms": total_ms}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, nargs="+", default=[3000, 10_000, 1_000_000])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--census-dir", default=str(ROOT / "census"))
    args = ap.parse_args()
    census = Census(args.census_dir)
    print(json.dumps({"reps": args.reps, "census_dir": args.census_dir,
                      "scans": {n: layers(n, census, args.reps) for n in args.n_max}},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
