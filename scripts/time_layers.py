"""Time one layer of pgx, chosen by section, and print the timings as JSON.

    python3 scripts/time_layers.py build [--specs C4096 He13 ...] [--reps 7]
    python3 scripts/time_layers.py validate [--seeds 1 2 3] [--reps 5]
    python3 scripts/time_layers.py graph [--seeds 1 2 3] [--reps 3]
    python3 scripts/time_layers.py scan [--n-max 3000 10000 1000000] [--reps 5] [--census-dir D]
    python3 scripts/time_layers.py claims [--p-max 97] [--m-max 12] [--reps 5]
    python3 scripts/time_layers.py start [--runs 7] [--top 8] [--census-dir D]

In-process times are the best of --reps calls, in ms. --census-dir defaults
to the shipped census, as the benchmark passes it.

build: for each spec, `build_group(parse_group_spec(spec))`, parsed afresh
each rep so that nothing is cached between reps, and `fill`: allocating and
filling an n-by-n array in the table's dtype, the least any builder of an
order-n table can cost. Each rep starts cold, after `gc.collect()` and
`malloc_trim(0)` (on glibc) hand the last table's pages back to the OS, as
the benchmark's worker does between operations. The default specs are the
largest of each family that the audit workload's `stats` calls build under
the brute-force cap.

validate: the shipped census/16 tables, which every io round ingests, then
for each seed the io workload's generated census, its specs read from
pgxbench/workloads.py. Each table is written once with `write_cayley` to a
temporary directory and timed being read back with `read_cayley` and checked
with `validate`, as `census ingest` reads and checks it; its order,
validation mode (always `full`) and verdict are given too. Two parts of the
check have their own columns: generators_ms, the generator search, and
light_ms, Light's test on what it finds, which is null where the search
finds no generating set. The blocks of a table of more than one block are
parsed, Latin-checked and put through Light's test on up to two of the CPUs
the process may use; `taskset -c 0` times them on one. After every read and check, each
table is written --reps times to one file, as pgxbench/gencensus.py writes
it, for its `write_ms` column.

graph: for each seed, the io workload's graph operations, as `pgx graph
--out` runs them: build_ms is `build_directed` or `build_undirected` on a
group whose element orders are not yet known, export_ms is `export` to a
file opened for it in a temporary directory, with the labels of a DOT
export made first, untimed, as the CLI makes them; bytes is the file's size.

scan: for each n_max, the layers of `scan conjecture-2.9`:
- sieve: `OddSieve(n_max)`;
- sylow_table: the Sylow data of every (p, a) the scan keeps, as `scan_rows`
  builds it: census orders through `_census_sylows`, each catalog reduced as
  the claims reduce theirs, and every other (p, a) with a >= 2 in closed form
  by `_scan_sylow` (a prime-order factor is made inline in its row), the
  set of those found by one untimed pass of the rows;
- rows: `_scan_row` on each order, which factors it by the sieve and makes
  its row from that table;
- csv_write: `_write_scan_csv`, the `scan --format csv` writer, to a buffer;
- end_to_end: `pgx scan conjecture-2.9 --format csv` through `pgx.cli.main`,
  stdout sent to a buffer.

claims: the sweep claims that `verify` runs with no order, each called as
`pgx.census.verify` calls it: `_phi_grid`, the exact phi grid that
lemma-2.4, lemma-2.5 and cor-2.6 each build first, then those three at
--p-max and --m-max, then lemma-2.1 at its own defaults. Each rep starts
cold, as in build; each claim's verdict is given with its time.

start: the cold start of the formula commands. start_ms is the median wall
time in ms of --runs fresh interpreters each of `python -c pass`,
`python -c "import pgx.cli"` and `python -m pgx.cli` running verify,
spectrum, stats above the brute-force cap and scan; numpy_loaded says for
each whether numpy was imported, from one more run under `-X importtime`;
import_self_ms lists the --top pgx modules by `-X importtime` self time in
`import pgx.cli`, in ms, largest first. Children inherit this environment
with src put first on PYTHONPATH, so they keep its PYTHONDONTWRITEBYTECODE
and compile their modules the way the benchmark's workers do.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "pgxbench")]

import workloads  # noqa: E402

from pgx.census import (CLAIMS, DEFAULT_M_MAX, DEFAULT_P_MAX, _census_sylows,  # noqa: E402
                        _phi_grid, _scan_row, _scan_sylow)
from pgx.cli import _write_scan_csv  # noqa: E402
from pgx.cli import main as cli_main  # noqa: E402
from pgx.constructors import Census, build_group, parse_group_spec  # noqa: E402
from pgx.groups import (GroupTable, _generators, _light, index_dtype, read_cayley,  # noqa: E402
                        validate, write_cayley)
from pgx.powergraph import build_directed, build_undirected, export  # noqa: E402
from pgx.spectrum import OddSieve  # noqa: E402

SPECS = ("C4096", "D2048", "Q2048", "SD2048", "M(11,2)", "M(5,5)", "He13",
         "Ab(13;2,1)", "Ab(13;1,1,1)", "Ab(3;1,1)xAb(5;1,1,1)")

try:
    MALLOC_TRIM = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_size_t)(("malloc_trim", ctypes.CDLL(None)))
except (OSError, AttributeError, TypeError):    # not glibc
    MALLOC_TRIM = lambda pad: 0  # noqa: E731


def best_ms(fn, reps: int, cold: bool = False):
    """The best time of reps calls of fn, in ms, and fn's last result. The
    last rep's result is freed before each call; with cold, each call also
    comes after a garbage collection and a heap trim."""
    best, result = float("inf"), None
    for _ in range(reps):
        result = None
        if cold:
            gc.collect()
            MALLOC_TRIM(0)
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 3), result


def time_build(args) -> dict:
    builds = {}
    for spec in args.specs:
        build_ms, g = best_ms(lambda: build_group(parse_group_spec(spec)), args.reps, cold=True)
        n = g.size
        del g
        fill_ms, _ = best_ms(lambda: np.full((n, n), 1, index_dtype(n)), args.reps, cold=True)
        builds[spec] = {"order": n, "build_ms": build_ms, "fill_ms": fill_ms,
                        "build_over_fill": round(build_ms / fill_ms, 2) if fill_ms else None}
    return {"reps": args.reps, "builds": builds}


def time_validate(args) -> dict:
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
            read_ms, _ = best_ms(lambda: read_cayley(path), args.reps)
            path.unlink()
            validate_ms, report = best_ms(lambda: validate(g), args.reps)
            generators_ms, gens = best_ms(lambda: _generators(g.table, g.identity), args.reps)
            light_ms = None
            if gens is not None:
                light_ms, _ = best_ms(lambda: _light(g.table, gens), args.reps)
            rows.append({"source": source, "table": name, "order": g.size,
                         "mode": report.mode, "ok": report.ok,
                         "read_ms": read_ms, "validate_ms": validate_ms,
                         "generators_ms": generators_ms, "light_ms": light_ms})
        # the timed rewrites come last: the kernel flushes the pages they dirty
        # in the background, which slowed the reads and checks timed after them
        path = Path(tmp) / "written.cayley"
        for row, (_, _, g) in zip(rows, tables):
            row["write_ms"], _ = best_ms(lambda: write_cayley(g, path), args.reps)
    return {"reps": args.reps, "cpus": len(os.sched_getaffinity(0)), "tables": rows,
            "total_ms": totals(rows, ("read_ms", "validate_ms", "generators_ms",
                                      "light_ms", "write_ms"))}


def totals(rows: list[dict], keys: tuple[str, ...]) -> dict:
    """The sum of each key over the rows of each source, nulls left out."""
    return {source: {k: round(sum(r[k] or 0 for r in rows if r["source"] == source), 3)
                     for k in keys}
            for source in dict.fromkeys(r["source"] for r in rows)}


def time_graph(args) -> dict:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.out"
        for seed in args.seeds:
            ops, _ = workloads.build_round("io", seed)
            for op in ops:
                if op.kind != "graph":
                    continue
                _, spec, kind, fmt = op.argv[:4]
                g = build_group(parse_group_spec(spec))
                # a fresh group per rep, so that no rep finds the element orders known
                fresh = iter([GroupTable(g.size, g.identity, table=g.table, name=g.name,
                                         labels=g.label_recipe) for _ in range(args.reps)])
                build = build_directed if kind == "directed" else build_undirected
                build_ms, graph = best_ms(lambda: build(next(fresh)), args.reps)
                if fmt == "dot":
                    graph.labels    # made and checked first, untimed, as the CLI does

                def to_file():
                    with open(path, "w", encoding="utf-8") as fh:
                        export(graph, fmt, fh)

                export_ms, _ = best_ms(to_file, args.reps)
                rows.append({"source": f"seed {seed}", "spec": spec, "kind": kind,
                             "format": fmt, "order": g.size, "build_ms": build_ms,
                             "export_ms": export_ms, "bytes": path.stat().st_size})
    return {"reps": args.reps, "ops": rows, "total_ms": totals(rows, ("build_ms", "export_ms"))}


def scan_layers(n_max: int, census: Census, reps: int) -> dict:
    sieve_ms, sieve = best_ms(lambda: OddSieve(n_max), reps)
    orders = list(sieve.not_square_free())
    read = _census_sylows(n_max, census)
    for n in orders:    # untimed: puts each (p, a >= 2) the rows meet in read
        _scan_row(n, sieve, read)

    def sylow_table():
        table = _census_sylows(n_max, census)
        for f in read.keys() - table.keys():
            table[f] = _scan_sylow(*f)
        return table

    table_ms, table = best_ms(sylow_table, reps)
    rows_ms, made = best_ms(lambda: [_scan_row(n, sieve, table) for n in orders], reps)
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


def time_scan(args) -> dict:
    census = Census(args.census_dir)
    return {"reps": args.reps, "census_dir": args.census_dir,
            "scans": {n: scan_layers(n, census, args.reps) for n in args.n_max}}


def time_claims(args) -> dict:
    grid_ms, grid = best_ms(lambda: _phi_grid(args.p_max, args.m_max), args.reps, cold=True)
    claims = {"phi_grid": {"ms": grid_ms, "points": len(grid)}}
    for claim in ("lemma-2.4", "lemma-2.5", "cor-2.6", "lemma-2.1"):
        fn = CLAIMS[claim][0]
        sweep = fn if claim == "lemma-2.1" else (lambda: fn(args.p_max, args.m_max))
        ms, report = best_ms(sweep, args.reps, cold=True)
        claims[claim] = {"ms": ms, "rows": len(report.rows), "verdict": report.verdict.value}
    return {"reps": args.reps, "p_max": args.p_max, "m_max": args.m_max, "claims": claims}


def run(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode not in (0, 2):     # 2: a verdict on an incomplete catalog
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def import_times(argv: list[str], env: dict[str, str]) -> dict[str, int]:
    """Self time in us of each module imported by one run, by -X importtime."""
    out = {}
    for line in run(["-X", "importtime", *argv], env).stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                out[name.strip()] = int(self_us)
    return out


def time_start(args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cli = ["-m", "pgx.cli"]
    cases = {
        "pass": ["-c", "pass"],
        "import pgx.cli": ["-c", "import pgx.cli"],
        "verify main-theorem --n 405": cli + ["verify", "main-theorem", "--n", "405"],
        "spectrum C12": cli + ["spectrum", "C12"],
        "stats C1000000000039xC105": cli + ["stats", "C1000000000039xC105"],
        "scan conjecture-2.9 --n-max 3000": cli + ["scan", "conjecture-2.9", "--n-max", "3000",
                                                   "--format", "csv", "--census-dir",
                                                   args.census_dir],
    }

    def wall_s(argv: list[str]) -> float:
        t0 = time.perf_counter()
        run(argv, env)
        return time.perf_counter() - t0

    start = {label: round(statistics.median([wall_s(argv) for _ in range(args.runs)]) * 1e3, 1)
             for label, argv in cases.items()}
    numpy = {label: "numpy" in import_times(argv, env) for label, argv in cases.items()}
    pgx = {name: us for name, us in import_times(cases["import pgx.cli"], env).items()
           if name == "pgx" or name.startswith("pgx.")}
    top = sorted(pgx.items(), key=lambda kv: -kv[1])[:args.top]
    return {"runs": args.runs, "python": sys.version.split()[0],
            "start_ms": start, "numpy_loaded": numpy,
            "import_self_ms": {name: round(us / 1e3, 2) for name, us in top}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sections = ap.add_subparsers(dest="section", required=True)
    build = sections.add_parser("build", help="the table build of each audit family")
    build.add_argument("--specs", nargs="+", default=list(SPECS))
    build.add_argument("--reps", type=int, default=7)
    build.set_defaults(run=time_build)
    check = sections.add_parser("validate", help="Cayley read, validate and write on io tables")
    check.add_argument("--seeds", type=int, nargs="+", default=[1])
    check.add_argument("--reps", type=int, default=5)
    check.set_defaults(run=time_validate)
    graph = sections.add_parser("graph", help="power graph build and export of io graph ops")
    graph.add_argument("--seeds", type=int, nargs="+", default=[1])
    graph.add_argument("--reps", type=int, default=3)
    graph.set_defaults(run=time_graph)
    scan = sections.add_parser("scan", help="each layer of the conjecture-2.9 scan")
    scan.add_argument("--n-max", type=int, nargs="+", default=[3000, 10_000, 1_000_000])
    scan.add_argument("--reps", type=int, default=5)
    scan.add_argument("--census-dir", default=str(ROOT / "census"))
    scan.set_defaults(run=time_scan)
    claims = sections.add_parser("claims", help="the phi grid and each sweep claim")
    claims.add_argument("--p-max", type=int, default=DEFAULT_P_MAX)
    claims.add_argument("--m-max", type=int, default=DEFAULT_M_MAX)
    claims.add_argument("--reps", type=int, default=5)
    claims.set_defaults(run=time_claims)
    start = sections.add_parser("start", help="the cold start of the formula commands")
    start.add_argument("--runs", type=int, default=7)
    start.add_argument("--top", type=int, default=8)
    start.add_argument("--census-dir", default=str(ROOT / "census"))
    start.set_defaults(run=time_start)
    args = ap.parse_args(argv)
    print(json.dumps(args.run(args), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
