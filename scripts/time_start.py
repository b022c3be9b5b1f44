"""Time the cold start of pgx's formula commands.

    python3 scripts/time_start.py [--runs 7] [--top 8] [--census-dir census]

It prints, as JSON:
- start_ms: the median wall time in ms of --runs fresh interpreters each of
  `python -c pass`, `python -c "import pgx.cli"` and `python -m pgx.cli`
  running each formula command (verify, spectrum, stats above the
  brute-force cap, scan);
- numpy_loaded: for each of those, whether numpy was imported, read from
  one more run under `-X importtime`;
- import_self_ms: the pgx modules with the largest `-X importtime` self time
  in `import pgx.cli`, in ms, largest first.

Children inherit this environment with src put first on PYTHONPATH, so they
keep its PYTHONDONTWRITEBYTECODE and compile their modules the way the
benchmark's workers do. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commands(census_dir: str) -> dict[str, list[str]]:
    cli = ["-m", "pgx.cli"]
    return {
        "pass": ["-c", "pass"],
        "import pgx.cli": ["-c", "import pgx.cli"],
        "verify main-theorem --n 405": cli + ["verify", "main-theorem", "--n", "405"],
        "spectrum C12": cli + ["spectrum", "C12"],
        "stats C1000000000039xC105": cli + ["stats", "C1000000000039xC105"],
        "scan conjecture-2.9 --n-max 3000": cli + ["scan", "conjecture-2.9", "--n-max", "3000",
                                                   "--format", "csv", "--census-dir", census_dir],
    }


def run(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode not in (0, 2):     # 2: a verdict on an incomplete catalog
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def median_ms(args: list[str], env: dict[str, str], runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        run(args, env)
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1e3, 1)


def import_times(args: list[str], env: dict[str, str]) -> dict[str, int]:
    """Self time in us of each module imported by one run, by -X importtime."""
    stderr = run(["-X", "importtime", *args], env).stderr
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                out[name.strip()] = int(self_us)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=7)
    ap.add_argument("--top", type=int, default=8)
    ap.add_argument("--census-dir", default=str(ROOT / "census"))
    args = ap.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cases = commands(args.census_dir)
    start = {label: median_ms(argv, env, args.runs) for label, argv in cases.items()}
    numpy = {label: "numpy" in import_times(argv, env) for label, argv in cases.items()}
    pgx = {name: us for name, us in import_times(cases["import pgx.cli"], env).items()
           if name == "pgx" or name.startswith("pgx.")}
    top = sorted(pgx.items(), key=lambda kv: -kv[1])[:args.top]
    print(json.dumps({"runs": args.runs, "python": sys.version.split()[0],
                      "start_ms": start, "numpy_loaded": numpy,
                      "import_self_ms": {name: round(us / 1e3, 2) for name, us in top}},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
