#!/usr/bin/env python3
"""Print a digest of stdout for a fixed set of pgx CLI calls.

Each call runs in-process through `pgx.cli.main` from the repository root,
with no PGX_* variables set and the shipped census directory. One line is
printed per call, `<sha256>  <argv>`, where the digest covers the exit code
and every byte written to stdout; a last line digests all the others.
Two versions of pgx behave the same on this set when their outputs are
byte-identical.

    python3 scripts/golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pgx.cli import main  # noqa: E402

# Three sizes of each family in the benchmark's audit workload, up to the
# brute-force cap, so that every stats call runs the graph oracle.
STATS_SPECS = (
    "C8", "C970", "C4096",
    "D8", "D306", "D2048",
    "Q8", "Q256", "Q2048",
    "SD16", "SD256", "SD2048",
    "M(4,2)", "M(7,2)", "M(11,2)",
    "M(3,3)", "M(4,5)", "M(3,13)",
    "He3", "He7", "He13",
    "Ab(2;2,1)", "Ab(5;2,1)", "Ab(13;2,1)",
    "Ab(2;1,1,1)", "Ab(7;1,1,1)", "Ab(13;1,1,1)",
    "C3xAb(5;1,1)", "Ab(3;1,1)xC5xC11", "Ab(3;1,1)xAb(5;1,1,1)",
)
GRAPH_SPECS = ("Q8", "He3", "SD32", "M(4,2)xC3")
VERIFY_CLAIMS = (
    ("main-theorem", "--n", "675"), ("main-theorem", "--n", "3375"),
    ("prop-2.2", "--p", "3", "--n", "4"), ("prop-2.8", "--p", "3", "--n", "3"),
    ("lemma-2.4",), ("lemma-2.5",), ("cor-2.6",),
)
CENSUS = ("--census-dir", "census")


def golden_calls() -> list[list[str]]:
    calls = [["stats", s, *CENSUS] for s in STATS_SPECS]
    calls += [["graph", s, kind, fmt] for s in GRAPH_SPECS
              for kind in ("directed", "undirected") for fmt in ("dot", "edge-csv")]
    calls.append(["verify", "prop-2.8", "--p", "2", "--n", "4", *CENSUS])
    calls += [["verify", *claim, *CENSUS] for claim in VERIFY_CLAIMS]
    calls.append(["verify", "main-theorem", "--n", "675", "--format", "json", *CENSUS])
    calls.append(["verify", "prop-2.8", "--p", "3", "--n", "3", "--format", "csv", *CENSUS])
    calls.append(["scan", "conjecture-2.9", "--n-max", "3000", *CENSUS])
    calls.append(["census", "ingest", "census"])
    # above the cap: stats falls back to spectra alone, graph refuses (exit 3)
    calls.append(["stats", "C5000", *CENSUS])
    calls.append(["graph", "C6", "directed", "dot", "--brute-cap", "4"])
    return calls


def digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(f"exit {code}\n{out.getvalue()}".encode()).hexdigest()


def run() -> None:
    os.chdir(ROOT)
    for var in [v for v in os.environ if v.startswith("PGX_")]:
        del os.environ[var]
    total = hashlib.sha256()
    for argv in golden_calls():
        line = f"{digest(argv)}  {' '.join(argv)}\n"
        total.update(line.encode())
        sys.stdout.write(line)
    sys.stdout.write(f"{total.hexdigest()}  (all of the above)\n")


if __name__ == "__main__":
    run()
