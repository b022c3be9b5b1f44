#!/usr/bin/env python3
"""Print a digest of stdout for a fixed set of pgx CLI calls.

Each call runs in-process through `pgx.cli.main` from the repository root,
with no PGX_* variables set and the shipped census directory. One line is
printed per call, `<sha256>  <argv>`, where the digest covers the exit code
and every byte written to stdout. The calls come in sets, and after each set
a line digests all the lines above it; the first set's digest therefore
stays comparable when later sets are added. The argument {gen} stands for a
temporary directory holding Cayley tables that the script writes with
`write_cayley` before the calls.
Two versions of pgx behave the same on this set when their outputs are
byte-identical. scripts/golden_cli.expected holds the recorded output, and
tests/test_golden.py compares against it.

    python3 scripts/golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pgx.cli import main  # noqa: E402
from pgx.constructors import build_group, parse_group_spec  # noqa: E402
from pgx.groups import write_cayley  # noqa: E402

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
# Tables written to {gen}, at orders 243, 300 and 1024; each is validated exactly.
GEN_SPECS = ("Ab(3;2,2)xC3", "D300", "M(10,2)")
# One spectrum call per family of specs.
SPECTRUM_SPECS = ("C97", "Ab(3;3,2,1)", "M(9,5)", "D10002", "Q8192", "SD16384", "He31",
                  "file:census/16/d8oc4.cayley")


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
    # the formula workload's shapes: a large prime factor, a large order, a wide scan
    calls.append(["stats", "C442637112103xSD32", *CENSUS])
    calls.append(["spectrum", "C1000000000039xC105", *CENSUS])
    calls.append(["verify", "main-theorem", "--n", "999999", *CENSUS])
    calls.append(["scan", "conjecture-2.9", "--n-max", "10000", "--format", "csv", *CENSUS])
    # the io workload's shapes: large graph exports and a written census
    calls.append(["graph", "C1024", "directed", "dot"])
    calls.append(["graph", "D1024", "undirected", "edge-csv"])
    calls.append(["graph", "Ab(3;1,1)xC5xC11", "directed", "dot"])
    calls.append(["census", "ingest", "{gen}", "--format", "csv"])
    return calls


def later_calls() -> list[list[str]]:
    """The CSV and JSON renderings of stats and spectrum, and every family's spectrum."""
    calls = [[command, spec, "--format", fmt, *CENSUS]
             for command, spec in (("stats", "C9xC3"), ("spectrum", "C12"))
             for fmt in ("csv", "json")]
    calls += [["spectrum", spec, *CENSUS] for spec in SPECTRUM_SPECS]
    return calls


def settings_calls() -> list[list[str]]:
    """Census validation, which takes no settings, in census ingest and in a
    catalog's census."""
    return [["census", "ingest", "census", "--format", "csv"],
            ["verify", "prop-2.8", "--p", "2", "--n", "4", *CENSUS]]


def formula_calls() -> list[list[str]]:
    """The claims that compare edge counts or factor n, not covered above."""
    claims = (("cor-2.3", "--p", "3", "--n", "5"),
              ("cor-2.3", "--p", "5", "--n", "4", "--format", "json"),
              ("lemma-2.1",),
              ("main-theorem", "--n", "48", "--allow-even"),
              ("prop-2.2", "--p", "5", "--n", "3", "--format", "json"))
    return [["verify", *claim, *CENSUS] for claim in claims]


def scan_calls() -> list[list[str]]:
    """The scan on a census whose 3^5 table duplicates a parametric spectrum,
    and the scan's JSON report."""
    return [["scan", "conjecture-2.9", "--n-max", "20000", "--format", "csv",
             "--census-dir", "{gen}"],
            ["scan", "conjecture-2.9", "--n-max", "3000", "--format", "json", *CENSUS]]


def label_calls() -> list[list[str]]:
    """DOT exports of the two families the sets above draw no DOT for, so DOT
    output covers the labels of every family."""
    return [["graph", "D12", "directed", "dot"], ["graph", "Q16", "undirected", "dot"]]


def export_calls() -> list[list[str]]:
    """io-sized exports in the modes the first set draws none of at that size,
    and a DOT export whose labels come from a product with a census table."""
    return [["graph", "C1024", "undirected", "dot"],
            ["graph", "M(10,2)", "directed", "edge-csv"],
            ["graph", "SD1024", "undirected", "edge-csv"],
            ["graph", "file:census/16/d8oc4.cayley x C3", "directed", "dot"]]


def large_order_calls() -> list[list[str]]:
    """The main theorem at 3^20 * 5^20 and at (3 * 5 * 7 * 11 * 13 * 17)^4,
    whose nilpotent groups number 394,384 and 46,656: far more than the
    members with one non-cyclic Sylow factor that can attain the maximum."""
    return [["verify", "main-theorem", "--n", str(n), *CENSUS]
            for n in (3 ** 20 * 5 ** 20, (3 * 5 * 7 * 11 * 13 * 17) ** 4)]


def catalog_calls() -> list[list[str]]:
    """An odd order with a Sylow catalog of order p^4, in text and in JSON;
    prop-2.8 on that catalog; and a census path that is a file, whose
    report notes that no census table was read."""
    return [["verify", "main-theorem", "--n", "405", *CENSUS],
            ["verify", "main-theorem", "--n", "405", "--format", "json", *CENSUS],
            ["verify", "prop-2.8", "--p", "3", "--n", "4", *CENSUS],
            ["verify", "prop-2.2", "--p", "3", "--n", "3",
             "--census-dir", "census/16/c16.cayley"]]


def format_calls() -> list[list[str]]:
    """The (command, format) pairs that no set above draws: census ingest in
    JSON, stats above the cap (no oracle key) in JSON and CSV, and verify
    reports in CSV; then the CSV scan to 2 * 10^4 on the shipped census, whose
    stdout alone hashes to 12d84729...3e47."""
    return [["census", "ingest", "census", "--format", "json"],
            ["stats", "C5000", "--format", "json", *CENSUS],
            ["stats", "C5000", "--format", "csv", *CENSUS],
            ["verify", "main-theorem", "--n", "675", "--format", "csv", *CENSUS],
            ["verify", "lemma-2.5", "--format", "csv", *CENSUS],
            ["scan", "conjecture-2.9", "--n-max", "20000", "--format", "csv", *CENSUS]]


def product_calls() -> list[list[str]]:
    """Long and mixed direct products: 24 atoms, above the cap, in text and
    JSON; a census table between two cyclic factors, under the cap, so the
    oracle runs; four families at four primes, whose spectrum has 32 orders;
    a product spelled with uneven spaces; and a DOT export of four atoms."""
    c2_24 = "x".join(["C2"] * 24)
    mixed = "C4 x file:census/16/q16.cayley x C3"
    families = "Ab(3;1,1)xM(4,5)xHe7xC11"
    return [["stats", c2_24, *CENSUS],
            ["stats", c2_24, "--format", "json", *CENSUS],
            ["stats", mixed, *CENSUS],
            ["stats", mixed, "--format", "csv", *CENSUS],
            ["spectrum", families, *CENSUS],
            ["spectrum", families, "--format", "json", *CENSUS],
            ["stats", "C2 x C3xC5 x  C7", "--format", "json", *CENSUS],
            ["graph", "C2xC2xC3xC2", "directed", "dot"]]


def write_gen(gen: Path) -> None:
    for spec in GEN_SPECS:
        g = build_group(parse_group_spec(spec))
        (gen / str(g.size)).mkdir()
        write_cayley(g, gen / str(g.size) / f"{g.size}.cayley")


def digest(argv: list[str], gen: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(gen) if a == "{gen}" else a for a in argv])
    return hashlib.sha256(f"exit {code}\n{out.getvalue()}".encode()).hexdigest()


def run() -> None:
    os.chdir(ROOT)
    for var in [v for v in os.environ if v.startswith("PGX_")]:
        del os.environ[var]
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        write_gen(Path(tmp))
        for calls in (golden_calls(), later_calls(), settings_calls(), formula_calls(),
                      scan_calls(), label_calls(), export_calls(), large_order_calls(),
                      catalog_calls(), format_calls(), product_calls()):
            for argv in calls:
                line = f"{digest(argv, Path(tmp))}  {' '.join(argv)}\n"
                total.update(line.encode())
                sys.stdout.write(line)
            sys.stdout.write(f"{total.hexdigest()}  (all of the above)\n")


if __name__ == "__main__":
    run()
