"""Command-line interface.

Subcommands: stats, spectrum, graph, verify, scan, census ingest.
Configuration precedence: flags > environment (PGX_BRUTE_CAP, PGX_CENSUS_DIR,
PGX_FORMAT) > config file (--config, else ./pgx.toml if present; simple
KEY = VALUE lines) > built-in defaults.

Exit codes: 0 verified / report emitted, 1 counterexample, 2 verified on an
incomplete catalog, 3 input or resource error, 4 internal error (a failed
consistency check, or any other uncaught exception of the command-line entry
point). Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from pathlib import Path

from .census import (
    CLAIMS,
    DEFAULT_M_MAX,
    DEFAULT_MAX_ORDER,
    DEFAULT_P_MAX,
    DEFAULT_PAIRS,
    DEFAULT_SEED,
    SCAN_COLUMNS,
    VerificationReport,
    scan_conjecture_2_9,
    scan_rows,
    verify,
)
from .constructors import Census, build_group, parse_group_spec
from .errors import InputError, InvariantError, ResourceError
from .groups import DEFAULT_TABLE_CAP
from .powergraph import build_directed, build_undirected, export, oracle_counts
from .spectrum import order_spectrum, stats_from_spectrum

_FORMATS = ("json", "csv", "text")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _parse_int(value: str, source: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise InputError(f"{source}: expected an integer, got {value!r}") from None


def _parse_format(value: str, source: str) -> str:
    if value not in _FORMATS:
        raise InputError(f"{source}: must be one of {', '.join(_FORMATS)}, got {value!r}")
    return value


# Each setting once, as (name, environment variable, default, parser, help).
# The name is the namespace attribute; the flag --name and the config key name
# spell it with dashes. The parser maps (value, source) to the setting.
_SETTINGS = (
    ("format", "PGX_FORMAT", "text", _parse_format,
     f"output format, one of {', '.join(_FORMATS)}"),
    ("census_dir", "PGX_CENSUS_DIR", "census", lambda value, source: value or None,
     "directory with <order>/*.cayley census tables; an empty string disables the census"),
    ("brute_cap", "PGX_BRUTE_CAP", DEFAULT_TABLE_CAP, _parse_int,
     "largest order for table materialization and graph oracles"),
    ("seed", None, DEFAULT_SEED, _parse_int, "seed for lemma-2.1's random pair draws"),
)


def _read_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected KEY = VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("_", "-")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        entries[key] = value
    return entries


def resolve_config(args: argparse.Namespace) -> None:
    """Set each setting the flags left unset in args: the environment over the
    config file (--config, else ./pgx.toml when present) over the default.
    Every file and environment value is parsed, also where a flag wins."""
    path: Path | None = None
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise InputError(f"config file {path} not found")
    elif Path("pgx.toml").is_file():
        path = Path("pgx.toml")
    entries = _read_config_file(path) if path is not None else {}
    for name, env, value, parse, _ in _SETTINGS:
        key = name.replace("_", "-")
        if key in entries:
            value = parse(entries.pop(key), f"{path} key {key}")
        if env and env in os.environ:
            value = parse(os.environ[env], env)
        if name not in vars(args):
            setattr(args, name, value)
    if entries:
        raise InputError(f"{path}: unknown config key {next(iter(entries))!r}")
    if args.brute_cap < 1:
        raise InputError(f"brute-force cap must be positive, got {args.brute_cap}")
    if args.seed < 0:
        raise InputError(f"seed must be non-negative, got {args.seed}")


def _census(directory: str | None) -> Census | None:
    return None if directory is None else Census(directory)


def _note_missing_census(report: VerificationReport, census: Census | None) -> VerificationReport:
    """report, with a note naming the census directory when one is set but
    is not a directory, so that no census table was read."""
    if census is not None and not census.exists():
        report.notes.append(f"census directory {census.dir} is not a directory; "
                            "no census table was read")
    return report


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _cell(v: object, csv_mode: bool = False) -> str:
    if isinstance(v, bool):
        if csv_mode:
            return "true" if v else "false"
        return "yes" if v else "no"
    if isinstance(v, (list, tuple)):
        return ", ".join(str(x) for x in v)
    return str(v)


def _text_table(rows: list[dict]) -> str:
    if not rows:
        return ""
    headers = list(rows[0].keys())
    body = [[_cell(r.get(h, "")) for h in headers] for r in rows]
    widths = [max(len(h), *(len(line[i]) for line in body))
              for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for line in body:
        out.append("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def _write_scan_csv(sink, rows) -> None:
    """Write the scan's header line, then its rows in one `writerows` call.
    Every value but `supported` is an int or a string that csv writes as
    `_cell` would; that one bool is mapped to true/false here."""
    s = SCAN_COLUMNS.index("supported")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    writer.writerows((*row[:s], "true" if row[s] else "false", *row[s + 1:]) for row in rows)


def _csv_table(rows: list[dict]) -> str:
    if not rows:
        return ""
    headers = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows([_cell(r.get(h, ""), csv_mode=True) for h in headers] for r in rows)
    return buf.getvalue()


def _write(fmt: str, doc: dict, rows: list[dict], text) -> None:
    """Write a command's one document to stdout in --format fmt: doc as
    indented JSON, rows as a CSV table, or the string text() returns. Only
    `scan --format csv` passes it by, streaming its rows to `_write_scan_csv`."""
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    elif fmt == "csv":
        sys.stdout.write(_csv_table(rows))
    else:
        sys.stdout.write(text())


def _report_text(report: VerificationReport) -> str:
    lines = [
        f"claim: {report.claim}",
        f"verdict: {report.verdict.value}",
        f"completeness: {report.completeness.value}",
        f"exit-code: {report.exit_code}",
        f"headline: {report.headline}",
    ]
    for k, v in report.params.items():
        lines.append(f"param {k}: {_cell(v)}")
    if report.argmax:
        lines.append(f"argmax: {', '.join(report.argmax)}")
    for note in report.notes:
        lines.append(f"note: {note}")
    out = "\n".join(lines) + "\n"
    if report.rows:
        out += "\n" + _text_table(report.rows)
    if report.witnesses and report.verdict.value == "counterexample":
        out += "\nwitnesses:\n" + _text_table(report.witnesses)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    spec = parse_group_spec(args.spec)
    s = spec.spectrum()
    name = spec.render()
    stats = stats_from_spectrum(name, s)
    row = doc = stats.to_json_dict()
    if stats.size <= args.brute_cap:
        g = build_group(spec, args.brute_cap)
        if order_spectrum(g) != s:
            raise InvariantError(
                f"{name}: tallied spectrum disagrees with the closed form")
        counts = oracle_counts(g, args.brute_cap)
        expected = (stats.directed_arcs, stats.mutual_edges, stats.undirected_edges)
        if counts != expected:
            raise InvariantError(
                f"{name}: graph oracle counts {counts} disagree with "
                f"spectrum formulas {expected}")
        doc = {**row, "oracle": "consistent"}    # text and JSON only: the CSV row stays as is
    _write(args.format, doc, [row], lambda: "".join(f"{k}: {v}\n" for k, v in doc.items()))
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    spec = parse_group_spec(args.spec)
    name, s = spec.render(), spec.spectrum()
    pairs = s.items()
    _write(args.format, {"name": name, "size": s.total, "spectrum": {str(d): c for d, c in pairs}},
           [{"order": d, "count": c} for d, c in pairs],
           lambda: "".join([f"name: {name}\nsize: {s.total}\n", *(f"  {d}: {c}\n" for d, c in pairs)]))
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    spec = parse_group_spec(args.spec)
    g = build_group(spec, args.brute_cap)
    if args.kind == "directed":
        graph = build_directed(g, args.brute_cap)
    else:
        graph = build_undirected(g, args.brute_cap)
    if args.graph_format == "dot":
        graph.labels    # made and checked first, so refused labels leave no --out file
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                export(graph, args.graph_format, fh)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        export(graph, args.graph_format, sys.stdout)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    settings = []
    census = None
    for name in CLAIMS[args.claim][1]:
        if name == "census":
            census = _census(args.census_dir)
            settings.append(census)
        elif getattr(args, name) is None:       # --p and --n have no default
            raise InputError(f"verify {args.claim} requires --{name}")
        else:
            settings.append(getattr(args, name))
    report = _note_missing_census(verify(args.claim, *settings), census)
    _write(args.format, report.to_json_dict(), report.rows, lambda: _report_text(report))
    return report.exit_code


def cmd_scan(args: argparse.Namespace) -> int:
    census = _census(args.census_dir)
    if args.format == "csv":
        rows = scan_rows(args.n_max, census)    # raises, if at all, before any output
        _write_scan_csv(sys.stdout, rows)
        return 0            # the scan is report-only
    report = _note_missing_census(scan_conjecture_2_9(args.n_max, census), census)
    _write(args.format, report.to_json_dict(), report.rows, lambda: _report_text(report))
    return report.exit_code


def cmd_census_ingest(args: argparse.Namespace) -> int:
    root, census = Path(args.dir), Census(args.dir)
    if not census.exists():
        state = "is not a directory" if root.exists() else "does not exist"
        raise InputError(f"census directory {root} {state}")
    tables = census.every_table()
    if not tables:
        raise InputError(f"no .cayley files found under {root}")
    rows = []
    for f, order in tables:     # a table under <order>/ is checked against that order
        entry = census.admit(f, order)
        stats = stats_from_spectrum(f.stem, entry.spectrum)
        rows.append({
            "file": f.relative_to(root).as_posix(),
            "name": stats.name,
            "order": stats.size,
            "validation": entry.validation,
            "sigma": stats.sigma,
            "phi_sum": stats.phi_sum,
            "undirected_edges": stats.undirected_edges,
        })
    _write(args.format, {"directory": str(root), "count": len(rows), "files": rows}, rows,
           lambda: f"ingested {len(rows)} Cayley tables from {root}\n\n{_text_table(rows)}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors surface as InputError (exit 3)."""

    def error(self, message: str):  # noqa: D401 - argparse hook
        raise InputError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="config file (default: ./pgx.toml when present)")
    for name, _, default, parse, help_text in _SETTINGS:
        flag = "--" + name.replace("_", "-")
        # a flag left out sets nothing, so resolve_config can tell it was not given
        common.add_argument(flag, dest=name, default=argparse.SUPPRESS,
                            type=lambda value, parse=parse, flag=flag: parse(value, flag),
                            help=f"{help_text} (default {default})")

    parser = _Parser(
        prog="pgx",
        description="Exact power-graph statistics and extremal verification "
                    "for finite groups.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("stats", parents=[common],
                       help="exact statistics for a group spec")
    p.add_argument("spec", help="group spec, e.g. 'C9xC3' or 'M(3,3)xC5'")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("spectrum", parents=[common],
                       help="order spectrum of a group spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("graph", parents=[common],
                       help="export a power graph (within the brute-force cap)")
    p.add_argument("spec")
    p.add_argument("kind", choices=("directed", "undirected"))
    p.add_argument("graph_format", choices=("dot", "edge-csv"))
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification harness")
    p.add_argument("claim", choices=CLAIMS)
    p.add_argument("--n", type=int, help="group order (main-theorem) or "
                                         "p-group exponent (prop/cor claims)")
    p.add_argument("--p", type=int, help="prime for p-group claims")
    p.add_argument("--p-max", type=int, default=DEFAULT_P_MAX,
                   help=f"largest prime in sweep claims (default {DEFAULT_P_MAX})")
    p.add_argument("--m-max", type=int, default=DEFAULT_M_MAX,
                   help=f"largest exponent in sweep claims (default {DEFAULT_M_MAX})")
    p.add_argument("--pairs", type=int, default=DEFAULT_PAIRS,
                   help=f"random coprime pairs for lemma-2.1 (default {DEFAULT_PAIRS})")
    p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                   help=f"largest factor order for lemma-2.1 (default {DEFAULT_MAX_ORDER})")
    p.add_argument("--allow-even", action="store_true",
                   help="main-theorem only: run even orders as report-only")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", parents=[common],
                       help="exploratory sweep (no pass/fail contract)")
    p.add_argument("target", choices=("conjecture-2.9",))
    p.add_argument("--n-max", type=int, required=True,
                   help="scan odd non-square-free orders up to this bound")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("census", help="census table utilities")
    csub = p.add_subparsers(dest="census_command", metavar="SUBCOMMAND")
    csub.required = True
    p_ing = csub.add_parser("ingest", parents=[common],
                            help="validate and summarize .cayley tables")
    p_ing.add_argument("dir")
    p_ing.set_defaults(func=cmd_census_ingest)

    return parser


@cache
def _parser() -> _Parser:
    """build_parser(), run on the first call only: parse_args makes a fresh
    namespace each time, and resolve_config writes to that namespace only, so
    the parser carries nothing from one call to the next."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        resolve_config(args)
        return args.func(args)
    except (InputError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def main_entry() -> None:
    try:
        sys.stdout.reconfigure(encoding="utf-8")    # as --out writes, whatever the locale
        code = main()
        sys.stdout.flush()
    except OSError as exc:      # file reads and --out fail as InputError, so this is stdout
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        # the interpreter flushes stdout once more at exit; send what is left nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 3
    except Exception as exc:    # a crash, caught here only: callers of main see it raised
        print(f"internal error: {exc!r}", file=sys.stderr)
        code = 4
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
