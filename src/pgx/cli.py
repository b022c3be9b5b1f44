"""Command-line interface.

Subcommands: stats, spectrum, graph, verify, scan, census ingest.
Configuration precedence: flags > environment (PGX_BRUTE_CAP, PGX_CENSUS_DIR,
PGX_FORMAT) > config file (--config, else ./pgx.toml if present; simple
KEY = VALUE lines) > built-in defaults.

Exit codes: 0 verified / report emitted, 1 counterexample, 2 verified on an
incomplete catalog, 3 input or resource error, 4 internal error (a failed
consistency check). Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .census import (
    VerificationReport,
    scan_conjecture_2_9,
    verify_cor_2_3,
    verify_cor_2_6,
    verify_lemma_2_1,
    verify_lemma_2_4,
    verify_lemma_2_5,
    verify_main_theorem,
    verify_prop_2_2,
    verify_prop_2_8,
)
from .constructors import build_group, parse_group_spec
from .errors import InputError, InvariantError, ResourceError
from .groups import (
    DEFAULT_SAMPLE_TRIPLES,
    DEFAULT_SEED,
    DEFAULT_TABLE_CAP,
    FULL_ASSOC_CAP,
    read_cayley,
    validate,
)
from .powergraph import build_directed, build_undirected, export, oracle_counts
from .spectrum import GroupStats, OrderSpectrum, order_spectrum, stats_from_spectrum

_FORMATS = ("json", "csv", "text")

CLAIMS = ("main-theorem", "prop-2.2", "cor-2.3", "lemma-2.4", "lemma-2.5",
          "cor-2.6", "prop-2.8", "lemma-2.1")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class CliConfig:
    brute_cap: int = DEFAULT_TABLE_CAP
    full_assoc_cap: int = FULL_ASSOC_CAP
    census_dir: str | None = "census"
    fmt: str = "text"
    seed: int = DEFAULT_SEED
    sample_triples: int = DEFAULT_SAMPLE_TRIPLES


def _parse_int(value: str, source: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise InputError(f"{source}: expected an integer, got {value!r}") from None


def _check_format(value: str, source: str) -> str:
    if value not in _FORMATS:
        raise InputError(f"{source}: format must be one of {', '.join(_FORMATS)}, "
                         f"got {value!r}")
    return value


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


# Each CliConfig field with its config-file key, the parser of a file or
# environment value (value, source) -> setting, and its environment variable.
# Its flag stores to the argparse destination named like the field.
_SETTINGS = (
    ("brute_cap", "brute-cap", _parse_int, "PGX_BRUTE_CAP"),
    ("full_assoc_cap", "full-assoc-cap", _parse_int, None),
    ("census_dir", "census-dir", lambda value, source: value, "PGX_CENSUS_DIR"),
    ("fmt", "format", _check_format, "PGX_FORMAT"),
    ("seed", "seed", _parse_int, None),
    ("sample_triples", "sample-triples", _parse_int, None),
)


def resolve_config(args: argparse.Namespace) -> CliConfig:
    """Apply file, environment, then flag settings over the defaults."""
    cfg = CliConfig()

    path: Path | None = None
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise InputError(f"config file {path} not found")
    elif Path("pgx.toml").is_file():
        path = Path("pgx.toml")
    if path is not None:
        by_key = {key: (name, parse) for name, key, parse, _ in _SETTINGS}
        for key, value in _read_config_file(path).items():
            if key not in by_key:
                raise InputError(f"{path}: unknown config key {key!r}")
            name, parse = by_key[key]
            setattr(cfg, name, parse(value, f"{path} key {key}"))

    for name, _, parse, env in _SETTINGS:
        if env and env in os.environ:
            setattr(cfg, name, parse(os.environ[env], env))

    for name, *_ in _SETTINGS:
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))

    if cfg.brute_cap < 1 or cfg.full_assoc_cap < 1 or cfg.sample_triples < 1:
        raise InputError("caps and sample counts must be positive")
    if not cfg.census_dir:
        cfg.census_dir = None
    return cfg


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


def _csv_table(rows: list[dict]) -> str:
    buf = io.StringIO()
    if not rows:
        return ""
    headers = list(rows[0].keys())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for r in rows:
        writer.writerow([_cell(r.get(h, ""), csv_mode=True) for h in headers])
    return buf.getvalue()


def render_stats(stats: GroupStats, fmt: str, oracle_checked: bool) -> str:
    d = stats.to_json_dict()
    if fmt == "csv":
        return _csv_table([d])
    if oracle_checked:
        d["oracle"] = "consistent"
    if fmt == "json":
        return json.dumps(d, indent=2) + "\n"
    return "".join(f"{key}: {value}\n" for key, value in d.items())


def render_spectrum(name: str, s: OrderSpectrum, fmt: str) -> str:
    pairs = s.items()
    if fmt == "json":
        return json.dumps({
            "name": name,
            "size": s.total,
            "spectrum": {str(d): c for d, c in pairs},
        }, indent=2) + "\n"
    if fmt == "csv":
        return _csv_table([{"order": d, "count": c} for d, c in pairs])
    lines = [f"name: {name}", f"size: {s.total}"]
    lines.extend(f"  {d}: {c}" for d, c in pairs)
    return "\n".join(lines) + "\n"


def render_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_json_dict(), indent=2) + "\n"
    if fmt == "csv":
        if report.rows:
            return _csv_table(report.rows)
        return _csv_table([{
            "claim": report.claim,
            "verdict": report.verdict.value,
            "completeness": report.completeness.value,
            "headline": report.headline,
        }])
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

def cmd_stats(args: argparse.Namespace, cfg: CliConfig) -> int:
    spec = parse_group_spec(args.spec)
    s = spec.spectrum()
    name = spec.render()
    stats = stats_from_spectrum(name, s)
    oracle_checked = False
    if stats.size <= cfg.brute_cap:
        g = build_group(spec, cfg.brute_cap)
        if order_spectrum(g) != s:
            raise InvariantError(
                f"{name}: tallied spectrum disagrees with the closed form")
        counts = oracle_counts(g, cfg.brute_cap)
        expected = (stats.directed_arcs, stats.mutual_edges, stats.undirected_edges)
        if counts != expected:
            raise InvariantError(
                f"{name}: graph oracle counts {counts} disagree with "
                f"spectrum formulas {expected}")
        oracle_checked = True
    sys.stdout.write(render_stats(stats, cfg.fmt, oracle_checked))
    return 0


def cmd_spectrum(args: argparse.Namespace, cfg: CliConfig) -> int:
    spec = parse_group_spec(args.spec)
    sys.stdout.write(render_spectrum(spec.render(), spec.spectrum(), cfg.fmt))
    return 0


def cmd_graph(args: argparse.Namespace, cfg: CliConfig) -> int:
    spec = parse_group_spec(args.spec)
    g = build_group(spec, cfg.brute_cap)
    if args.kind == "directed":
        graph = build_directed(g, cfg.brute_cap)
    else:
        graph = build_undirected(g, cfg.brute_cap)
    if args.out:
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
        with fh:
            export(graph, args.graph_format, fh)
    else:
        export(graph, args.graph_format, sys.stdout)
    return 0


def cmd_verify(args: argparse.Namespace, cfg: CliConfig) -> int:
    claim = args.claim

    def need(flag: str, value) -> int:
        if value is None:
            raise InputError(f"verify {claim} requires {flag}")
        return value

    if claim == "main-theorem":
        report = verify_main_theorem(need("--n", args.n),
                                     census_dir=cfg.census_dir,
                                     allow_even=args.allow_even)
    elif claim == "prop-2.2":
        report = verify_prop_2_2(need("--p", args.p), need("--n", args.n),
                                 census_dir=cfg.census_dir)
    elif claim == "cor-2.3":
        report = verify_cor_2_3(need("--p", args.p), need("--n", args.n))
    elif claim == "lemma-2.4":
        report = verify_lemma_2_4(args.p_max, args.m_max)
    elif claim == "lemma-2.5":
        report = verify_lemma_2_5(args.p_max, args.m_max)
    elif claim == "cor-2.6":
        report = verify_cor_2_6(q_max=args.p_max, t_max=args.m_max)
    elif claim == "prop-2.8":
        report = verify_prop_2_8(need("--p", args.p), need("--n", args.n),
                                 census_dir=cfg.census_dir)
    elif claim == "lemma-2.1":
        report = verify_lemma_2_1(pairs=args.pairs, max_order=args.max_order,
                                  seed=cfg.seed)
    else:  # unreachable: argparse restricts choices
        raise InputError(f"unknown claim {claim!r}")
    sys.stdout.write(render_report(report, cfg.fmt))
    return report.exit_code


def cmd_scan(args: argparse.Namespace, cfg: CliConfig) -> int:
    report = scan_conjecture_2_9(args.n_max, census_dir=cfg.census_dir)
    sys.stdout.write(render_report(report, cfg.fmt))
    return report.exit_code


def cmd_census_ingest(args: argparse.Namespace, cfg: CliConfig) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise InputError(f"census directory {root} does not exist")
    files = sorted(root.rglob("*.cayley"))
    if not files:
        raise InputError(f"no .cayley files found under {root}")
    rows = []
    for f in files:
        g = read_cayley(f)
        report = validate(g, mode="auto", sample_triples=cfg.sample_triples,
                          seed=cfg.seed, full_cap=cfg.full_assoc_cap)
        if not report.ok:
            fail = report.failure
            raise InputError(f"{f}: {fail.axiom} failed on witness "
                             f"{fail.witness}: {fail.detail}")
        stats = stats_from_spectrum(g.name, order_spectrum(g))
        rows.append({
            "file": f.relative_to(root).as_posix(),
            "name": g.name,
            "order": g.size,
            "validation": report.mode,
            "sigma": stats.sigma,
            "phi_sum": stats.phi_sum,
            "undirected_edges": stats.undirected_edges,
        })
    if cfg.fmt == "json":
        sys.stdout.write(json.dumps({
            "directory": str(root),
            "count": len(rows),
            "files": rows,
        }, indent=2) + "\n")
    elif cfg.fmt == "csv":
        sys.stdout.write(_csv_table(rows))
    else:
        sys.stdout.write(f"ingested {len(rows)} Cayley tables from {root}\n\n")
        sys.stdout.write(_text_table(rows))
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
    common.add_argument("--format", dest="fmt", choices=_FORMATS,
                        help="output format (default text)")
    common.add_argument("--census-dir", metavar="DIR",
                        help="directory with census/<order>/*.cayley tables "
                             "(default ./census; empty string disables)")
    common.add_argument("--brute-cap", type=int, metavar="N",
                        help="largest order for table materialization and "
                             "graph oracles (default 4096)")
    common.add_argument("--full-assoc-cap", type=int, metavar="N",
                        help="largest order validated with full associativity "
                             "(default 256)")
    common.add_argument("--seed", type=int, metavar="S",
                        help="seed for sampled checks and random pair draws "
                             "(default 1729)")
    common.add_argument("--sample-triples", type=int, metavar="K",
                        help="triples for sampled associativity (default 1000000)")

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
    p.add_argument("--p-max", type=int, default=97,
                   help="largest prime in sweep claims (default 97)")
    p.add_argument("--m-max", type=int, default=12,
                   help="largest exponent in sweep claims (default 12)")
    p.add_argument("--pairs", type=int, default=200,
                   help="random coprime pairs for lemma-2.1 (default 200)")
    p.add_argument("--max-order", type=int, default=200,
                   help="largest factor order for lemma-2.1 (default 200)")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        return args.func(args, cfg)
    except (InputError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
