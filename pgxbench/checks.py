"""Output checks that share no code with pgx.

Each check takes an operation, its exit code, its stdout and the path it
wrote or read (graph export and census ingest), and returns None or a
one-line reason for failure.
"""

from __future__ import annotations

from pathlib import Path

from workloads import CAP, Op


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def check_stats(op: Op, code: int, stdout: str, path: Path | None) -> str | None:
    if code != 0:
        return f"exit code {code}"
    f = _fields(stdout)
    try:
        size, sigma, phi, arcs, mutual, edges = (int(f[k]) for k in (
            "size", "sigma", "phi_sum", "directed_arcs", "mutual_edges",
            "undirected_edges"))
    except (KeyError, ValueError):
        return "stats output lacks a numeric field"
    if arcs != sigma - size:
        return "arcs != sigma - size"
    if 2 * mutual != phi - size:
        return "2*mutual != phi_sum - size"
    if edges != arcs - mutual:
        return "edges != arcs - mutual"
    spec = op.spec
    if (size, sigma, phi) != (spec.order, spec.sigma, spec.phi_sum):
        return f"(size, sigma, phi_sum) = {(size, sigma, phi)}, expected " \
               f"{(spec.order, spec.sigma, spec.phi_sum)}"
    if (f.get("oracle") == "consistent") != (size <= CAP):
        return "oracle line present iff order <= cap does not hold"
    return None


def check_spectrum(op: Op, code: int, stdout: str, path: Path | None) -> str | None:
    if code != 0:
        return f"exit code {code}"
    f = _fields(stdout)
    try:
        counts = tuple(sorted((int(k), int(v)) for k, v in f.items()
                              if k.strip().isdigit()))
        size = int(f["size"])
    except (KeyError, ValueError):
        return "spectrum output is malformed"
    if size != op.spec.order or counts != op.spec.spectrum:
        return "spectrum differs from the independent model"
    return None


def check_verify(op: Op, code: int, stdout: str, path: Path | None) -> str | None:
    f = _fields(stdout)
    if f.get("claim") != op.argv[1] or f.get("exit-code") != str(code):
        return "report does not name the claim and the exit code"
    completeness = f.get("completeness")
    if code == 0 and completeness is not None:
        return None
    if code == 2 and completeness == "incomplete":
        return None
    return f"exit code {code} with completeness {completeness}"


def _csv_rows(stdout: str) -> list[list[str]]:
    lines = stdout.splitlines()
    return [line.split(",") for line in lines[1:]] if lines else []


def check_scan(op: Op, code: int, stdout: str, path: Path | None) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rows = len(_csv_rows(stdout))
    if rows != op.expect["rows"]:
        return f"{rows} scan rows, expected {op.expect['rows']}"
    return None


def check_graph(op: Op, code: int, stdout: str, path: Path | None) -> str | None:
    if code != 0:
        return f"exit code {code}"
    data = path.read_bytes()
    directed = op.expect["kind"] == "directed"
    if op.expect["format"] == "edge-csv":
        if not data.startswith(b"src,dst\n" if directed else b"a,b\n"):
            return "edge-csv header missing"
        pairs = data.count(b"\n") - 1
    else:
        pairs = data.count(b'" -> "' if directed else b'" -- "')
        if not data.endswith(b"}\n"):
            return "dot document is not closed"
    expected = op.spec.arcs if directed else op.spec.edges
    if pairs != expected:
        return f"{pairs} pairs written, formula count is {expected}"
    return None


def check_ingest(op: Op, code: int, stdout: str, path: Path | None) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rows = _csv_rows(stdout)
    files = sorted(path.rglob("*.cayley"))
    if len(rows) != len(files):
        return f"{len(rows)} rows for {len(files)} files"
    if any(len(r) < 3 or r[2] != str(op.expect["order"]) for r in rows):
        return "a row reports the wrong order"
    return None


CHECKS = {"stats": check_stats, "spectrum": check_spectrum, "verify": check_verify,
          "scan": check_scan, "graph": check_graph, "ingest": check_ingest}
