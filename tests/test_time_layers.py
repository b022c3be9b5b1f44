"""The layer-timing harness: its in-process sections run at small
settings and give the keys their readers expect, so the harness cannot drift
from the private pgx names it imports. The start section stays out: one run
of it starts 13 interpreters."""

import importlib.util
import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "time_layers.py"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))    # the script prepends src and pgxbench
    spec = importlib.util.spec_from_file_location("time_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_section_times_each_spec(harness, capsys):
    assert harness.main(["build", "--specs", "C8", "--reps", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reps"] == 1 and list(out["builds"]) == ["C8"]
    row = out["builds"]["C8"]
    assert list(row) == ["order", "build_ms", "fill_ms", "build_over_fill"]
    assert row["order"] == 8


def test_validate_section_reads_checks_and_writes_each_table(harness):
    out = harness.time_validate(Namespace(seeds=[], reps=1))
    assert list(out) == ["reps", "cpus", "tables", "total_ms"]
    timed = ["read_ms", "validate_ms", "generators_ms", "light_ms", "write_ms"]
    assert len(out["tables"]) == len(list((REPO_ROOT / "census" / "16").glob("*.cayley"))) > 0
    for row in out["tables"]:
        assert list(row) == ["source", "table", "order", "mode", "ok", *timed]
        assert (row["source"], row["order"], row["mode"], row["ok"]) == ("census/16", 16, "full", True)
        # validate runs Light's test at every order, so every group table times both parts
        assert row["generators_ms"] >= 0 and row["light_ms"] >= 0
    assert list(out["total_ms"]) == ["census/16"] and list(out["total_ms"]["census/16"]) == timed


def test_graph_section_builds_and_exports_each_io_graph_op(harness):
    out = harness.time_graph(Namespace(seeds=[1], reps=1))
    assert list(out) == ["reps", "ops", "total_ms"]
    graph_ops = [op for op in harness.workloads.build_round("io", 1)[0] if op.kind == "graph"]
    assert len(out["ops"]) == len(graph_ops) > 0
    for row, op in zip(out["ops"], graph_ops):
        assert list(row) == ["source", "spec", "kind", "format", "order", "build_ms",
                             "export_ms", "bytes"]
        assert [row[k] for k in ("source", "spec", "kind", "format")] == ["seed 1", *op.argv[1:4]]
        assert row["order"] == op.spec.order and row["bytes"] > 0
    sums = {k: sum(r[k] for r in out["ops"]) for k in ("build_ms", "export_ms")}
    assert out["total_ms"] == {"seed 1": pytest.approx(sums)}


def test_scan_section_times_each_layer(harness):
    out = harness.time_scan(Namespace(n_max=[9], reps=1, census_dir=str(REPO_ROOT / "census")))
    assert list(out) == ["reps", "census_dir", "scans"] and list(out["scans"]) == [9]
    row = out["scans"][9]
    assert list(row) == ["rows", "sylows", "sieve_ms", "sylow_table_ms", "rows_ms",
                         "csv_write_ms", "end_to_end_ms"]
    assert (row["rows"], row["sylows"]) == (1, 1)      # 9 = 3^2, the one odd non-square-free order


def test_claims_section_times_the_grid_and_each_sweep(harness, capsys):
    assert harness.main(["claims", "--p-max", "5", "--m-max", "3", "--reps", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["reps", "p_max", "m_max", "claims"]
    assert (out["reps"], out["p_max"], out["m_max"]) == (1, 5, 3)
    claims = out["claims"]
    assert list(claims) == ["phi_grid", "lemma-2.4", "lemma-2.5", "cor-2.6", "lemma-2.1"]
    assert list(claims["phi_grid"]) == ["ms", "points"] and claims["phi_grid"]["points"] == 3 * 2
    for claim in ("lemma-2.4", "lemma-2.5", "cor-2.6", "lemma-2.1"):
        assert list(claims[claim]) == ["ms", "rows", "verdict"]
        assert claims[claim]["verdict"] == "verified", claim
    assert [claims[c]["rows"] for c in ("lemma-2.4", "lemma-2.5", "cor-2.6")] == [6, 6, 3]
