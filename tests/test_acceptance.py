"""Acceptance suite: nine criteria, one test each, full-inventory checks.

The inventory fixture builds every cataloged group of order <= 2000 once:
all cyclic groups, every nilpotent census member for odd non-square-free
orders whose prime exponents stay <= 3, the complete order-p^3 catalogs with
p^3 <= 2000, and the modular maximal-cyclic family. Each record keeps the
closed-form spectrum next to brute-force facts (element-order tally, raw
order/totient sums, explicit graph counts) that share no arithmetic with it.
"""

import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import gcd

import pytest

from pgx.census import (
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
from pgx.census import Verdict, enumerate_nilpotent
from pgx.constructors import (
    Census,
    Completeness,
    Cyclic,
    Modular,
    build_group,
    p_group_catalog,
)
from pgx.powergraph import oracle_counts
from pgx.spectrum import (
    OrderSpectrum,
    factor,
    is_prime,
    phi_cyclic_prime_power,
    stats_from_spectrum,
)

SIZE_LIMIT = 2000
ODD_PRIMES_23 = (3, 5, 7, 11, 13, 17, 19, 23)
CUBE_PRIMES = (2, 3, 5, 7, 11)          # p^3 <= 2000


def census_orders() -> list[int]:
    """Odd non-square-free orders <= 2000 whose prime exponents are all <= 3."""
    out = []
    for n in range(9, SIZE_LIMIT + 1, 2):
        if 1 < max(a for _, a in factor(n)) <= 3:
            out.append(n)
    return out


@cache
def gcd_totient(m: int) -> int:
    """Euler's phi by counting the k <= m coprime to m: no factoring, so
    nothing of pgx.spectrum's number theory."""
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


@dataclass(frozen=True)
class Record:
    size: int
    formula: OrderSpectrum      # closed-form spectrum, no group was built
    tally: OrderSpectrum        # element-order tally of the explicit table
    raw_sigma: int              # sum of element orders
    raw_phi: int                # sum of totient(element order)
    graph: tuple[int, int, int]  # (arcs, mutual pairs, edges) from the graph


@pytest.fixture(scope="module")
def inventory():
    specs = {}
    for m in range(1, SIZE_LIMIT + 1):
        specs[f"C{m}"] = Cyclic(m)
    orders = census_orders()
    assert len(orders) == 175
    for n in orders:
        members, completeness = enumerate_nilpotent(n, factor(n), None)
        assert completeness is Completeness.COMPLETE
        for member in members:
            specs[member.render()] = member.spec
    for p in CUBE_PRIMES:
        entries, completeness = p_group_catalog(p, 3)
        assert completeness is Completeness.COMPLETE
        for entry in entries:
            specs[entry.render()] = entry.spec
    for p in (2, 3, 5, 7, 11):
        n = 4 if p == 2 else 3
        while p ** n <= SIZE_LIMIT:
            spec = Modular(n, p)
            specs[spec.render()] = spec
            n += 1

    records = {}
    for name, spec in specs.items():
        g = build_group(spec)
        orders_list = g.element_orders()
        counts = Counter(orders_list)
        records[name] = Record(
            size=g.size,
            formula=spec.spectrum(),
            tally=OrderSpectrum(counts),
            raw_sigma=sum(orders_list),
            raw_phi=sum(c * gcd_totient(o) for o, c in counts.items()),
            graph=oracle_counts(g),
        )
    return records


def test_criterion_1(inventory):
    """Spectrum-formula counts equal explicit-graph counts on every group."""
    assert all(f"C{m}" in inventory for m in range(1, SIZE_LIMIT + 1))
    for name in ("Q8", "D8", "He3", "He11", "M(3,3)", "M(3,11)",
                 "M(4,2)", "M(10,2)", "M(6,3)", "M(4,5)", "M(3,7)",
                 "Ab(3;2,1)xC5", "Ab(3;1,1)xC25", "C9xAb(5;1,1)"):
        assert name in inventory, name
    assert len(inventory) > 2400
    for name, rec in inventory.items():
        assert rec.tally == rec.formula, name
        stats = stats_from_spectrum(name, rec.formula)
        formula_counts = (stats.directed_arcs, stats.mutual_edges, stats.undirected_edges)
        assert formula_counts == rec.graph, name


def test_criterion_2(inventory):
    """Arc, mutual-pair and edge identities against raw order/totient sums."""
    for name, rec in inventory.items():
        arcs, mutual, edges = rec.graph
        assert arcs == rec.raw_sigma - rec.size, name
        assert (rec.raw_phi - rec.size) % 2 == 0, name
        assert mutual == (rec.raw_phi - rec.size) // 2, name
        assert edges == rec.raw_sigma - (rec.raw_phi + rec.size) // 2, name
        assert (rec.raw_phi + rec.size) % 2 == 0, name


def test_criterion_3():
    """Exact phi multiplicativity on 200 randomized coprime pairs."""
    report = verify_lemma_2_1()
    assert report.verdict is Verdict.VERIFIED
    assert report.params["pairs"] == 200
    assert len(report.rows) == 200
    assert all(r["holds"] for r in report.rows)
    assert all(r["phi_product"] == r["phi_left"] * r["phi_right"]
               for r in report.rows)


def test_criterion_4(inventory):
    """Recurrences, sandwich and ratio sweeps; closed form vs direct tally."""
    recurrences = verify_lemma_2_4(p_max=97, m_max=12)
    assert recurrences.verdict is Verdict.VERIFIED
    assert recurrences.params["grid_points"] == 25 * 11
    sandwich = verify_lemma_2_5(p_max=97, m_max=12)
    assert sandwich.verdict is Verdict.VERIFIED
    ratios = verify_cor_2_6(q_max=97, t_max=12)
    assert ratios.verdict is Verdict.VERIFIED
    assert ratios.params["pairs"] == 25 * 24 // 2
    # closed form matches the brute-force totient sum wherever p^m <= 2000
    checked = 0
    for p in range(2, SIZE_LIMIT + 1):
        if not is_prime(p):
            continue
        m = 1
        while p ** m <= SIZE_LIMIT:
            assert phi_cyclic_prime_power(p, m) == inventory[f"C{p ** m}"].raw_phi
            checked += 1
            m += 1
    assert checked > 300
    assert inventory["C9"].raw_phi == 41
    assert inventory["Ab(3;1,1)"].raw_phi == 17
    assert inventory["Ab(3;2,1)"].raw_phi == 125


def test_criterion_5():
    """Expected maximizer wins at every odd non-square-free order <= 2000."""
    orders = census_orders()
    assert len(orders) == 175
    for n in orders:
        report = verify_main_theorem(n)
        assert report.verdict is Verdict.VERIFIED, n
        assert report.completeness is Completeness.COMPLETE, n
        assert report.exit_code == 0, n
    spotlight = verify_main_theorem(135)
    assert spotlight.argmax == ["Ab(3;2,1)xC5", "M(3,3)xC5"]
    best = max(r["phi_sum"] for r in spotlight.rows)
    assert best == 2125
    assert all(r["phi_sum"] == 2125 for r in spotlight.rows if r["argmax"])


def test_criterion_6():
    """Phi argmax pair and equal mutual counts for odd p <= 23 at n = 3."""
    for p in ODD_PRIMES_23:
        argmax_report = verify_prop_2_2(p, 3)
        assert argmax_report.verdict is Verdict.VERIFIED, p
        assert argmax_report.argmax == [f"Ab({p};2,1)", f"M(3,{p})"], p
        mutual_report = verify_cor_2_3(p, 3)
        assert mutual_report.verdict is Verdict.VERIFIED, p
        counts = [r["mutual_edges"] for r in mutual_report.rows]
        assert counts[0] == counts[1], p


def test_criterion_7(census_dir):
    """Edge-count argmax at order 8, odd primes, and the order-16 census gate."""
    eight = verify_prop_2_8(2, 3)
    assert eight.verdict is Verdict.VERIFIED
    assert eight.argmax == ["Q8"]
    assert [(r["group"], r["edges"]) for r in eight.rows] == [
        ("Q8", 16), ("Ab(2;2,1)", 13), ("D8", 10), ("Ab(2;1,1,1)", 7),
    ]
    for p in ODD_PRIMES_23:
        report = verify_prop_2_8(p, 3)
        assert report.verdict is Verdict.VERIFIED, p
        assert report.argmax == [f"Ab({p};2,1)", f"M(3,{p})"], p
    bare = verify_prop_2_8(2, 4, None)
    assert bare.verdict is Verdict.VERIFIED_INCOMPLETE
    assert bare.exit_code == 2
    backed = verify_prop_2_8(2, 4, Census(census_dir))
    assert backed.verdict is Verdict.VERIFIED
    assert backed.exit_code == 0
    assert backed.completeness is Completeness.COMPLETE_VIA_CENSUS
    assert backed.argmax == ["Ab(2;3,1)", "M(4,2)"]


def test_criterion_8():
    """The exploratory scan to 2000 completes with a well-formed report."""
    report = scan_conjecture_2_9(SIZE_LIMIT)
    assert report.verdict is Verdict.REPORT_ONLY
    assert report.exit_code == 0
    rows = report.rows
    assert len(rows) == 189
    allowed = {c.value for c in Completeness}
    keys = ["n", "candidates", "expected", "expected_edges", "max_edges",
            "margin", "supported", "argmax", "completeness"]
    previous = 0
    for row in rows:
        assert list(row) == keys
        n = row["n"]
        assert previous < n <= SIZE_LIMIT and n % 2 == 1
        assert max(a for _, a in factor(n)) > 1
        previous = n
        assert row["candidates"] >= 1
        assert 0 <= row["expected_edges"] <= row["max_edges"]
        assert row["margin"] >= 0
        assert isinstance(row["supported"], bool)
        assert row["argmax"]
        assert row["completeness"] in allowed
    assert {r["n"] for r in rows} >= {9, 81, 1875}
    assert report.headline.startswith("scanned 189 ")


def test_criterion_9(tmp_path):
    """Two identical CLI invocations produce byte-identical output."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGX_")}
    invocations = [
        ["verify", "lemma-2.1", "--format", "json"],
        ["verify", "lemma-2.4", "--p-max", "13", "--m-max", "6"],
        ["scan", "conjecture-2.9", "--n-max", "120", "--format", "csv"],
        ["stats", "Q8", "--format", "csv"],
        ["graph", "Q8", "directed", "edge-csv"],
    ]
    for argv in invocations:
        cmd = [sys.executable, "-m", "pgx.cli", *argv]
        first = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
        second = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
        assert first.returncode == second.returncode, argv
        assert first.returncode in (0, 2), (argv, first.stderr)
        assert first.stdout == second.stdout, argv
        assert first.stderr == second.stderr == b"", argv
        assert first.stdout, argv
