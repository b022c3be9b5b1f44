"""End-to-end CLI behavior: output formats, exit codes, configuration."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pgx.census
import pgx.cli
import pgx.constructors
from pgx.constructors import (
    Abelian,
    CatalogEntry,
    Cyclic,
    GeneralizedQuaternion,
    Heisenberg,
    Modular,
    census_order,
)
from pgx.errors import InputError
from pgx.groups import GroupTable, write_cayley
from pgx.spectrum import order_sum, phi_sum
from test_groups import ONE_SIDED_INVERSE, block_edit

REPO_ROOT = Path(__file__).resolve().parent.parent

C6_STATS_TEXT = (
    "name: C6\n"
    "size: 6\n"
    "sigma: 21\n"
    "phi_sum: 10\n"
    "directed_arcs: 15\n"
    "mutual_edges: 2\n"
    "undirected_edges: 13\n"
    "oracle: consistent\n"
)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_text_c6(run_cli):
    code, out, err = run_cli("stats", "C6")
    assert (code, err) == (0, "")
    assert out == C6_STATS_TEXT


def test_stats_trivial_group_has_empty_graph(run_cli):
    code, out, _ = run_cli("stats", "C1")
    assert code == 0
    assert out == (
        "name: C1\n"
        "size: 1\n"
        "sigma: 1\n"
        "phi_sum: 1\n"
        "directed_arcs: 0\n"
        "mutual_edges: 0\n"
        "undirected_edges: 0\n"
        "oracle: consistent\n"
    )


def test_stats_json_c9xc3(run_cli):
    code, out, _ = run_cli("stats", "C9xC3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "name": "C9xC3", "size": 27, "sigma": 187, "phi_sum": 125,
        "directed_arcs": 160, "mutual_edges": 49, "undirected_edges": 111,
        "oracle": "consistent",
    }


def test_stats_csv_q8(run_cli):
    code, out, _ = run_cli("stats", "Q8", "--format", "csv")
    assert code == 0
    assert out == (
        "name,size,sigma,phi_sum,directed_arcs,mutual_edges,undirected_edges\n"
        "Q8,8,27,14,19,3,16\n"
    )


def test_stats_above_cap_skips_the_graph_oracle(run_cli):
    code, out, _ = run_cli("stats", "C6", "--brute-cap", "4")
    assert code == 0
    assert out == C6_STATS_TEXT.replace("oracle: consistent\n", "")
    code, out, _ = run_cli("stats", "C6", "--brute-cap", "4", "--format", "json")
    assert code == 0
    assert "oracle" not in json.loads(out)


def test_stats_large_group_without_table(run_cli):
    code, out, _ = run_cli("stats", "C100000")
    assert code == 0
    assert "size: 100000\n" in out
    assert "oracle" not in out


def _cyclic_stats_text(m: int, totients: dict[int, int]) -> str:
    """stats text of C_m from its divisors' totients, with the exact identities."""
    sigma = sum(d * t for d, t in totients.items())
    phi = sum(t * t for t in totients.values())
    return (f"name: C{m}\nsize: {m}\nsigma: {sigma}\nphi_sum: {phi}\n"
            f"directed_arcs: {sigma - m}\nmutual_edges: {(phi - m) // 2}\n"
            f"undirected_edges: {sigma - (phi + m) // 2}\n")


@pytest.mark.parametrize("p,e", [(1000000007, 2), (1000000000000000003, 1)])
def test_stats_of_a_large_prime_power_order(run_cli, p, e):
    m = p ** e
    totients = {p ** k: p ** k - p ** (k - 1) if k else 1 for k in range(e + 1)}
    code, out, err = run_cli("stats", f"C{m}")
    assert (code, err) == (0, "")
    assert out == _cyclic_stats_text(m, totients)


def test_stats_order_that_cannot_be_proved_prime_is_a_resource_error(run_cli):
    n = 3317044064679887385961981   # a strong pseudoprime to every base 2..41
    code, out, err = run_cli("stats", f"C{n}")
    assert (code, out) == (3, "")
    assert err == (f"error: cannot prove {n} prime: Miller-Rabin with bases "
                   f"2..41 is exact only below {n}\n")


def test_stats_order_rho_cannot_split_is_a_resource_error(run_cli):
    n = (10 ** 20 + 39) * (10 ** 20 + 129)   # two primes near 1e20
    code, out, err = run_cli("stats", f"C{n}")
    assert (code, out) == (3, "")
    assert err == (f"error: cannot factor {n}: Pollard-Brent rho found no "
                   f"factor within 1048576 steps\n")


@pytest.mark.parametrize("argv", [
    ("stats", "C" + "7" * 5000),
    ("stats", "Ab(3;9100)"),
    ("spectrum", "Ab(2;15000)"),
    ("verify", "cor-2.3", "--p", "3", "--n", "5000"),
    ("verify", "cor-2.3", "--p", "3", "--n", "20000"),
])
def test_orders_too_large_to_print_are_refused(run_cli, argv):
    """Python converts integers of at most 4300 digits to and from text, so
    these would fail while printing; they are refused before any work."""
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "longer than any group order" in err or "group order above 2^7000" in err


def test_stats_from_file_reads_the_table_once(run_cli, monkeypatch):
    import pgx.constructors
    reads = []
    read = pgx.constructors.read_cayley

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(pgx.constructors, "read_cayley", counted)
    code, out, _ = run_cli("stats", "file:census/16/q16.cayley")
    assert code == 0 and "oracle: consistent\n" in out
    assert reads == ["census/16/q16.cayley"]


def test_stats_computes_element_orders_once(run_cli, monkeypatch):
    import pgx.groups
    passes = []
    powers = pgx.groups._powers
    monkeypatch.setattr(pgx.groups, "_powers",
                        lambda *args: passes.append(args[2]) or powers(*args))
    code, out, _ = run_cli("stats", "C4096")
    assert code == 0 and "oracle: consistent\n" in out
    # 4096 = 2^12: one pass raising to the 1st power, then 12 squarings
    assert passes == [1] + [2] * 12


def test_stats_from_census_file(run_cli, census_dir):
    path = census_dir / "16" / "q16.cayley"
    code, out, _ = run_cli("stats", f"file:{path}")
    assert code == 0
    assert f"name: file:{path}\n" in out
    assert "sigma: 75\n" in out and "undirected_edges: 48\n" in out
    assert "oracle: consistent\n" in out


def test_stats_bad_spec_is_an_input_error(run_cli):
    code, out, err = run_cli("stats", "C6yC3")
    assert (code, out) == (3, "")
    assert err.startswith("error: bad group spec 'C6yC3'")
    code, _, err = run_cli("stats", "file:no-such-table.cayley")
    assert code == 3 and "cannot read" in err


def test_stats_undecodable_table_file_is_an_input_error(run_cli, tmp_path):
    path = tmp_path / "bad.cayley"
    path.write_bytes(b"order 2\nidentity 0\n0 1\n1 \xff\n")
    code, out, err = run_cli("stats", f"file:{path}")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def test_failed_consistency_check_is_an_internal_error(run_cli, tmp_path):
    path = tmp_path / "loop.cayley"
    path.write_text("order 3\nidentity 0\n0 1 2\n1 1 0\n2 0 1\n")   # 1^3 != 0
    code, out, err = run_cli("stats", f"file:{path}")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_text_c12(run_cli):
    code, out, _ = run_cli("spectrum", "C12")
    assert code == 0
    assert out == (
        "name: C12\n"
        "size: 12\n"
        "  1: 1\n"
        "  2: 1\n"
        "  3: 2\n"
        "  4: 2\n"
        "  6: 2\n"
        "  12: 4\n"
    )


def test_spectrum_csv_c25(run_cli):
    code, out, _ = run_cli("spectrum", "C25", "--format", "csv")
    assert code == 0
    assert out == "order,count\n1,1\n5,4\n25,20\n"


def test_spectrum_json_q8(run_cli):
    code, out, _ = run_cli("spectrum", "Q8", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "name": "Q8", "size": 8, "spectrum": {"1": 1, "2": 1, "4": 6},
    }


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

C6_DOT = (
    'graph "C6" {\n'
    '  "0";\n  "1";\n  "2";\n  "3";\n  "4";\n  "5";\n'
    '  "0" -- "1";\n  "0" -- "2";\n  "0" -- "3";\n  "0" -- "4";\n  "0" -- "5";\n'
    '  "1" -- "2";\n  "1" -- "3";\n  "1" -- "4";\n  "1" -- "5";\n'
    '  "2" -- "4";\n  "2" -- "5";\n'
    '  "3" -- "5";\n'
    '  "4" -- "5";\n'
    '}\n'
)


def test_graph_undirected_dot_c6(run_cli):
    code, out, _ = run_cli("graph", "C6", "undirected", "dot")
    assert code == 0
    assert out == C6_DOT
    assert len(out.splitlines()) == 2 + 6 + 13


def test_graph_undirected_edge_csv_c2(run_cli):
    code, out, _ = run_cli("graph", "C2", "undirected", "edge-csv")
    assert code == 0
    assert out == "a,b\n0,1\n"


def test_graph_directed_edge_csv_q8(run_cli):
    code, out, _ = run_cli("graph", "Q8", "directed", "edge-csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "src,dst" and len(lines) == 1 + 19


def test_graph_out_file(run_cli, tmp_path):
    target = tmp_path / "c6.dot"
    code, out, _ = run_cli("graph", "C6", "undirected", "dot",
                           "--out", str(target))
    assert (code, out) == (0, "")
    assert target.read_text() == C6_DOT


def test_graph_unwritable_out_file_is_an_input_error(run_cli, tmp_path):
    target = tmp_path / "missing-dir" / "c6.dot"
    code, out, err = run_cli("graph", "C6", "directed", "dot", "--out", str(target))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_graph_above_cap_is_a_resource_error(run_cli):
    code, out, err = run_cli("graph", "C6", "directed", "dot",
                             "--brute-cap", "4")
    assert (code, out) == (3, "")
    assert "exceeds the brute-force cap 4" in err
    assert "spectrum formulas" in err


def _comma_label_tables(tmp_path):
    """Two 2-element tables whose labels contain commas, so that the product
    labels (a,b,c) of (a, b,c) and (a,b, c) coincide."""
    paths = []
    for name, labels in (("g", "a a,b"), ("h", "b,c c")):
        path = tmp_path / f"{name}.cayley"
        path.write_text(f"order 2\nidentity 0\n0 1\n1 0\nlabels {labels}\n")
        paths.append(path)
    return f"file:{paths[0]} x file:{paths[1]}"


def test_graph_dot_refuses_repeated_product_labels(run_cli, tmp_path):
    spec = _comma_label_tables(tmp_path)
    code, out, err = run_cli("graph", spec, "undirected", "dot")
    assert (code, out) == (3, "")
    assert "label '(a,b,c)' names two elements" in err
    code, out, _ = run_cli("graph", spec, "undirected", "edge-csv")     # reads no label
    assert (code, out) == (0, "a,b\n0,1\n0,2\n0,3\n")


def test_graph_dot_with_refused_labels_creates_no_out_file(run_cli, tmp_path):
    target = tmp_path / "x.dot"
    code, out, err = run_cli("graph", _comma_label_tables(tmp_path), "undirected", "dot",
                             "--out", str(target))
    assert (code, out) == (3, "")
    assert "label '(a,b,c)' names two elements" in err
    assert not target.exists()


def test_write_cayley_refuses_repeated_product_labels(tmp_path):
    g = pgx.constructors.build_group(pgx.constructors.parse_group_spec(
        _comma_label_tables(tmp_path)))
    target = tmp_path / "gxh.cayley"
    with pytest.raises(InputError, match="names two elements"):
        write_cayley(g, target)
    assert not target.exists()


NO_LABEL_SPECS = ("C12", "Ab(3;1,1)", "M(4,2)", "M(3,3)", "D12", "Q8", "Q16", "SD16", "He3",
                  "C3xD8", "Ab(2;1,1)xQ8xHe3")


@pytest.fixture
def label_recipes_raise(monkeypatch):
    """Every group built gets a label recipe that fails when called; a builder
    that passed a ready list fails at once."""
    init = GroupTable.__init__

    def refuse(*args, **kwargs):
        raise AssertionError("a label string was made")

    def patched(self, *args, labels=None, **kwargs):
        assert labels is None or callable(labels), "labels were made at build time"
        init(self, *args, labels=None if labels is None else refuse, **kwargs)

    monkeypatch.setattr(GroupTable, "__init__", patched)


@pytest.mark.parametrize("spec", NO_LABEL_SPECS)
def test_stats_and_edge_csv_make_no_label(label_recipes_raise, run_cli, spec):
    code, out, _ = run_cli("stats", spec)
    assert code == 0 and out.endswith("oracle: consistent\n")
    for kind in ("directed", "undirected"):
        code, _, _ = run_cli("graph", spec, kind, "edge-csv")
        assert code == 0
    with pytest.raises(AssertionError, match="label string was made"):
        run_cli("graph", spec, "directed", "dot")


def test_graph_argument_validation(run_cli):
    code, _, err = run_cli("graph", "C6", "sideways", "dot")
    assert code == 3 and "invalid choice" in err
    code, _, err = run_cli("graph", "C6", "directed", "gml")
    assert code == 3 and "invalid choice" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_main_theorem_text(run_cli):
    code, out, err = run_cli("verify", "main-theorem", "--n", "135")
    assert (code, err) == (0, "")
    assert "claim: main-theorem\n" in out
    assert "verdict: verified\n" in out
    assert "exit-code: 0\n" in out
    assert "argmax: Ab(3;2,1)xC5, M(3,3)xC5\n" in out
    assert "param expected_display: C45xC3\n" in out


def test_verify_main_theorem_hypothesis_violations(run_cli):
    code, out, err = run_cli("verify", "main-theorem", "--n", "30")
    assert (code, out) == (3, "")
    assert err == ("error: hypothesis violated: n = 30 is square-free, so "
                   "every nilpotent group of order 30 is cyclic and there "
                   "is nothing to maximize\n")
    code, _, err = run_cli("verify", "main-theorem", "--n", "18")
    assert code == 3 and "allow_even" in err


def test_verify_main_theorem_does_not_enumerate_every_member(run_cli, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the main theorem enumerated every nilpotent group")

    monkeypatch.setattr(pgx.census, "enumerate_nilpotent", refuse)
    code, out, err = run_cli("verify", "main-theorem", "--n", "3375")
    assert (code, err) == (0, "")
    assert "verdict: verified\n" in out


@pytest.mark.parametrize("n,candidates", [(3 ** 20 * 5 ** 20, 394383),
                                          ((3 * 5 * 7 * 11 * 13 * 17) ** 4, 46655)])
def test_verify_main_theorem_past_the_catalog_bound(run_cli, n, candidates):
    """Orders with more nilpotent groups than the catalog bound are ranked,
    not refused; their 3^20 and 3^4 catalogs are incomplete."""
    code, out, err = run_cli("verify", "main-theorem", "--n", str(n), "--format", "json")
    report = json.loads(out)
    assert (code, err, report["verdict"]) == (2, "", "verified-on-incomplete-catalog")
    assert report["params"]["candidates"] == candidates


def test_verify_main_theorem_allow_even_is_report_only(run_cli):
    code, out, _ = run_cli("verify", "main-theorem", "--n", "18", "--allow-even")
    assert code == 0
    assert "verdict: report-only\n" in out
    assert "exploratory" in out


PROP22_TEXT = """\
claim: prop-2.2
verdict: verified
completeness: complete
exit-code: 0
headline: max phi-sum among non-cyclic groups of order 3^3 is 125, attained by {Ab(3;2,1), M(3,3)}; expected {Ab(3;2,1), M(3,3)}
param p: 3
param n: 3
param order: 27
param expected: Ab(3;2,1), M(3,3)
param candidates: 4
argmax: Ab(3;2,1), M(3,3)

group        sigma  phi_sum  edges  argmax  source
Ab(3;2,1)    187    125      111    yes     parametric
M(3,3)       187    125      111    yes     parametric
Ab(3;1,1,1)  79     53       39     no      parametric
He3          79     53       39     no      parametric
"""


def test_verify_prop_2_2_text_golden(run_cli):
    code, out, err = run_cli("verify", "prop-2.2", "--p", "3", "--n", "3")
    assert (code, err) == (0, "")
    assert out == PROP22_TEXT


@pytest.mark.parametrize("argv,message", [
    (("prop-2.2", "--p", "3", "--n", "100000"),
     "order 3^100000 has more than 24061467864032622473692149727991 abelian groups"),
    (("main-theorem", "--n", str(3 ** 50)), "order 3^50 has 204226 abelian groups"),
])
def test_verify_refuses_catalogs_past_the_bound(run_cli, argv, message):
    code, out, err = run_cli("verify", *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {message}, one per partition of ")
    assert err.endswith(", above the catalog bound 10000\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (("lemma-2.4", "--m-max", "1000"), "the exponents up to 1000 is above the sweep exponent "
                                       "bound 30"),
    (("lemma-2.4", "--p-max", "100000"), "the primes up to 100000 is above the sweep prime "
                                         "bound 10000"),
    (("lemma-2.5", "--p-max", "100000000"), "the primes up to 100000000 is above the sweep "
                                            "prime bound 10000"),
    (("lemma-2.4", "--p-max", "5000", "--m-max", "20"), "12711 grid points is above the "
                                                        "sweep row bound 10000"),
    (("cor-2.6", "--p-max", "1000"), "14028 prime pairs is above the sweep row bound 10000"),
    (("lemma-2.1", "--pairs", "1000000"), "1000000 random pairs is above the sweep row "
                                          "bound 10000"),
    (("lemma-2.1", "--max-order", "1000000000"), "the primes up to 1000000000 is above the "
                                                 "sweep prime bound 10000"),
])
def test_verify_refuses_sweeps_past_the_bounds(run_cli, argv, message):
    code, out, err = run_cli("verify", *argv)
    assert (code, out) == (3, "")
    assert err == f"error: a sweep over {message}\n"


def test_verify_missing_required_flags(run_cli):
    code, _, err = run_cli("verify", "prop-2.2", "--n", "3")
    assert code == 3 and err == "error: verify prop-2.2 requires --p\n"
    code, _, err = run_cli("verify", "main-theorem")
    assert code == 3 and "requires --n" in err
    code, _, err = run_cli("verify", "cor-2.3", "--p", "3")
    assert code == 3 and "requires --n" in err


def test_verify_prop_2_8_census_toggle(run_cli, census_dir):
    code, out, _ = run_cli("verify", "prop-2.8", "--p", "2", "--n", "4",
                           "--census-dir", "")
    assert code == 2
    assert "verdict: verified-on-incomplete-catalog\n" in out
    assert "completeness: incomplete\n" in out
    code, out, _ = run_cli("verify", "prop-2.8", "--p", "2", "--n", "4",
                           "--census-dir", str(census_dir))
    assert code == 0
    assert "verdict: verified\n" in out
    assert "completeness: complete-via-ingested-census\n" in out
    assert "argmax: Ab(2;3,1), M(4,2)\n" in out


def test_verify_default_census_dir_is_cwd_relative(run_cli, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    code, out, _ = run_cli("verify", "prop-2.8", "--p", "2", "--n", "4")
    assert code == 0
    assert "complete-via-ingested-census" in out


def test_verify_and_scan_name_a_missing_census_directory(run_cli, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    note = "note: census directory {} is not a directory; no census table was read\n"
    code, out, _ = run_cli("verify", "prop-2.8", "--p", "2", "--n", "4")
    assert code == 2 and "completeness: incomplete\n" in out
    assert out.count("note: census directory") == 1 and note.format("census") in out
    code, out, _ = run_cli("scan", "conjecture-2.9", "--n-max", "100", "--census-dir", "file")
    assert code == 0 and note.format("file") in out
    for census in ("", str(REPO_ROOT / "census")):
        code, out, _ = run_cli("verify", "prop-2.8", "--p", "2", "--n", "4", "--census-dir", census)
        assert "note: census directory" not in out


def test_verify_cor_2_3(run_cli):
    code, out, _ = run_cli("verify", "cor-2.3", "--p", "3", "--n", "3")
    assert code == 0
    assert "49 vs 49 (equal)" in out


def test_verify_lemma_2_4_csv_golden(run_cli):
    code, out, _ = run_cli("verify", "lemma-2.4", "--p-max", "5",
                           "--m-max", "3", "--format", "csv")
    assert code == 0
    assert out == (
        "p,m,phi_cyclic,phi_split,recurrence_i,closed_form,recurrence_ii\n"
        "2,2,6,4,true,true,true\n"
        "2,3,22,12,true,true,true\n"
        "3,2,41,17,true,true,true\n"
        "3,3,365,125,true,true,true\n"
        "5,2,417,97,true,true,true\n"
        "5,3,10417,2097,true,true,true\n"
    )


def test_verify_sweeps_exit_zero_on_small_grids(run_cli):
    for claim in ("lemma-2.5", "cor-2.6"):
        code, out, _ = run_cli("verify", claim, "--p-max", "13", "--m-max", "4")
        assert code == 0, claim
        assert "verdict: verified\n" in out


@pytest.mark.parametrize("claim,p_max,what", [
    ("lemma-2.5", "2", "grid point"), ("cor-2.6", "3", "prime pair"), ("cor-2.6", "4", "prime pair"),
])
def test_verify_sweeps_with_no_contractual_point_are_report_only(run_cli, claim, p_max, what):
    """A grid whose every row has p = 2 checks nothing against the claim, so
    its verdict is report-only, still exit 0, and a note says why."""
    code, out, _ = run_cli("verify", claim, "--p-max", p_max, "--m-max", "4", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "report-only" and report["exit_code"] == 0
    assert report["rows"] and not any(r["contractual"] for r in report["rows"])
    assert f"no contractual point in range: every {what} has p = 2, so nothing was " \
        "checked against the claim" in report["notes"]
    assert report["headline"].endswith("in range")
    code, out, _ = run_cli("verify", claim, "--p-max", "5", "--m-max", "4", "--format", "json")
    assert (code, json.loads(out)["verdict"]) == (0, "verified")
    assert not any("no contractual point" in note for note in json.loads(out)["notes"])


# The smallest settings each claim accepts: one below any of them is refused.
SMALLEST_SETTINGS = {
    "main-theorem": ("--n", "9"),
    "prop-2.2": ("--p", "3", "--n", "2"),
    "cor-2.3": ("--p", "3", "--n", "3"),
    "lemma-2.4": ("--p-max", "2", "--m-max", "2"),
    "lemma-2.5": ("--p-max", "2", "--m-max", "2"),
    "cor-2.6": ("--p-max", "3", "--m-max", "2"),
    "prop-2.8": ("--p", "2", "--n", "2"),
    "lemma-2.1": ("--pairs", "1", "--max-order", "4", "--seed", "0"),
}


@pytest.mark.parametrize("claim", sorted(SMALLEST_SETTINGS))
def test_every_claim_at_its_smallest_settings_has_rows_and_a_csv_header(run_cli, claim):
    """Each claim returns rows even at its smallest settings, so its CSV
    report is their keys as a header and one line per row."""
    assert set(SMALLEST_SETTINGS) == set(pgx.census.CLAIMS)
    settings = SMALLEST_SETTINGS[claim]
    for k in range(1, len(settings), 2):
        below = [*settings[:k], str(int(settings[k]) - 1), *settings[k + 1:]]
        assert run_cli("verify", claim, *below, "--census-dir", "")[0] == 3, below
    args = ("verify", claim, *settings, "--census-dir", "")
    _, out, err = run_cli(*args, "--format", "json")
    rows = json.loads(out)["rows"]
    assert rows and err == ""
    _, out, _ = run_cli(*args, "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == ",".join(rows[0]) and len(lines) == len(rows) + 1


def test_verify_lemma_2_1_is_deterministic(run_cli):
    args = ("verify", "lemma-2.1", "--pairs", "10", "--max-order", "50",
            "--format", "json")
    code_a, out_a, _ = run_cli(*args)
    code_b, out_b, _ = run_cli(*args)
    assert code_a == code_b == 0
    assert out_a == out_b
    report = json.loads(out_a)
    assert report["verdict"] == "verified"
    assert len(report["rows"]) == 10
    _, out_c, _ = run_cli(*args, "--seed", "7")
    assert json.loads(out_c)["rows"] != report["rows"]


def test_verify_rejects_unknown_claim(run_cli):
    code, _, err = run_cli("verify", "bogus-claim")
    assert code == 3 and "invalid choice" in err


def test_verify_json_report_shape(run_cli):
    code, out, _ = run_cli("verify", "prop-2.8", "--p", "2", "--n", "3",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["claim"] == "prop-2.8"
    assert report["exit_code"] == 0
    assert report["argmax"] == ["Q8"]
    assert [r["edges"] for r in report["rows"]] == [16, 13, 10, 7]


# ---------------------------------------------------------------------------
# verify: claims driven to a counterexample by a patched invariant
# ---------------------------------------------------------------------------

def _inflate_heisenberg(monkeypatch):
    """Add 2*10^6 to sigma and phi of every He* catalog entry, so He3 (and
    He3xC5) becomes the only argmax at order 27 (and 135)."""
    def bump(e):
        return 2_000_000 if e.render().startswith("He") else 0

    monkeypatch.setattr(CatalogEntry, "sigma",
                        property(lambda e: order_sum(e.spectrum) + bump(e)))
    monkeypatch.setattr(CatalogEntry, "phi",
                        property(lambda e: phi_sum(e.spectrum) + bump(e)))


def _modular_27_as_heisenberg(monkeypatch):
    """Give M(3,3) the order spectrum of He3, so its mutual-edge count drops."""
    spectrum = Modular.spectrum
    monkeypatch.setattr(Modular, "spectrum", lambda self: Heisenberg(3).spectrum()
                        if (self.n, self.p) == (3, 3) else spectrum(self))


HE3_WITNESS = {"group": "He3", "sigma": 2000079, "phi_sum": 2000053, "edges": 1000039,
               "argmax": True, "source": "parametric"}

FORCED_COUNTEREXAMPLES = [
    (_inflate_heisenberg, ("prop-2.2", "--p", "3", "--n", "3"), [HE3_WITNESS], """\
group  sigma    phi_sum  edges    argmax  source
He3    2000079  2000053  1000039  yes     parametric
"""),
    (_inflate_heisenberg, ("prop-2.8", "--p", "3", "--n", "3"), [HE3_WITNESS], """\
group  sigma    phi_sum  edges    argmax  source
He3    2000079  2000053  1000039  yes     parametric
"""),
    (_inflate_heisenberg, ("main-theorem", "--n", "135"),
     [{"member": "He3xC5", "phi_sum": 34000901, "argmax": True, "expected": False}], """\
member  phi_sum   argmax  expected
He3xC5  34000901  yes     no
"""),
    (_modular_27_as_heisenberg, ("cor-2.3", "--p", "3", "--n", "3"),
     [{"group": "Ab(3;2,1)", "size": 27, "phi_sum": 125, "mutual_edges": 49},
      {"group": "M(3,3)", "size": 27, "phi_sum": 53, "mutual_edges": 13}], """\
group      size  phi_sum  mutual_edges
Ab(3;2,1)  27    125      49
M(3,3)     27    53       13
"""),
]


@pytest.mark.parametrize("force,argv,witnesses,witness_text", FORCED_COUNTEREXAMPLES,
                         ids=[argv[0] for _, argv, _, _ in FORCED_COUNTEREXAMPLES])
def test_verify_forced_counterexample(run_cli, monkeypatch, force, argv, witnesses,
                                      witness_text):
    force(monkeypatch)
    code, out, err = run_cli("verify", *argv)
    assert (code, err) == (1, "")
    assert "verdict: counterexample\ncompleteness: complete\nexit-code: 1\n" in out
    assert out.endswith("\n\nwitnesses:\n" + witness_text)
    code, out, _ = run_cli("verify", *argv, "--format", "json")
    report = json.loads(out)
    assert (code, report["verdict"], report["exit_code"]) == (1, "counterexample", 1)
    assert report["witnesses"] == witnesses
    code, out, _ = run_cli("verify", *argv, "--format", "csv")
    assert code == 1 and out.count("\n") == len(report["rows"]) + 1


def test_verify_forced_prop_2_2_counterexample_text(run_cli, monkeypatch):
    _inflate_heisenberg(monkeypatch)
    code, out, _ = run_cli("verify", "prop-2.2", "--p", "3", "--n", "3")
    assert code == 1
    assert out == """\
claim: prop-2.2
verdict: counterexample
completeness: complete
exit-code: 1
headline: max phi-sum among non-cyclic groups of order 3^3 is 2000053, attained by {He3}; expected {Ab(3;2,1), M(3,3)}
param p: 3
param n: 3
param order: 27
param expected: Ab(3;2,1), M(3,3)
param candidates: 4
argmax: He3
note: p-group identity p*phi = (p-1)*sigma + 1 failed for: He3

group        sigma    phi_sum  edges    argmax  source
He3          2000079  2000053  1000039  yes     parametric
Ab(3;2,1)    187      125      111      no      parametric
M(3,3)       187      125      111      no      parametric
Ab(3;1,1,1)  79       53       39       no      parametric

witnesses:
group  sigma    phi_sum  edges    argmax  source
He3    2000079  2000053  1000039  yes     parametric
"""


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

SCAN9_TEXT = """\
claim: conjecture-2.9
verdict: report-only
completeness: complete
exit-code: 0
headline: scanned 1 odd non-square-free orders <= 9: expected member maximal in 1/1
param n_max: 9
param orders_scanned: 1
note: exploratory scan: rows carry no pass/fail contract

n  candidates  expected   expected_edges  max_edges  margin  supported  argmax     completeness
9  1           Ab(3;1,1)  12              12         0       yes        Ab(3;1,1)  complete
"""


def test_scan_single_order_text_golden(run_cli):
    code, out, err = run_cli("scan", "conjecture-2.9", "--n-max", "9")
    assert (code, err) == (0, "")
    assert out == SCAN9_TEXT


def test_scan_csv_rows(run_cli):
    code, out, _ = run_cli("scan", "conjecture-2.9", "--n-max", "45",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("n,candidates,expected,expected_edges,max_edges,"
                        "margin,supported,argmax,completeness")
    assert [line.split(",")[0] for line in lines[1:]] == ["9", "25", "27", "45"]
    assert lines[3] == '27,4,"Ab(3;2,1)",111,111,0,true,"Ab(3;2,1) | M(3,3)",complete'


@pytest.mark.parametrize("order,first_read,n_max,error", [
    (81, 81, 1000, "not a group table"),
    (7, 63, 63, "order 5 does not match census directory 7"),
], ids=["swapped-entries", "wrong-order"])
def test_a_refused_census_table_leaves_the_csv_scan_stdout_empty(run_cli, tmp_path, order,
                                                                  first_read, n_max, error):
    """A census table the scan reads is admitted before the CSV header is
    written, so a refused one exits 3 with nothing on stdout: C81 with two
    entries of one row swapped, or a table of order 5 under 7/, which the
    scan first reads at 63."""
    (tmp_path / str(order)).mkdir()
    if order == 81:
        t = Cyclic(81).build().table.copy()
        t[1, [2, 3]] = t[1, [3, 2]]
        write_cayley(GroupTable(81, 0, table=t), tmp_path / "81" / "bad.cayley")
    else:
        write_cayley(Cyclic(5).build(), tmp_path / "7" / "c5.cayley")
    argv = ("scan", "conjecture-2.9", "--format", "csv", "--census-dir", str(tmp_path))
    code, out, err = run_cli(*argv, "--n-max", str(n_max))
    assert (code, out) == (3, "") and error in err
    assert run_cli(*argv, "--n-max", str(first_read - 1))[0] == 0


def test_scan_argument_validation(run_cli):
    code, _, err = run_cli("scan", "conjecture-2.9")
    assert code == 3 and "--n-max" in err
    code, _, err = run_cli("scan", "something-else", "--n-max", "9")
    assert code == 3 and "invalid choice" in err
    code, _, err = run_cli("scan", "conjecture-2.9", "--n-max", "8")
    assert code == 3 and "n_max must be >= 9" in err


def test_csv_scan_memory_stays_flat_in_the_row_count(monkeypatch):
    """The CSV scan writes each row as it is made: to 2*10^5 (19,000 rows),
    traced allocations peak under 4 MiB when stdout keeps nothing."""

    class CountingSink:
        def __init__(self):
            self.bytes = 0

        def write(self, text):
            self.bytes += len(text)

    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    scan = ["scan", "conjecture-2.9", "--format", "csv", "--census-dir", ""]
    pgx.cli.main(scan + ["--n-max", "9"])   # the parser and the first scan call, untraced
    tracemalloc.start()
    try:
        code = pgx.cli.main(scan + ["--n-max", "200000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.bytes > 1_000_000
    assert peak < 4 * 2 ** 20


def test_scan_refuses_orders_past_the_bound(run_cli):
    code, out, err = run_cli("scan", "conjecture-2.9", "--n-max", "100000000000")
    assert (code, out) == (3, "")
    assert err == ("error: a scan of the orders up to 100000000000 is above the scan "
                   "bound 10000000\n")


# ---------------------------------------------------------------------------
# census ingest
# ---------------------------------------------------------------------------

def test_census_ingest_text(run_cli, census_dir):
    code, out, err = run_cli("census", "ingest", str(census_dir))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == f"ingested 14 Cayley tables from {census_dir}"
    assert lines[1] == ""
    header = lines[2].split()
    assert header == ["file", "name", "order", "validation", "sigma",
                      "phi_sum", "undirected_edges"]
    assert len(lines) == 3 + 14
    assert all(" 16 " in line or "\t16" in line or " 16" in line
               for line in lines[3:])


def test_census_ingest_csv(run_cli, census_dir):
    code, out, _ = run_cli("census", "ingest", str(census_dir),
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "file,name,order,validation,sigma,phi_sum,undirected_edges"
    assert lines[1] == "16/c16.cayley,c16,16,full,171,86,120"
    assert "16/q8xc2.cayley,q8xc2,16,full,55,28,33" in lines
    assert "16/m4_2.cayley,m4_2,16,full,87,44,57" in lines
    assert "16/c8xc2.cayley,c8xc2,16,full,87,44,57" in lines


def test_census_ingest_json(run_cli, census_dir):
    code, out, _ = run_cli("census", "ingest", str(census_dir),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 14
    assert payload["directory"] == str(census_dir)
    by_name = {row["name"]: row for row in payload["files"]}
    assert by_name["d8xc2"]["undirected_edges"] == 21
    assert by_name["c16"]["sigma"] == 171
    assert all(row["validation"] == "full" for row in payload["files"])


def test_census_ingest_error_paths(run_cli, tmp_path):
    code, _, err = run_cli("census", "ingest", str(tmp_path / "missing"))
    assert code == 3 and "does not exist" in err
    file = tmp_path / "file.cayley"         # said of a file as the notes of verify and scan say it
    file.write_text("")
    code, _, err = run_cli("census", "ingest", str(file))
    assert code == 3 and f"census directory {file} is not a directory" in err
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run_cli("census", "ingest", str(empty))
    assert code == 3 and "no .cayley files found" in err
    bad = tmp_path / "bad"
    bad.mkdir()
    rows = "\n".join("0 0 0" for _ in range(3))
    (bad / "junk.cayley").write_text(f"order 3\nidentity 0\n{rows}\n")
    code, _, err = run_cli("census", "ingest", str(bad))
    assert code == 3 and "failed on witness" in err


@pytest.mark.parametrize("header,line", [("order \u00b2\nidentity 0", "1: expected 'order N'"),
                                         ("order 2\nidentity \u00b9", "2: expected 'identity i'")])
def test_a_header_digit_int_cannot_read_is_an_input_error(run_cli, tmp_path, header, line):
    # str.isdigit() accepts a superscript digit, which int() refuses
    path = tmp_path / "2" / "sup.cayley"
    path.parent.mkdir()
    path.write_text(f"{header}\n0 1\n1 0\n")
    for argv in (("census", "ingest", str(tmp_path)), ("stats", f"file:{path}")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "") and f"{path}:{line}" in err, argv


def _edited_c16(rows, cols, values) -> GroupTable:
    t = Cyclic(16).build().table.copy()
    t[rows, cols] = values(t)
    return GroupTable(16, 0, table=t)


@pytest.mark.parametrize("axiom,table,failure", [
    ("identity", lambda: _edited_c16([0, 1], slice(None), lambda t: t[[1, 0]]),
     "(0, 0): e*0 = 1 != 0"),
    ("latin-row", lambda: _edited_c16(5, 3, lambda t: t[5, 4]),
     "(5,): row 5 is not a permutation"),
    ("latin-column", lambda: _edited_c16(7, [2, 12], lambda t: t[7, [12, 2]]),
     "(2,): column 2 is not a permutation"),
    ("inverse", lambda: GroupTable(5, 0, table=ONE_SIDED_INVERSE),
     "(1, 2): right inverse 2 of 1 is not a left inverse"),
    ("associativity", lambda: GroupTable(16, 0, table=block_edit(2, 4, 2, 4, 1)),
     "(2, 2, 4): (2*2)*4 = 4 but 2*(2*4) = 5"),
])
def test_census_ingest_names_the_first_failing_axiom_of_a_refused_table(run_cli, tmp_path,
                                                                        axiom, table, failure):
    # a table that is no group fails the proof from its generators, and the
    # ordered checks name its first failing axiom and witness on stderr
    path = tmp_path / "bad.cayley"
    write_cayley(table(), path)
    assert run_cli("census", "ingest", str(tmp_path)) == \
        (3, "", f"error: {path}: not a group table ({axiom} failed on witness {failure})\n")


def test_census_ingest_checks_each_table_against_its_order_directory(run_cli, tmp_path,
                                                                     census_dir):
    # the catalogs refuse a table whose order is not its directory's; so does ingest
    (tmp_path / "c1").mkdir()
    shutil.copytree(census_dir / "16", tmp_path / "c1" / "16")
    q8 = GeneralizedQuaternion(8).build()
    write_cayley(q8, tmp_path / "c1" / "16" / "q8.cayley")
    mismatch = "order 8 does not match census directory 16"
    code, out, err = run_cli("census", "ingest", str(tmp_path / "c1"))
    assert (code, out) == (3, "") and mismatch in err
    code, out, err = run_cli("census", "ingest", str(tmp_path / "c1" / "16"))
    assert (code, out) == (3, "") and mismatch in err
    code, _, err = run_cli("verify", "prop-2.8", "--p", "2", "--n", "4",
                           "--census-dir", str(tmp_path / "c1"))
    assert code == 3 and mismatch in err
    # a table outside an <order>/ directory is ingested at whatever order it has
    (tmp_path / "loose").mkdir()
    write_cayley(q8, tmp_path / "loose" / "q8.cayley")
    code, out, _ = run_cli("census", "ingest", str(tmp_path / "loose"), "--format", "csv")
    assert code == 0 and "q8.cayley,q8,8,full" in out


@pytest.mark.parametrize("even,odd", [("016", "081"), ("\u0661\u0666", "\u0668\u0661")],
                         ids=["leading-zero", "arabic-indic-digits"])
def test_a_census_directory_names_an_order_only_as_its_decimal_string(run_cli, tmp_path,
                                                                     even, odd):
    """Ingest, the catalogs and the scan read a directory as order q only when
    its name is str(q): under 016/ or 16 in Arabic-Indic digits a Q8 table is
    ingested at its own order, as a loose table is, and a Q16 table leaves the
    order-16 catalog incomplete; a refused table under 081/ is never read."""
    assert (census_order(even), census_order(odd), census_order("16")) == (None, None, 16)
    (tmp_path / even).mkdir()
    write_cayley(GeneralizedQuaternion(8).build(), tmp_path / even / "q8.cayley")
    code, out, _ = run_cli("census", "ingest", str(tmp_path), "--format", "csv")
    assert code == 0 and "q8.cayley,q8,8,full" in out
    (tmp_path / even / "q8.cayley").unlink()
    write_cayley(GeneralizedQuaternion(16).build(), tmp_path / even / "q16.cayley")
    assert run_cli("census", "ingest", str(tmp_path))[0] == 0
    prop_2_8 = ("verify", "prop-2.8", "--p", "2", "--n", "4", "--census-dir", str(tmp_path))
    code, out, _ = run_cli(*prop_2_8)
    assert code == 2 and "completeness: incomplete\n" in out
    (tmp_path / even).rename(tmp_path / "16")
    code, out, _ = run_cli(*prop_2_8)
    assert code == 0 and "completeness: complete-via-ingested-census\n" in out
    (tmp_path / odd).mkdir()
    t = Cyclic(81).build().table.copy()
    t[1, [2, 3]] = t[1, [3, 2]]
    write_cayley(GroupTable(81, 0, table=t), tmp_path / odd / "bad.cayley")
    scan = ("scan", "conjecture-2.9", "--n-max", "1000", "--format", "csv")
    assert run_cli(*scan, "--census-dir", str(tmp_path))[0] == 0
    (tmp_path / odd).rename(tmp_path / "81")
    assert run_cli(*scan, "--census-dir", str(tmp_path))[0] == 3


def _broken_table(p: int) -> GroupTable:
    """The table of C_p^4 with the p-by-p block of rows p + <h> and columns
    p^2 + <h> shifted by h (see `block_edit`). Identity, Latin square,
    inverses and element orders stay those of the group; associativity fails
    on a few triples."""
    return GroupTable(p ** 4, 0, table=block_edit(p, 4, p, p * p, 1))


@pytest.mark.parametrize("p,command", [
    (2, ("verify", "prop-2.8", "--p", "2", "--n", "4")),
    (3, ("scan", "conjecture-2.9", "--n-max", "81")),
    # the CSV scan streams its rows, and still fails before writing the first
    (3, ("scan", "conjecture-2.9", "--n-max", "1000", "--format", "csv")),
])
def test_census_settings_admit_a_table_alike_in_ingest_and_catalogs(run_cli, tmp_path,
                                                                    p, command):
    # ingest and the catalogs validate alike, and exactly: only a few triples
    # fail, and the seed plays no part in finding one
    (tmp_path / str(p ** 4)).mkdir()
    path = tmp_path / str(p ** 4) / "broken.cayley"
    write_cayley(_broken_table(p), path)
    census = ("--census-dir", str(tmp_path))
    code, out, err = run_cli("census", "ingest", str(tmp_path))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}: not a group table (associativity failed")
    assert run_cli(*command, *census) == (3, "", err)
    assert run_cli("census", "ingest", str(tmp_path), "--seed", "1", "--format", "csv") == \
        (3, "", err)
    assert run_cli(*command, *census, "--seed", "1") == (3, "", err)
    # validation has no settings to weaken it
    code, out, err = run_cli("census", "ingest", str(tmp_path), "--full-assoc-cap", "8")
    assert (code, out) == (3, "") and "--full-assoc-cap" in err


def test_census_validation_mode_is_the_same_in_ingest_and_catalogs(run_cli, tmp_path,
                                                                   monkeypatch):
    (tmp_path / "289").mkdir()
    write_cayley(Abelian(17, (1, 1)).build(), tmp_path / "289" / "c17xc17.cayley")
    modes = []
    validate = pgx.constructors.validate
    monkeypatch.setattr(pgx.constructors, "validate",
                        lambda *a, **k: modes.append(validate(*a, **k).mode) or validate(*a, **k))
    # full at order 289 in both
    assert run_cli("census", "ingest", str(tmp_path))[0] == 0
    assert run_cli("verify", "prop-2.2", "--p", "17", "--n", "2",
                   "--census-dir", str(tmp_path))[0] == 0
    assert modes == ["full", "full"]


# ---------------------------------------------------------------------------
# configuration precedence
# ---------------------------------------------------------------------------

def test_config_file_via_flag(run_cli, tmp_path):
    cfg = tmp_path / "custom.toml"
    cfg.write_text('format = "json"\nbrute-cap = 4\n')
    code, out, _ = run_cli("stats", "C6", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "C6"
    assert "oracle" not in payload      # brute-cap 4 suppressed the oracle


def test_config_pgx_toml_autodetected(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pgx.toml").write_text("format = csv\n")
    code, out, _ = run_cli("stats", "Q8")
    assert code == 0
    assert out.startswith("name,size,")


def test_config_env_overrides_file_flag_overrides_env(run_cli, tmp_path,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pgx.toml").write_text("format = csv\n")
    monkeypatch.setenv("PGX_FORMAT", "json")
    code, out, _ = run_cli("stats", "Q8")
    assert code == 0 and out.startswith("{")
    code, out, _ = run_cli("stats", "Q8", "--format", "text")
    assert code == 0 and out.startswith("name: Q8\n")


def test_config_env_census_dir_and_brute_cap(run_cli, census_dir, tmp_path,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)      # no ./census here
    code, out, _ = run_cli("verify", "prop-2.8", "--p", "2", "--n", "4")
    assert code == 2
    monkeypatch.setenv("PGX_CENSUS_DIR", str(census_dir))
    code, out, _ = run_cli("verify", "prop-2.8", "--p", "2", "--n", "4")
    assert code == 0
    monkeypatch.setenv("PGX_BRUTE_CAP", "4")
    code, out, _ = run_cli("stats", "C6")
    assert code == 0 and "oracle" not in out


def test_config_file_can_disable_the_census(run_cli, tmp_path):
    cfg = tmp_path / "no-census.toml"
    cfg.write_text("census-dir = ''\n")
    code, out, _ = run_cli("verify", "prop-2.8", "--p", "2", "--n", "4",
                           "--config", str(cfg))
    assert code == 2
    assert "verified-on-incomplete-catalog" in out


def test_config_error_paths(run_cli, tmp_path, monkeypatch):
    code, _, err = run_cli("stats", "C6", "--config",
                           str(tmp_path / "absent.toml"))
    assert code == 3 and "not found" in err

    bad_key = tmp_path / "bad-key.toml"
    bad_key.write_text("colour = blue\n")
    code, _, err = run_cli("stats", "C6", "--config", str(bad_key))
    assert code == 3 and "unknown config key 'colour'" in err

    bad_value = tmp_path / "bad-value.toml"
    bad_value.write_text("brute-cap = many\n")
    code, _, err = run_cli("stats", "C6", "--config", str(bad_value))
    assert code == 3 and "expected an integer" in err

    bad_line = tmp_path / "bad-line.toml"
    bad_line.write_text("just some words\n")
    code, _, err = run_cli("stats", "C6", "--config", str(bad_line))
    assert code == 3 and "expected KEY = VALUE" in err

    monkeypatch.setenv("PGX_FORMAT", "yaml")
    code, _, err = run_cli("stats", "C6")
    assert code == 3 and "PGX_FORMAT" in err and "yaml" in err


def test_config_file_that_is_not_text_is_an_input_error(run_cli, tmp_path):
    cfg = tmp_path / "bad.toml"
    cfg.write_bytes(b"format = \xff\n")
    code, out, err = run_cli("stats", "C6", "--config", str(cfg))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1


def test_config_underscore_keys_and_comments(run_cli, tmp_path):
    cfg = tmp_path / "styled.toml"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "brute_cap = 8\n"
        'format = "text"\n')
    code, out, _ = run_cli("stats", "C6", "--config", str(cfg))
    assert code == 0 and out == C6_STATS_TEXT


def test_config_rejects_nonpositive_caps(run_cli):
    code, _, err = run_cli("stats", "C6", "--brute-cap", "0")
    assert code == 3 and "must be positive" in err


@pytest.mark.parametrize("argv", [
    ("census", "ingest", "census"),
    ("verify", "prop-2.8", "--p", "2", "--n", "4"),
    ("verify", "lemma-2.1"),
])
def test_config_rejects_a_negative_seed(run_cli, monkeypatch, argv):
    monkeypatch.chdir(REPO_ROOT)
    code, out, err = run_cli(*argv, "--seed", "-1")
    assert (code, out, err) == (3, "", "error: seed must be non-negative, got -1\n")


needs_dev_full = pytest.mark.skipif(not Path("/dev/full").exists(),
                                    reason="needs /dev/full, a device whose writes fail")


@needs_dev_full
@pytest.mark.parametrize("argv,message", [
    (("graph", "C8", "directed", "dot", "--out", "/dev/full"), "cannot write /dev/full"),
    (("stats", "C8"), "cannot write stdout"),
    (("graph", "Q8", "directed", "dot"), "cannot write stdout"),
])
def test_write_failures_are_input_errors(argv, message):
    """Output that cannot be written is one error line and exit 3, with no
    traceback and no second report when the interpreter flushes at exit."""
    to_stdout = "--out" not in argv
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "pgx.cli", *argv],
                              stdout=full if to_stdout else subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=REPO_ROOT)
    assert (proc.returncode, proc.stdout or "") == (3, "")
    assert proc.stderr.startswith(f"error: {message}: [Errno 28]")
    assert proc.stderr.count("\n") == 1


def test_parser_is_built_once_and_carries_nothing_between_calls(run_cli, monkeypatch):
    builds = []
    real = pgx.cli.build_parser
    monkeypatch.setattr(pgx.cli, "build_parser", lambda: builds.append(1) or real())
    monkeypatch.chdir(REPO_ROOT)      # where the default census dir is ./census
    pgx.cli._parser.cache_clear()
    try:
        code, out, _ = run_cli("stats", "C6", "--format", "json")
        assert code == 0 and json.loads(out)["undirected_edges"] == 13
        assert run_cli("stats", "C6") == (0, C6_STATS_TEXT, "")
        prop_2_8 = ("verify", "prop-2.8", "--p", "2", "--n", "4")
        code, out, _ = run_cli(*prop_2_8, "--census-dir", "")
        assert code == 2 and "completeness: incomplete\n" in out
        code, out, _ = run_cli(*prop_2_8)
        assert code == 0 and "completeness: complete-via-ingested-census\n" in out
        for usage_error in (("verify", "no-such-claim"), ("scan", "conjecture-2.9"),
                            ("stats", "C6", "--brute-cap", "x")):
            code, out, err = run_cli(*usage_error)
            assert (code, out) == (3, "") and err.startswith("error: ")
            assert run_cli("stats", "C6") == (0, C6_STATS_TEXT, "")
    finally:
        pgx.cli._parser.cache_clear()     # later calls build with the real builder
    assert builds == [1]


def test_cli_without_arguments_fails_cleanly(run_cli):
    code, _, err = run_cli()
    assert code == 3 and err.startswith("error:")


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "pgx.cli", "stats", "C6"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0
    assert proc.stdout == C6_STATS_TEXT


_NUMPY_PROBE = (
    "import contextlib, io, sys\n"
    "import pgx.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = pgx.cli.main(sys.argv[1:])\n"
    "print(code, 'numpy' in sys.modules)\n"
)


@pytest.mark.parametrize("argv,loads_numpy", [
    (("verify", "main-theorem", "--n", "405"), False),
    (("verify", "prop-2.2", "--p", "3", "--n", "4"), False),
    (("spectrum", "C12"), False),
    (("stats", "C1000000000039xC105"), False),
    (("scan", "conjecture-2.9", "--n-max", "20000", "--format", "csv", "--census-dir", ""), False),
    # controls: a table under the cap, and census tables read for a verdict
    (("stats", "C12"), True),
    (("verify", "prop-2.8", "--p", "2", "--n", "4", "--census-dir", "census"), True),
])
def test_formula_commands_start_without_numpy(argv, loads_numpy):
    """A command that builds, reads or walks no table never imports numpy,
    in a fresh interpreter; the controls show that the probe sees it loaded."""
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.split()
    assert code in ("0", "2") and loaded == str(loads_numpy)


def test_cayley_files_are_utf8_under_the_c_locale(tmp_path):
    """Labels are read, and tables and DOT files written, as UTF-8 whatever
    the locale's encoding."""
    body = "order 2\nidentity 0\n0 1\n1 0\nlabels e \u00e9\n".encode()
    (tmp_path / "z2.cayley").write_bytes(body)
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    copy = ("from pgx.groups import read_cayley, write_cayley\n"
            "write_cayley(read_cayley('z2.cayley'), 'copy.cayley')\n")
    for argv in (["-m", "pgx.cli", "stats", "file:z2.cayley", "--census-dir", ""],
                 ["-m", "pgx.cli", "graph", "file:z2.cayley", "directed", "dot",
                  "--out", "z2.dot", "--census-dir", ""],
                 ["-c", copy]):
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              cwd=tmp_path, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    assert (tmp_path / "z2.dot").read_bytes() == \
        'digraph "z2" {\n  "e";\n  "\u00e9";\n  "\u00e9" -> "e";\n}\n'.encode()
    assert (tmp_path / "copy.cayley").read_bytes() == b"# z2\n" + body


def test_stdout_is_utf8_under_the_c_locale(tmp_path):
    """A DOT export to stdout writes the same UTF-8 bytes as --out, whatever
    the locale's encoding."""
    body = "order 2\nidentity 0\n0 1\n1 0\nlabels e \u00e9\n"
    (tmp_path / "z2.cayley").write_bytes(body.encode())
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    argv = [sys.executable, "-m", "pgx.cli", "graph", "file:z2.cayley", "directed", "dot",
            "--census-dir", ""]
    proc = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert subprocess.run([*argv, "--out", "z2.dot"], cwd=tmp_path, env=env).returncode == 0
    assert proc.stdout == (tmp_path / "z2.dot").read_bytes()


def test_a_spec_of_thousands_of_atoms_exits_zero(run_cli):
    """A product nests once per atom; 3000 atoms of C2 stay far inside the
    order limit and must not exhaust the recursion limit."""
    code, out, err = run_cli("spectrum", "x".join(["C2"] * 3000), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["spectrum"] == {"1": 1, "2": 2 ** 3000 - 1}


def test_an_uncaught_exception_exits_4_with_one_line():
    """A crash of the command-line entry point is an internal error, never the
    exit code 1 of a counterexample."""
    crash = ("import sys, pgx.cli\n"
             "def crash(args):\n"
             "    raise RecursionError('maximum recursion depth exceeded')\n"
             "pgx.cli.cmd_spectrum = crash\n"
             "sys.argv = ['pgx', 'spectrum', 'C6']\n"
             "pgx.cli.main_entry()\n")
    proc = subprocess.run([sys.executable, "-c", crash],
                          capture_output=True, text=True, cwd=REPO_ROOT)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == ("internal error: "
                           "RecursionError('maximum recursion depth exceeded')\n")
