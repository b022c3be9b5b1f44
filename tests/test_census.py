"""Factorization of n, nilpotent enumeration, claim verifiers, and the scan."""

import itertools
from functools import cache
from math import prod

import pytest

import pgx.census
import pgx.constructors
import pgx.spectrum
from pgx.census import (
    CensusMember,
    Verdict,
    VerificationReport,
    enumerate_nilpotent,
    scan_conjecture_2_9,
    scan_rows,
    verify_cor_2_3,
    verify_cor_2_6,
    verify_lemma_2_1,
    verify_lemma_2_4,
    verify_lemma_2_5,
    verify_main_theorem,
    verify_prop_2_2,
    verify_prop_2_8,
)
from pgx.constructors import (CATALOG_BOUND, Abelian, Census, Completeness, Cyclic, Dihedral,
                              GeneralizedQuaternion, Modular, Semidihedral, parse_group_spec)
from pgx.errors import InputError, InvariantError, ResourceError
from pgx.groups import write_cayley
from pgx.spectrum import (
    OddSieve,
    factor,
    is_prime,
    order_sum,
    phi_sum,
    spectrum_cyclic,
    undirected_from_sums,
)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,factors,s_index", [
    (1, (), None),
    (2, ((2, 1),), None),
    (12, ((2, 2), (3, 1)), 1),
    (15, ((3, 1), (5, 1)), None),
    (45, ((3, 2), (5, 1)), 1),
    (50, ((2, 1), (5, 2)), 2),
    (675, ((3, 3), (5, 2)), 1),
    (1024, ((2, 10),), 1),
])
def test_factorize(n, factors, s_index):
    """The main theorem reads its s-prime, the first prime with exponent > 1,
    off `factor(n)`, and refuses a square-free n."""
    assert factor(n) == list(factors)
    if s_index is None:
        with pytest.raises(InputError, match="square-free" if n > 1 else ">= 2"):
            verify_main_theorem(n)
    else:
        report = verify_main_theorem(n, allow_even=True)
        assert report.params["s_prime"] == factors[s_index - 1][0]


def test_factorization_render():
    def rendered(n):
        return verify_main_theorem(n, allow_even=True).params["factorization"]

    assert rendered(45) == "3^2 * 5"
    assert rendered(90) == "2 * 3^2 * 5"
    assert rendered(675) == "3^3 * 5^2"


@pytest.mark.parametrize("bad", [0, -5, True, "12", 1.5])
def test_factorize_rejects_non_positive_ints(bad):
    with pytest.raises(InputError):
        factor(bad)


# ---------------------------------------------------------------------------
# Nilpotent enumeration
# ---------------------------------------------------------------------------

def enumerate_order(n, census=None):
    return enumerate_nilpotent(n, factor(n), census)


def test_enumerate_nilpotent_order_45():
    members, completeness = enumerate_order(45)
    assert completeness is Completeness.COMPLETE
    assert [m.render() for m in members] == ["C9xC5", "Ab(3;1,1)xC5"]
    assert [m.is_cyclic for m in members] == [True, False]
    assert members[0].spec.spectrum() == spectrum_cyclic(45)
    for m in members:
        assert tuple(e.source for e in m.sylows) == ("parametric", "parametric")


def test_enumerate_nilpotent_prime_and_composite():
    members, completeness = enumerate_order(2)
    assert [m.render() for m in members] == ["C2"]
    assert completeness is Completeness.COMPLETE
    members, _ = enumerate_order(12)
    assert [m.render() for m in members] == ["C4xC3", "Ab(2;1,1)xC3"]


def test_enumerate_nilpotent_sixteen_with_and_without_census(census_dir):
    members, completeness = enumerate_order(16)
    assert len(members) == 9
    assert completeness is Completeness.INCOMPLETE
    members, completeness = enumerate_order(16, Census(census_dir))
    assert len(members) == 10
    assert completeness is Completeness.COMPLETE_VIA_CENSUS
    assert sum(e.source.endswith(".cayley") for m in members for e in m.sylows) == 1


def test_enumerate_nilpotent_rejects_trivial_order():
    with pytest.raises(InputError):
        enumerate_order(1)


def test_enumerate_nilpotent_refuses_more_members_than_the_bound(monkeypatch):
    # 105^10: three Sylow catalogs of 43 entries (42 partitions of 10 and M(10,p))
    with pytest.raises(ResourceError) as err:
        enumerate_order(105 ** 10)
    assert str(err.value) == (f"order {105 ** 10} has {43 ** 3} nilpotent groups, one per "
                              f"choice of Sylow catalog entries, above the catalog bound "
                              f"{CATALOG_BOUND}")
    # the bound counts members: 5 * 5 of order 3^3 * 5^3, 5 * 5 * 2 with a factor 7^2
    monkeypatch.setattr(pgx.census, "CATALOG_BOUND", 25)
    assert len(enumerate_order(3 ** 3 * 5 ** 3)[0]) == 25
    with pytest.raises(ResourceError):
        enumerate_order(3 ** 3 * 5 ** 3 * 7 ** 2)


def test_sylow_scores_equal_the_convolved_spectrum():
    """A member's (sigma, phi), multiplied from its Sylow entries, equals
    order_sum and phi_sum of its lcm-convolved spectrum."""
    for n in range(9, 3001, 2):
        if all(a == 1 for _, a in factor(n)):
            continue
        members, _ = enumerate_order(n)
        for m in members:
            assert isinstance(m, CensusMember)
            s = m.spec.spectrum()
            assert (m.sigma, m.phi) == (order_sum(s), phi_sum(s)), (n, m.render())


def reduced_catalog(p, a):
    """p_group_catalog(p, a) reduced to what the scan reads: its size
    and completeness, and the (sigma, phi, name) of C_(p^a) and of each
    candidate, C_(p^(a-1)) x C_p and then M(a,p) for a >= 3, taken by spec
    from the entries' spectra."""
    entries, completeness = pgx.constructors.p_group_catalog(p, a)
    by_spec = {e.spec: e for e in entries}
    specs = [Cyclic(p ** a)] + ([Abelian(p, (a - 1, 1))] if a > 1 else []) \
        + ([Modular(a, p)] if a >= 3 else [])
    cyclic, *candidates = [(e.sigma, e.phi, e.render()) for e in map(by_spec.__getitem__, specs)]
    return pgx.census._ScanSylow(len(entries), completeness, cyclic, candidates)


def test_prime_order_sylow_is_the_catalog_of_order_p():
    """The scan's C_p, taken in closed form, is the single entry of
    p_group_catalog(p, 1) for every odd prime up to 10^4."""
    for p in range(3, 10_001, 2):
        if is_prime(p):
            x = pgx.census._scan_sylow(p, 1)
            assert x == reduced_catalog(p, 1), p
            assert (x.size, x.candidates) == (1, [])


def test_scan_sylow_is_the_reduced_parametric_catalog():
    """For every odd p^a <= 10^7 with a >= 2, the closed forms give the size,
    completeness, cyclic entry and candidates that reducing the parametric
    catalog of order p^a gives."""
    checked = 0
    for p in filter(is_prime, range(3, 3163, 2)):
        a = 2
        while p ** a <= 10 ** 7:
            assert pgx.census._scan_sylow(p, a) == reduced_catalog(p, a), (p, a)
            checked += 1
            a += 1
    assert checked == 533


def test_scan_without_a_census_builds_no_catalog_or_spectrum(monkeypatch, census_dir):
    """With no census table at any order it reads, a scan to 10^4 calls no
    p_group_catalog, spectrum_cyclic or factor, and gives the same rows."""
    expected = list(scan_rows(10_000))

    def refuse(*args, **kwargs):
        raise AssertionError("the scan built a catalog, a spectrum or a factorization")

    for module, name in ((pgx.census, "p_group_catalog"), (pgx.census, "spectrum_cyclic"),
                         (pgx.constructors, "spectrum_cyclic"), (pgx.census, "factor"),
                         (pgx.spectrum, "factor")):
        monkeypatch.setattr(module, name, refuse)
    assert list(scan_rows(10_000)) == expected
    assert list(scan_rows(10_000, Census(census_dir))) == expected    # census/16 is even


def test_scan_reads_a_census_catalog_once_per_call(monkeypatch, tmp_path):
    """With a census at order 81, each scan builds p_group_catalog(3, 4) once,
    before its first row, and builds no other catalog; nothing is carried
    over between calls."""
    (tmp_path / "81").mkdir()
    write_cayley(Cyclic(81).build(), tmp_path / "81" / "c81.cayley")
    calls = []
    catalog = pgx.census.p_group_catalog

    def counted(p, k, census=None):
        calls.append((p, k, census))
        return catalog(p, k, census)

    monkeypatch.setattr(pgx.census, "p_group_catalog", counted)
    census = Census(tmp_path)
    rows = scan_rows(1000, census)
    assert calls == [(3, 4, census)]
    assert sum(row[0] % 81 == 0 for row in rows) == 6
    assert calls == [(3, 4, census)]
    scan_conjecture_2_9(1000, census)
    assert calls == [(3, 4, census)] * 2


def test_scan_builds_the_catalog_of_a_census_prime_where_it_first_reads_it(tmp_path):
    """A <p>/ census directory is read as the order-p catalog: a table of
    order 5 there fails where the scan first reads p = 7 with exponent 1,
    at 63, and not below."""
    (tmp_path / "7").mkdir()
    write_cayley(Cyclic(5).build(), tmp_path / "7" / "c5.cayley")
    assert scan_conjecture_2_9(62, Census(tmp_path)).rows == scan_conjecture_2_9(62).rows
    with pytest.raises(InputError, match="order 5 does not match census directory 7"):
        scan_rows(63, Census(tmp_path))


@pytest.fixture
def odd_census_root(tmp_path):
    """A census root whose names look like orders but hold no table: a
    regular file 81, an empty 243/, and a 729/ holding only notes.txt."""
    (tmp_path / "81").write_text("not a directory\n")
    (tmp_path / "243").mkdir()
    (tmp_path / "729").mkdir()
    (tmp_path / "729" / "notes.txt").write_text("no tables here\n")
    return tmp_path


def test_a_census_of_no_tables_leaves_the_catalogs_as_without_one(odd_census_root):
    """Neither a file named 81, an empty 243/ nor a 729/ of no table adds an
    entry to the catalogs of 3^4, 3^5 and 3^6 or makes them complete."""
    census = Census(odd_census_root)
    assert census.exists()
    assert (census.orders(), census.every_table()) == ([], [])
    for k in (4, 5, 6):
        assert census.tables(3 ** k) == []
        assert pgx.constructors.p_group_catalog(3, k, census) == \
            pgx.constructors.p_group_catalog(3, k), k


def test_a_scan_on_a_census_of_no_tables_builds_no_catalog(monkeypatch, odd_census_root):
    """The scan reads no catalog from a census root that holds no table."""
    expected = list(scan_rows(1000))

    def refuse(*args, **kwargs):
        raise AssertionError("the scan built a catalog")

    monkeypatch.setattr(pgx.census, "p_group_catalog", refuse)
    assert list(scan_rows(1000, Census(odd_census_root))) == expected


def test_census_ingest_of_a_root_of_no_tables_is_refused(run_cli, odd_census_root):
    code, out, err = run_cli("census", "ingest", str(odd_census_root))
    assert (code, out) == (3, "") and "no .cayley files found" in err


def test_parametric_catalog_size_is_the_census_free_catalogs():
    """The entry count and completeness that the scan reads without listing
    a group are those of the listed catalog, at p = 2 as at odd p."""
    for p in (2, 3, 5):
        for k in range(1, 9):
            entries, completeness = pgx.constructors.p_group_catalog(p, k)
            assert pgx.constructors.parametric_catalog_size(p, k) == \
                (len(entries), completeness), (p, k)


@pytest.mark.parametrize("argv,factored,sieved", [
    (("verify", "main-theorem", "--n", "675"), [675], []),
    (("scan", "conjecture-2.9", "--n-max", "200"), [], [200]),
], ids=["main-theorem", "scan"])
def test_each_order_is_factored_once(monkeypatch, run_cli, argv, factored, sieved):
    """main-theorem factors its order once; the scan sieves the odd numbers
    up to n_max once and factors no order. `_census_sylows` does call
    `factor`, on each odd census directory name at most n_max, but the
    shipped census holds only 16/, which is even and skipped before that."""
    calls, sieves = [], []
    real_factor, real_sieve = pgx.census.factor, pgx.census.OddSieve
    monkeypatch.setattr(pgx.census, "factor", lambda n: calls.append(n) or real_factor(n))
    monkeypatch.setattr(pgx.census, "OddSieve", lambda n: sieves.append(n) or real_sieve(n))
    assert run_cli(*argv)[0] == 0
    assert (calls, sieves) == (factored, sieved)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def test_counterexample_report_requires_witnesses():
    # A verdict cannot be declared: it follows from the witnesses, so a
    # counterexample without one cannot be built.
    with pytest.raises(TypeError):
        VerificationReport(
            claim="demo", params={}, completeness=Completeness.COMPLETE,
            verdict=Verdict.COUNTEREXAMPLE, headline="broken")
    report = VerificationReport(
        claim="demo", params={}, completeness=Completeness.COMPLETE,
        headline="broken")
    assert report.verdict is Verdict.VERIFIED and report.exit_code == 0
    report.witnesses.append({"n": 9})
    assert report.verdict is Verdict.COUNTEREXAMPLE and report.exit_code == 1


def test_exit_code_table():
    # (report_only, witnesses, completeness) -> (verdict, exit code)
    table = [
        (False, [], Completeness.COMPLETE, Verdict.VERIFIED, 0),
        (False, [], Completeness.COMPLETE_VIA_CENSUS, Verdict.VERIFIED, 0),
        (False, [], Completeness.INCOMPLETE, Verdict.VERIFIED_INCOMPLETE, 2),
        (False, [{"w": 1}], Completeness.COMPLETE, Verdict.COUNTEREXAMPLE, 1),
        (False, [{"w": 1}], Completeness.INCOMPLETE, Verdict.COUNTEREXAMPLE, 1),
        (True, [], Completeness.INCOMPLETE, Verdict.REPORT_ONLY, 0),
        (True, [{"w": 1}], Completeness.COMPLETE, Verdict.REPORT_ONLY, 0),
    ]
    for report_only, witnesses, completeness, verdict, code in table:
        report = VerificationReport(
            claim="demo", params={}, headline="h", witnesses=witnesses,
            completeness=completeness, report_only=report_only)
        assert (report.verdict, report.exit_code) == (verdict, code)
        assert report.to_json_dict()["verdict"] == verdict.value


@pytest.mark.parametrize("run", [lambda: verify_main_theorem(45)], ids=["main-theorem"])
def test_missing_expected_member_is_an_internal_error(monkeypatch, run):
    catalog = pgx.census.p_group_catalog

    def without_split(p, k, census=None):
        entries, completeness = catalog(p, k, census)
        return [e for e in entries if e.render() != "Ab(3;1,1)"], completeness

    monkeypatch.setattr(pgx.census, "p_group_catalog", without_split)
    with pytest.raises(InvariantError, match=r"expected maximizer Ab\(3;1,1\)\S* missing"):
        run()


def test_report_json_dict_shape():
    d = verify_prop_2_2(3, 2).to_json_dict()
    assert list(d) == ["claim", "params", "completeness", "verdict", "exit_code",
                       "headline", "argmax", "notes", "witnesses", "rows"]
    assert d["claim"] == "prop-2.2"
    assert d["verdict"] == "verified"
    assert d["completeness"] == "complete"
    assert d["exit_code"] == 0


# ---------------------------------------------------------------------------
# Main theorem
# ---------------------------------------------------------------------------

def test_main_theorem_order_45():
    report = verify_main_theorem(45)
    assert report.verdict is Verdict.VERIFIED and report.exit_code == 0
    assert report.argmax == ["Ab(3;1,1)xC5"]
    assert report.params == {
        "n": 45, "factorization": "3^2 * 5", "s_prime": 3,
        "expected": "Ab(3;1,1)xC5", "expected_display": "C15xC3",
        "candidates": 1,
    }
    assert report.rows == [{"member": "Ab(3;1,1)xC5", "phi_sum": 289,
                            "argmax": True, "expected": True}]
    assert report.notes[0] == ("cyclic group C45 excluded from the comparison "
                               "(phi-sum 697)")
    assert "289" in report.headline


def test_main_theorem_order_135_has_tied_argmax():
    report = verify_main_theorem(135)
    assert report.verdict is Verdict.VERIFIED
    assert report.argmax == ["Ab(3;2,1)xC5", "M(3,3)xC5"]
    assert report.params["candidates"] == 4
    assert report.rows[0]["phi_sum"] == 2125 and report.rows[1]["phi_sum"] == 2125
    assert {r["member"]: r["phi_sum"] for r in report.rows} == {
        "Ab(3;2,1)xC5": 2125, "M(3,3)xC5": 2125,
        "Ab(3;1,1,1)xC5": 901, "He3xC5": 901,
    }


def test_main_theorem_order_225_beats_the_other_split():
    report = verify_main_theorem(225)
    assert report.verdict is Verdict.VERIFIED
    assert report.params["expected_display"] == "C75xC3"
    assert report.argmax == ["Ab(3;1,1)xC25"]
    by_member = {r["member"]: r["phi_sum"] for r in report.rows}
    assert by_member["Ab(3;1,1)xC25"] == 7089
    assert by_member["C9xAb(5;1,1)"] == 3977
    assert "Ab(3;1,1)xAb(5;1,1)" not in by_member
    assert report.notes[1].startswith("not listed: 1 with two or more non-cyclic Sylow "
                                      "factors; ")


def test_main_theorem_agrees_with_the_full_enumeration(census_dir):
    """Ranking the members with one non-cyclic Sylow factor gives the best
    phi, argmax, expected member, candidate count and completeness that
    ranking every enumerated member gives: at every odd non-square-free
    n <= 6000, and with allow_even at every even one <= 2000, with and
    without census/16. Each listed row's phi is its member's, and every
    non-cyclic catalog entry met has a phi below its prime's cyclic entry."""
    cases = [(n, None) for n in range(9, 6001, 2)]
    cases += [(n, census) for n in range(4, 2001, 2) for census in (None, Census(census_dir))]
    checked = 0
    for n, census in cases:
        factors = factor(n)
        p_s = next((p for p, a in factors if a > 1), None)
        if p_s is None:
            continue
        members, completeness = enumerate_nilpotent(n, factors, census)
        cyclic = next(m for m in members if m.is_cyclic)
        assert all(e.phi < c.phi for m in members for e, c in zip(m.sylows, cyclic.sylows)
                   if not e.is_cyclic), n
        scored = ranked_members(members, lambda m: m.phi)
        expected = expected_member(members, factors, p_s)
        report = verify_main_theorem(n, census, allow_even=True)
        assert report.rows[0]["phi_sum"] == scored[0][0], n
        assert report.argmax == [name for phi, name in scored if phi == scored[0][0]], n
        assert report.params["expected"] == expected.render(), n
        assert [r["phi_sum"] for r in report.rows if r["expected"]] == [expected.phi], n
        assert report.params["candidates"] == len(scored), n
        assert report.completeness is completeness, n
        phi = {m.render(): m.phi for m in members}
        assert all(phi[r["member"]] == r["phi_sum"] for r in report.rows), n
        checked += 1
    assert checked == 568 + 2 * 596


def test_main_theorem_hypothesis_gates():
    with pytest.raises(InputError) as err:
        verify_main_theorem(30)
    assert "square-free" in str(err.value)
    with pytest.raises(InputError) as err:
        verify_main_theorem(18)
    assert "even" in str(err.value) and "allow_even" in str(err.value)
    with pytest.raises(InputError):
        verify_main_theorem(1)


def test_main_theorem_even_order_is_report_only():
    report = verify_main_theorem(18, allow_even=True)
    assert report.verdict is Verdict.REPORT_ONLY and report.exit_code == 0
    assert report.params["expected_display"] == "C6xC3"
    assert report.argmax == ["C2xAb(3;1,1)"]
    assert any("exploratory" in note for note in report.notes)


def test_main_theorem_incomplete_catalog_is_flagged():
    report = verify_main_theorem(3 ** 4 * 5 ** 2)     # 2025, has a 3^4 Sylow
    assert report.verdict is Verdict.VERIFIED_INCOMPLETE
    assert report.exit_code == 2
    assert report.completeness is Completeness.INCOMPLETE


# ---------------------------------------------------------------------------
# Odd p-group phi maximizers and the mutual-edge tie
# ---------------------------------------------------------------------------

def test_prop_2_2_square_case():
    report = verify_prop_2_2(3, 2)
    assert report.verdict is Verdict.VERIFIED
    assert report.argmax == ["Ab(3;1,1)"]
    assert report.rows == [{"group": "Ab(3;1,1)", "sigma": 25, "phi_sum": 17,
                            "edges": 12, "argmax": True, "source": "parametric"}]


def test_prop_2_2_cube_case():
    report = verify_prop_2_2(3, 3)
    assert report.verdict is Verdict.VERIFIED
    assert report.argmax == ["Ab(3;2,1)", "M(3,3)"]
    assert [(r["group"], r["phi_sum"]) for r in report.rows] == [
        ("Ab(3;2,1)", 125), ("M(3,3)", 125), ("Ab(3;1,1,1)", 53), ("He3", 53),
    ]
    # p-group identity held on every row, so no note was emitted
    assert report.notes == []
    for r in report.rows:
        assert 3 * r["phi_sum"] == 2 * r["sigma"] + 1


def test_prop_2_2_rejects_bad_parameters():
    for p in (2, 9):
        with pytest.raises(InputError) as err:
            verify_prop_2_2(p, 3)
        assert "odd prime" in str(err.value)
    with pytest.raises(InputError):
        verify_prop_2_2(3, 1)


def test_cor_2_3_mutual_edges_coincide():
    report = verify_cor_2_3(3, 3)
    assert report.verdict is Verdict.VERIFIED
    assert [r["mutual_edges"] for r in report.rows] == [49, 49]
    assert [r["group"] for r in report.rows] == ["Ab(3;2,1)", "M(3,3)"]
    assert report.notes == ["the two order spectra are identical"]
    assert "equal" in report.headline
    report = verify_cor_2_3(5, 4)
    assert report.verdict is Verdict.VERIFIED
    assert report.rows[0]["mutual_edges"] == report.rows[1]["mutual_edges"]


def test_cor_2_3_rejects_bad_parameters():
    with pytest.raises(InputError):
        verify_cor_2_3(2, 3)
    with pytest.raises(InputError):
        verify_cor_2_3(3, 2)


# ---------------------------------------------------------------------------
# Recurrences, sandwich, ratio comparison
# ---------------------------------------------------------------------------

def test_lemma_2_4_small_grid():
    report = verify_lemma_2_4(p_max=13, m_max=5)
    assert report.verdict is Verdict.VERIFIED
    assert report.params == {"p_max": 13, "m_max": 5, "grid_points": 24}
    assert len(report.rows) == 24 and not report.witnesses
    first = report.rows[0]
    assert first == {"p": 2, "m": 2, "phi_cyclic": 6, "phi_split": 4,
                     "recurrence_i": True, "closed_form": True,
                     "recurrence_ii": True}
    by_pm = {(r["p"], r["m"]): r for r in report.rows}
    assert by_pm[(3, 2)]["phi_cyclic"] == 41
    assert by_pm[(3, 2)]["phi_split"] == 17
    assert by_pm[(5, 2)]["phi_cyclic"] == 417


def test_lemma_2_4_rejects_degenerate_grid():
    with pytest.raises(InputError):
        verify_lemma_2_4(p_max=1)
    with pytest.raises(InputError):
        verify_lemma_2_4(m_max=1)


def test_lemma_2_5_sandwich_small_grid():
    report = verify_lemma_2_5(p_max=13, m_max=5)
    assert report.verdict is Verdict.VERIFIED
    rows = {(r["p"], r["m"]): r for r in report.rows}
    assert len(rows) == 24
    spot = rows[(3, 2)]
    assert spot["phi_cyclic"] == 41 and spot["phi_split"] == 17
    assert spot["lower_holds"] and spot["upper_holds"] and spot["contractual"]
    assert 1 * 17 < 41 < 3 * 17
    assert all(not r["contractual"] for r in report.rows if r["p"] == 2)
    assert any("informational" in note for note in report.notes)


def test_cor_2_6_ratio_comparison_small_grid():
    report = verify_cor_2_6(q_max=13, t_max=4)
    assert report.verdict is Verdict.VERIFIED
    assert report.params["pairs"] == 15
    rows = {(r["p"], r["q"]): r for r in report.rows}
    spot = rows[(3, 5)]
    assert spot["points"] == 9 and spot["holds"] and spot["contractual"]
    # the cross-multiplied comparison at m = t = 2: 41/17 < 417/97
    assert 41 * 97 < 417 * 17
    assert all(not rows[(2, q)]["contractual"] for q in (3, 5, 7, 11, 13))
    assert any("informational" in note for note in report.notes)


def _pointwise_cor_2_6_rows(grid, primes, exponents):
    """cor-2.6's rows by comparing every (m, t) of every pair, cross-multiplied."""
    rows = []
    for p, q in itertools.combinations(primes, 2):
        violations = [(m, t) for m in exponents for t in exponents
                      if not grid[(p, m)][0] * grid[(q, t)][1] < grid[(q, t)][0] * grid[(p, m)][1]]
        rows.append(({"p": p, "q": q, "points": len(exponents) ** 2,
                      "violations": len(violations), "holds": not violations,
                      "contractual": p != 2}, violations[:1]))
    return rows


@pytest.mark.parametrize("forged,verdict", [
    ({}, Verdict.VERIFIED),
    # (7, 5) takes the ratio of (3, 4): a tie, which the strict claim counts as failing
    ({(7, 5): (3, 4, 1)}, Verdict.COUNTEREXAMPLE),
    # 7's smallest ratio, at t = 2, ties 5's largest, at m = 12: one failing point
    ({(7, 2): (5, 12, 1)}, Verdict.COUNTEREXAMPLE),
    # (13, 9) far above its neighbours fails against larger primes at some t only;
    # (5, 12) just below (3, 2) fails against 3 at one point; p = 2 fails too
    ({(13, 9): (13, 9, 40), (5, 12): (3, 2, -1), (2, 3): (2, 3, 90)}, Verdict.COUNTEREXAMPLE),
    # only pairs with p = 2 fail
    ({(2, 12): (2, 12, 10 ** 6)}, Verdict.VERIFIED),
], ids=["real", "tie", "extreme-tie", "scattered", "informational-only"])
def test_cor_2_6_pair_decision_equals_the_pointwise_check(monkeypatch, forged, verdict):
    """On grids forged so that some pairs fail at a few (m, t), every row,
    witness and the verdict equal those of comparing all 121 points of each
    pair: the extreme-ratio decision holds a pair exactly when no point fails.
    A forged entry (q, t, k) takes the phi pair of (q, t), its L scaled by k
    when k > 1, or nudged below by k = -1."""
    real = pgx.census._phi_grid(97, 12)
    grid = dict(real)
    for key, (q, t, k) in forged.items():
        l_q, a_q, prev = real[(q, t)]
        if k == -1:         # a ratio just below that of (q, t)
            l_q, a_q = l_q * 10 ** 6 - 1, a_q * 10 ** 6
        grid[key] = (l_q * max(k, 1), a_q, prev)
    monkeypatch.setattr(pgx.census, "_phi_grid", lambda p_max, m_max: grid)
    report = verify_cor_2_6(97, 12)
    primes = sorted({p for p, _ in grid})
    expected = _pointwise_cor_2_6_rows(grid, primes, range(2, 13))
    assert report.rows == [row for row, _ in expected]
    assert report.witnesses == [{**row, "first_violation": first[0]}
                                for row, first in expected if row["contractual"] and first]
    failing = [row for row in report.rows if not row["holds"]]
    assert bool(failing) == bool(forged)
    assert all(0 < row["violations"] < 121 for row in failing)
    assert report.verdict is verdict


def test_cor_2_6_rejects_degenerate_grid():
    with pytest.raises(InputError):
        verify_cor_2_6(q_max=2)
    with pytest.raises(InputError):
        verify_cor_2_6(t_max=1)


# ---------------------------------------------------------------------------
# Random multiplicativity checks
# ---------------------------------------------------------------------------

def test_lemma_2_1_is_deterministic_and_exact():
    a = verify_lemma_2_1(pairs=25, max_order=60, seed=7)
    b = verify_lemma_2_1(pairs=25, max_order=60, seed=7)
    assert a.rows == b.rows
    assert a.verdict is Verdict.VERIFIED
    assert len(a.rows) == 25
    assert a.params["pool_size"] > 0
    for row in a.rows:
        assert row["holds"]
        assert row["phi_product"] == row["phi_left"] * row["phi_right"]
    different = verify_lemma_2_1(pairs=25, max_order=60, seed=8)
    assert different.rows != a.rows


def test_lemma_2_1_rejects_degenerate_parameters():
    with pytest.raises(InputError):
        verify_lemma_2_1(pairs=0)
    with pytest.raises(InputError):
        verify_lemma_2_1(max_order=3)


def test_sweeps_refuse_work_past_their_bounds(monkeypatch):
    """Each bound is checked before the work starts; a sweep at a bound runs."""
    monkeypatch.setattr(pgx.census, "SWEEP_ROW_BOUND", 24)
    assert len(verify_lemma_2_4(p_max=13, m_max=5).rows) == 6 * 4
    with pytest.raises(ResourceError, match="over 28 grid points is above the sweep row bound 24"):
        verify_lemma_2_5(p_max=17, m_max=5)
    monkeypatch.setattr(pgx.census, "SWEEP_ROW_BOUND", 15)
    assert len(verify_cor_2_6(q_max=13, t_max=2).rows) == 15
    with pytest.raises(ResourceError, match="over 21 prime pairs"):
        verify_cor_2_6(q_max=17, t_max=2)
    assert len(verify_lemma_2_1(pairs=15).rows) == 15
    with pytest.raises(ResourceError, match="over 16 random pairs"):
        verify_lemma_2_1(pairs=16)
    monkeypatch.setattr(pgx.census, "SWEEP_PRIME_BOUND", 13)
    monkeypatch.setattr(pgx.census, "SWEEP_EXPONENT_BOUND", 3)
    assert verify_lemma_2_4(p_max=13, m_max=3).verdict is Verdict.VERIFIED
    with pytest.raises(ResourceError, match="primes up to 14 is above the sweep prime bound 13"):
        verify_lemma_2_4(p_max=14, m_max=3)
    with pytest.raises(ResourceError, match="exponents up to 4 is above the sweep exponent"):
        verify_lemma_2_5(p_max=13, m_max=4)
    with pytest.raises(ResourceError, match="primes up to 14 is above"):
        verify_lemma_2_1(pairs=1, max_order=14)


# ---------------------------------------------------------------------------
# Edge-count maximizers
# ---------------------------------------------------------------------------

def test_prop_2_8_order_eight_quaternion_wins():
    report = verify_prop_2_8(2, 3)
    assert report.verdict is Verdict.VERIFIED
    assert report.argmax == ["Q8"]
    assert [(r["group"], r["edges"]) for r in report.rows] == [
        ("Q8", 16), ("Ab(2;2,1)", 13), ("D8", 10), ("Ab(2;1,1,1)", 7),
    ]


def test_prop_2_8_odd_prime_cases():
    report = verify_prop_2_8(3, 2)
    assert report.verdict is Verdict.VERIFIED
    assert report.argmax == ["Ab(3;1,1)"]
    report = verify_prop_2_8(3, 3)
    assert report.verdict is Verdict.VERIFIED
    assert report.argmax == ["Ab(3;2,1)", "M(3,3)"]
    assert report.rows[0]["edges"] == 111


def test_prop_2_8_sixteen_without_census_is_incomplete():
    report = verify_prop_2_8(2, 4)
    assert report.verdict is Verdict.VERIFIED_INCOMPLETE
    assert report.exit_code == 2
    assert report.argmax == ["Ab(2;3,1)", "M(4,2)"]
    assert report.rows[0]["edges"] == 57
    assert any("shares its order spectrum" in note for note in report.notes)


def test_prop_2_8_sixteen_with_census_is_complete(census_dir):
    report = verify_prop_2_8(2, 4, Census(census_dir))
    assert report.verdict is Verdict.VERIFIED
    assert report.exit_code == 0
    assert report.completeness is Completeness.COMPLETE_VIA_CENSUS
    assert report.argmax == ["Ab(2;3,1)", "M(4,2)"]
    ingested = [r for r in report.rows if r["source"].endswith(".cayley")]
    assert len(ingested) == 1
    assert ingested[0]["source"] == "d8xc2.cayley"
    assert ingested[0]["group"].startswith("file:")
    assert ingested[0]["group"].endswith("d8xc2.cayley")
    assert ingested[0]["edges"] == 21


def test_prop_2_8_rejects_bad_parameters():
    with pytest.raises(InputError):
        verify_prop_2_8(6, 2)
    with pytest.raises(InputError):
        verify_prop_2_8(2, 1)


# ---------------------------------------------------------------------------
# Exploratory scan
# ---------------------------------------------------------------------------

def test_scan_smallest_order_only():
    report = scan_conjecture_2_9(9)
    assert report.verdict is Verdict.REPORT_ONLY and report.exit_code == 0
    assert report.rows == [{
        "n": 9, "candidates": 1, "expected": "Ab(3;1,1)",
        "expected_edges": 12, "max_edges": 12, "margin": 0,
        "supported": True, "argmax": "Ab(3;1,1)",
        "completeness": "complete",
    }]


def test_scan_up_to_one_hundred():
    report = scan_conjecture_2_9(100)
    assert report.verdict is Verdict.REPORT_ONLY
    assert [r["n"] for r in report.rows] == [9, 25, 27, 45, 49, 63, 75, 81, 99]
    assert all(r["supported"] for r in report.rows)
    by_n = {r["n"]: r for r in report.rows}
    assert by_n[27]["argmax"] == "Ab(3;2,1) | M(3,3)"
    assert by_n[27]["margin"] == 0       # tied with the modular group
    assert by_n[81]["completeness"] == "incomplete"
    assert report.completeness is Completeness.INCOMPLETE
    assert any("incomplete catalogs" in note for note in report.notes)
    assert any("no pass/fail contract" in note for note in report.notes)


def test_scan_rejects_too_small_bound():
    with pytest.raises(InputError):
        scan_conjecture_2_9(8)


def expected_member(members, factors, p_s):
    """The member C_(n/p_s) x C_(p_s) of an order-n enumeration: one p_s split
    off the Sylow p_s-factor, every other factor cyclic."""
    sylows = tuple(Abelian(p, (a - 1, 1)) if p == p_s else Cyclic(p ** a) for p, a in factors)
    return next(m for m in members if m.sylow_specs == sylows)


def ranked_members(members, score):
    """(score, name) of every non-cyclic member, sorted by (-score, name)."""
    return sorted(((score(m), m.render()) for m in members if not m.is_cyclic),
                  key=lambda t: (-t[0], t[1]))


def enumerated_scan_rows(n_max, census=None):
    """The scan's rows as the full enumeration gives them: every non-cyclic
    nilpotent group of each order is scored and ranked."""
    rows = []
    for n in range(9, n_max + 1, 2):
        factors = factor(n)
        p_s = next((p for p, a in factors if a > 1), None)
        if p_s is None:
            continue
        members, completeness = enumerate_nilpotent(n, factors, census)
        expected = expected_member(members, factors, p_s)
        scored = ranked_members(members, lambda m: undirected_from_sums(m.sigma, m.phi, n))
        best = scored[0][0]
        expected_edges = undirected_from_sums(expected.sigma, expected.phi, n)
        rows.append({
            "n": n,
            "candidates": len(scored),
            "expected": expected.render(),
            "expected_edges": expected_edges,
            "max_edges": best,
            "margin": best - (scored[1][0] if len(scored) > 1 else best),
            "supported": expected_edges == best,
            "argmax": " | ".join(name for e, name in scored if e == best),
            "completeness": completeness.value,
        })
    return rows


def test_scan_agrees_with_the_full_enumeration():
    """Scoring only the members with one non-cyclic Sylow factor gives every
    column of every row that ranking all members gives."""
    assert scan_conjecture_2_9(20_000).rows == enumerated_scan_rows(20_000)


def test_scan_candidates_past_the_enumeration_range_and_below_the_catalog_bound():
    """candidates is the product of the Sylow catalog sizes less one, also at
    3^10 * 5^3 = 7,381,125, far past the orders the enumeration test reaches.
    No odd order up to SCAN_BOUND has CATALOG_BOUND members, so the scan
    needs no member-count guard: 3^10 * 5^3 has the most, 43 * 5."""
    @cache
    def size(p, a):
        return len(pgx.constructors.p_group_catalog(p, a)[0])

    n = 3 ** 10 * 5 ** 3
    row = pgx.census._scan_row(n, OddSieve(n), {})
    assert dict(zip(pgx.census.SCAN_COLUMNS, row))["candidates"] \
        == size(3, 10) * size(5, 3) - 1 == 214

    primes = list(filter(is_prime, range(3, 3163, 2)))

    def most(m, k):
        """The largest product of catalog sizes over the odd m * r <= SCAN_BOUND
        whose r has only primes from primes[k:]; a prime factor of exponent 1
        has a catalog of one group."""
        best = 1
        for i in range(k, len(primes)):
            p = primes[i]
            if m * p * p > pgx.census.SCAN_BOUND:
                break
            q, a = p * p, 2
            while m * q <= pgx.census.SCAN_BOUND:
                best = max(best, size(p, a) * most(m * q, i + 1))
                q, a = q * p, a + 1
        return best

    assert most(1, 0) == 215 < CATALOG_BOUND


def test_scan_argmax_splits_into_names_that_parse_back_to_themselves():
    """The argmax column joins names with " | ", which no rendered name holds,
    so each piece is one group spec, also where a name holds ; or x."""
    rows = list(scan_rows(20_000))
    assert rows[2][0] == 27 and rows[2][7] == "Ab(3;2,1) | M(3,3)"
    for row in rows:
        for name in row[7].split(" | "):
            assert parse_group_spec(name).render() == name, row


def test_split_sigma_is_above_the_exponent_bound():
    """C_(p^(a-1)) x C_p has p^a - p^(a-1) elements of order p^(a-1), so its
    sigma is at least 1 + (p-1) * p^(2a-2), above the bound
    B = 1 + (p^a - 1) * p^(a-2) on every group of exponent at most p^(a-2);
    at p = 2, B = 1 + 2^(2a-2) - 2^(a-2). A group of larger exponent has a
    cyclic maximal subgroup, and for 2^a, a >= 4, the catalog lists all six."""
    for p in filter(is_prime, range(2, 200)):
        for a in range(4 if p == 2 else 3, 41):
            sigma = order_sum(Abelian(p, (a - 1, 1)).spectrum())
            bound = 1 + (p ** a - 1) * p ** (a - 2)
            assert sigma >= 1 + (p - 1) * p ** (2 * a - 2) > bound, (p, a)
    for a in range(4, 33):     # past 2^32 the catalog bound refuses the order
        n = 2 ** a
        six = {Cyclic(n), Abelian(2, (a - 1, 1)), Modular(a, 2), Dihedral(n),
               GeneralizedQuaternion(n), Semidihedral(n)}
        assert six <= {e.spec for e in pgx.constructors.p_group_catalog(2, a)[0]}, a


def test_parametric_catalogs_top_sigma_is_the_split_and_the_modular_group():
    """In every parametric catalog of odd order p^a <= 10^6 the non-cyclic
    entries of largest sigma are C_(p^(a-1)) x C_p and, for a >= 3, M(a,p),
    and every other non-cyclic entry has sigma <= B = 1 + (p^a - 1) * p^(a-2):
    the entries the scan reads by spec."""
    for p in filter(is_prime, range(3, 1001, 2)):
        a = 2
        while p ** a <= 10 ** 6:
            noncyclic = [e for e in pgx.constructors.p_group_catalog(p, a)[0] if not e.is_cyclic]
            top = max(e.sigma for e in noncyclic)
            expected = {Abelian(p, (a - 1, 1))} | ({Modular(a, p)} if a >= 3 else set())
            assert {e.spec for e in noncyclic if e.sigma == top} == expected, (p, a)
            assert all(e.sigma <= 1 + (p ** a - 1) * p ** (a - 2)
                       for e in noncyclic if e.spec not in expected), (p, a)
            a += 1


def test_scan_agrees_with_the_full_enumeration_on_a_census(tmp_path):
    order_dir = tmp_path / "81"
    order_dir.mkdir()
    write_cayley(Cyclic(81).build(), order_dir / "c81.cayley")
    rows = scan_conjecture_2_9(1000, Census(tmp_path)).rows
    assert rows == enumerated_scan_rows(1000, Census(tmp_path))
    assert {r["n"] for r in rows if r["completeness"] == "complete-via-ingested-census"} \
        == {81, 405, 567, 891}


def _hand_sylow(cyclic_name, candidates):
    """A Sylow catalog for _scan_row by hand, cyclic entry (100, 51), its first
    candidate taken as the split: odd phi sums keep phi + n even at n = 225,
    and every product stays above n."""
    return pgx.census._ScanSylow(len(candidates) + 1, Completeness.COMPLETE,
                                 (100, 51, cyclic_name), candidates)


def _brute_scan_scores(n, sylows):
    """max_edges, margin and argmax from scoring every candidate of every
    Sylow catalog, the others cyclic, and ranking them as _argmax does."""
    scored = []
    for i, x in enumerate(sylows):
        for candidate in x.candidates:
            parts = [y.cyclic for y in sylows]
            parts[i] = candidate
            sigma, phi = (prod(part[k] for part in parts) for k in (0, 1))
            scored.append((undirected_from_sums(sigma, phi, n),
                           pgx.constructors.join_names([part[2] for part in parts])))
    scored.sort(key=lambda t: (-t[0], t[1]))
    best = scored[0][0]
    return best, best - scored[1][0], [name for e, name in scored if e == best]


# At n = 225 with both cyclic entries (100, 51), a candidate (sigma, phi) has
# 100*sigma - (51*phi + 225)/2 edges: (60, 31) 5097, (50, 25) 4250, (40, 21) 3352
# and (30, 15) 2505.
@pytest.mark.parametrize("sylows,max_edges,margin,argmax", [
    # the best tied across the two primes, and twice at the second
    ([_hand_sylow("Y", [(60, 31, "Yz"), (40, 21, "Yc")]),
      _hand_sylow("X", [(60, 31, "Xn"), (60, 31, "Xm"), (30, 15, "Xc")])],
     5097, 0, ["YxXm", "YxXn", "YzxX"]),
    # a unique best, the runner-up the second sigma at its own prime
    ([_hand_sylow("Y", [(50, 25, "Yc"), (60, 31, "Yb")]),
      _hand_sylow("X", [(40, 21, "Xb"), (30, 15, "Xc")])],
     5097, 5097 - 4250, ["YbxX"]),
    # a unique best, the runner-up the top entry of another prime
    ([_hand_sylow("Y", [(30, 15, "Yc"), (60, 31, "Yb")]),
      _hand_sylow("X", [(50, 25, "Xb"), (40, 21, "Xc")])],
     5097, 5097 - 4250, ["YbxX"]),
])
def test_scan_row_scores_ties_and_runners_up_as_brute_force(sylows, max_edges, margin, argmax):
    """The scorer cases no order up to 2*10^5 reaches: a best tied across
    primes, and each place a unique best's runner-up can come from."""
    n = 225         # 3^2 * 5^2
    row = dict(zip(pgx.census.SCAN_COLUMNS,
                   pgx.census._scan_row(n, OddSieve(n), {(3, 2): sylows[0], (5, 2): sylows[1]})))
    assert (row["max_edges"], row["margin"], row["argmax"].split(" | ")) \
        == _brute_scan_scores(n, sylows) == (max_edges, margin, argmax)
    split = sylows[0].candidates[0]
    assert row["expected"] == f"{split[2]}xX"
    assert row["expected_edges"] == undirected_from_sums(split[0] * 100, split[1] * 51, n)
    assert row["supported"] == (row["expected_edges"] == max_edges)


def test_scan_census_dir_upgrades_completeness(tmp_path):
    # orders 9..81 with a census for 81: only abelian tables, so the catalog
    # claims census-backed completeness for the 3^4 Sylow
    order_dir = tmp_path / "81"
    order_dir.mkdir()
    write_cayley(Cyclic(81).build(), order_dir / "c81.cayley")
    report = scan_conjecture_2_9(81, Census(tmp_path))
    by_n = {r["n"]: r for r in report.rows}
    assert by_n[81]["completeness"] == "complete-via-ingested-census"
    assert report.completeness is Completeness.COMPLETE
