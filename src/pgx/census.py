"""Nilpotent-group enumeration by Sylow catalogs and the verification harnesses.

A nilpotent group is the direct product of its Sylow subgroups, so every
candidate of order n is a choice of one catalog entry per prime power in n.
The maximization claims rank only the candidates with one non-cyclic Sylow
factor, from each entry's sums; concrete tables are never required.

Verdict contract: verified (exit 0), verified-on-incomplete-catalog (exit 2),
counterexample (exit 1), report-only (exit 0, exploratory output with no
pass/fail meaning).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from math import prod
from typing import Iterable, Iterator, NamedTuple

from .constructors import (
    CATALOG_BOUND,
    Abelian,
    CatalogEntry,
    Census,
    Completeness,
    GeneralizedQuaternion,
    GroupSpec,
    Modular,
    Product,
    join_names,
    merge_completeness,
    p_group_catalog,
    parametric_catalog_size,
)
from .errors import InputError, InvariantError, ResourceError
from .spectrum import (
    OddSieve,
    factor,
    is_prime,
    phi_cyclic_prime_power,
    phi_sum,
    primes_up_to,
    spectrum_cyclic,
    spectrum_product,
    stats_from_spectrum,
    undirected_from_sums,
)

# Defaults of the sweep claims: the largest prime and exponent of the grid
# claims, and lemma-2.1's random pair count, largest factor order and seed.
DEFAULT_P_MAX = 97
DEFAULT_M_MAX = 12
DEFAULT_PAIRS = 200
DEFAULT_MAX_ORDER = 200
DEFAULT_SEED = 1729

# Bounds on the sweep claims, checked before the work starts as CATALOG_BOUND
# is: the largest number primes are listed up to (p_max, q_max, max_order),
# the largest exponent (m_max, t_max), and the most rows one sweep may check
# (grid points, prime pairs or random pairs).
SWEEP_PRIME_BOUND = 10_000
SWEEP_EXPONENT_BOUND = 30
SWEEP_ROW_BOUND = 10_000

# The largest n_max of the conjecture-2.9 scan, checked before the work starts.
SCAN_BOUND = 10_000_000


# ---------------------------------------------------------------------------
# Nilpotent enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusMember:
    """One nilpotent group of order n: a Sylow catalog entry per prime.

    sigma and phi are its element-order and totient sums, the products of its
    Sylow entries' values: both are multiplicative over coprime direct
    products (Lemma 2.1).
    """

    sylows: tuple[CatalogEntry, ...]
    sigma: int
    phi: int

    @property
    def sylow_specs(self) -> tuple[GroupSpec, ...]:
        return tuple(e.spec for e in self.sylows)

    @property
    def spec(self) -> GroupSpec:
        return Product(*self.sylow_specs) if len(self.sylow_specs) > 1 else self.sylow_specs[0]

    @property
    def is_cyclic(self) -> bool:
        return all(e.is_cyclic for e in self.sylows)

    def render(self) -> str:
        return self.spec.render()


def enumerate_nilpotent(n: int, factors: list[tuple[int, int]], census: Census | None = None
                        ) -> tuple[list[CensusMember], Completeness]:
    """All known nilpotent groups of order n, one per choice of Sylow entries:
    the full enumeration that the claims' rankings are tested against.

    factors is the factorization of n as `factor` returns it, and each Sylow
    catalog is p_group_catalog(p, a, census). Raises ResourceError, before
    listing any group, when the groups would number more than CATALOG_BOUND.
    """
    if n < 2:
        raise InputError(f"enumerate_nilpotent needs n >= 2, got {n}")
    sylows = [p_group_catalog(p, a, census) for p, a in factors]
    count = prod(len(entries) for entries, _ in sylows)
    if count > CATALOG_BOUND:
        raise ResourceError(f"order {n} has {count} nilpotent groups, one per choice of "
                            f"Sylow catalog entries, above the catalog bound {CATALOG_BOUND}")
    members = [CensusMember(combo, prod(e.sigma for e in combo), prod(e.phi for e in combo))
               for combo in itertools.product(*(entries for entries, _ in sylows))]
    return members, merge_completeness([comp for _, comp in sylows])


# ---------------------------------------------------------------------------
# Ranking the members with one non-cyclic Sylow factor
# ---------------------------------------------------------------------------

class _ScanSylow(NamedTuple):
    """The Sylow catalog of order p^a reduced to what _rank reads: its size
    and completeness; its cyclic entry as (sigma, phi, name); and the
    non-cyclic entries ranked, its candidates, as (sigma, phi, name)."""

    size: int
    completeness: Completeness
    cyclic: tuple[int, int, str]
    candidates: list[tuple[int, int, str]]


def _rank(n: int, cyclic: tuple[int, int], sylows: Iterable[tuple[int, _ScanSylow]],
          score) -> list[tuple[int, int, int]]:
    """(score, i, j) of each member of order n whose only non-cyclic Sylow
    factor is candidate j of x, for each (i, x) of sylows in turn, x the
    _ScanSylow of factor i; score maps the member's (sigma, phi, order) to
    an int. cyclic is the (sigma, phi) of C_n. sigma and phi multiply over
    the Sylow factors (Lemma 2.1), so a member's are C_n's with one factor
    swapped."""
    ranked = []
    for i, x in sylows:
        rest_sigma, rest_phi = cyclic[0] // x.cyclic[0], cyclic[1] // x.cyclic[1]
        ranked += [(score(c[0] * rest_sigma, c[1] * rest_phi, n), i, j)
                   for j, c in enumerate(x.candidates)]
    return ranked


def _member_name(names: list[str], i: int, name: str) -> str:
    """The name of a product of the named factors, the one at i renamed."""
    names = names.copy()
    names[i] = name
    return join_names(names)


def _catalog_sylow(p: int, a: int, census: Census | None
                   ) -> tuple[_ScanSylow, list[CatalogEntry]]:
    """p_group_catalog(p, a, census) as Sylow data for _rank, every
    non-cyclic entry a candidate, and those entries in candidate order."""
    entries, completeness = p_group_catalog(p, a, census)
    cyclic = next(e for e in entries if e.is_cyclic)
    noncyclic = [e for e in entries if not e.is_cyclic]
    return _ScanSylow(len(entries), completeness, (cyclic.sigma, cyclic.phi, cyclic.render()),
                      [(e.sigma, e.phi, e.render()) for e in noncyclic]), noncyclic


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class Verdict(str, Enum):
    VERIFIED = "verified"
    VERIFIED_INCOMPLETE = "verified-on-incomplete-catalog"
    COUNTEREXAMPLE = "counterexample"
    REPORT_ONLY = "report-only"


_EXIT_CODES = {
    Verdict.VERIFIED: 0,
    Verdict.COUNTEREXAMPLE: 1,
    Verdict.VERIFIED_INCOMPLETE: 2,
    Verdict.REPORT_ONLY: 0,
}


@dataclass
class VerificationReport:
    """One claim's result. A claim records a witness exactly when its check fails,
    so the verdict follows: report-only when flagged so, else counterexample
    when a witness is recorded, else verified on the catalog's completeness."""

    claim: str
    params: dict
    headline: str
    rows: list[dict] = field(default_factory=list)
    witnesses: list[dict] = field(default_factory=list)
    completeness: Completeness = Completeness.COMPLETE
    argmax: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    report_only: bool = False

    @property
    def verdict(self) -> Verdict:
        if self.report_only:
            return Verdict.REPORT_ONLY
        if self.witnesses:
            return Verdict.COUNTEREXAMPLE
        if self.completeness is Completeness.INCOMPLETE:
            return Verdict.VERIFIED_INCOMPLETE
        return Verdict.VERIFIED

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.verdict]

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "completeness": self.completeness.value,
            "verdict": self.verdict.value,
            "exit_code": self.exit_code,
            "headline": self.headline,
            "argmax": self.argmax,
            "notes": self.notes,
            "witnesses": self.witnesses,
            "rows": self.rows,
        }


_M2_NOTE = ("the modular 2-group family M(n,2) is an extension beyond the "
            "source claim; it shares its order spectrum with C_(2^(n-1))xC2, "
            "so both sit in the expected maximizer set")


# ---------------------------------------------------------------------------
# Claim: maximum phi-sum among non-cyclic nilpotent groups of odd order
# ---------------------------------------------------------------------------

def verify_main_theorem(n: int, census: Census | None = None,
                        allow_even: bool = False) -> VerificationReport:
    """Check that C_(n/p_s) x C_(p_s) attains the maximum phi-sum among
    non-cyclic nilpotent groups of order n (n odd, not square-free).

    Only the members with one non-cyclic Sylow factor are ranked and listed.
    phi multiplies over the Sylow factors (Lemma 2.1), and each non-cyclic
    p-group has a smaller phi than the cyclic one (Curtin & Pourgholi 2014),
    so making one of two non-cyclic factors cyclic raises phi: every other
    member scores strictly below a ranked one. A note counts them.

    With allow_even the same computation runs on even n but the result is
    report-only: the claim's hypotheses exclude even orders.
    """
    if n < 2:
        raise InputError(f"order must be >= 2, got {n}")
    factors = factor(n)
    s = next((i for i, (_, a) in enumerate(factors) if a > 1), None)    # None when square-free
    if s is None:
        raise InputError(
            f"hypothesis violated: n = {n} is square-free, so every nilpotent "
            f"group of order {n} is cyclic and there is nothing to maximize")
    if n % 2 == 0 and not allow_even:
        raise InputError(
            f"hypothesis violated: n = {n} is even (pass allow_even to explore anyway)")
    p_s, a_s = factors[s]
    sylows = [_catalog_sylow(p, a, census)[0] for p, a in factors]
    names = [x.cyclic[2] for x in sylows]
    expected = _member_name(names, s, Abelian(p_s, (a_s - 1, 1)).render())
    expected_display = f"C{n // p_s}xC{p_s}"
    cyclic = prod(x.cyclic[0] for x in sylows), prod(x.cyclic[1] for x in sylows)
    scored = sorted(((v, _member_name(names, i, sylows[i].candidates[j][2]))
                     for v, i, j in _rank(n, cyclic, enumerate(sylows),
                                          lambda sigma, phi, order: phi)),
                    key=lambda t: (-t[0], t[1]))
    expected_phi = next((v for v, name in scored if name == expected), None)
    if expected_phi is None:
        raise InvariantError(f"expected maximizer {expected} missing from the order-{n} catalogs")
    best = scored[0][0]
    rows = [{"member": name, "phi_sum": v, "argmax": v == best, "expected": name == expected}
            for v, name in scored]
    witnesses = [] if expected_phi == best else [r for r in rows if r["argmax"]]
    candidates = prod(x.size for x in sylows) - 1
    notes = [f"cyclic group C{n} excluded from the comparison (phi-sum {cyclic[1]})"]
    if candidates > len(rows):
        notes.append(f"not listed: {candidates - len(rows)} with two or more non-cyclic Sylow "
                     "factors; phi-sum multiplies over Sylow factors and is largest at each "
                     "prime's cyclic factor, so each scores below a listed member")
    if n % 2 == 0:
        notes.append("even order is outside the claim's hypotheses; "
                     "rows are exploratory only")
    if n % 16 == 0:     # the catalog of order 2^a lists M(a,2) from a = 4 on
        notes.append(_M2_NOTE)
    headline = (f"max phi-sum among {candidates} catalogued non-cyclic nilpotent groups "
                f"of order {n} is {best}; {expected_display} "
                f"({expected}) gives {expected_phi}")
    return VerificationReport(
        claim="main-theorem",
        params={"n": n,
                "factorization": " * ".join(f"{p}^{a}" if a > 1 else str(p)
                                            for p, a in factors),
                "s_prime": p_s, "expected": expected,
                "expected_display": expected_display,
                "candidates": candidates},
        headline=headline, rows=rows, witnesses=witnesses,
        completeness=merge_completeness([x.completeness for x in sylows]),
        argmax=[r["member"] for r in rows if r["argmax"]], notes=notes, report_only=n % 2 == 0)


# ---------------------------------------------------------------------------
# Claims: the maximizers among non-cyclic p-groups
# ---------------------------------------------------------------------------

def _expected_p_group(p: int, n: int) -> list[GroupSpec]:
    """C_(p^(n-1)) x C_p, then M(n,p) for n >= 3; Q8 alone at order 8."""
    if (p, n) == (2, 3):
        return [GeneralizedQuaternion(8)]
    return [Abelian(p, (n - 1, 1))] + ([Modular(n, p)] if n >= 3 else [])


def _p_group_report(claim: str, what: str, p: int, n: int, census: Census | None,
                    score) -> VerificationReport:
    """Rank the non-cyclic catalog entries of order p^n by score, a p-group
    being the one-Sylow case of _rank; the argmax rows are the witnesses
    unless the argmax is the expected set."""
    sylow, noncyclic = _catalog_sylow(p, n, census)
    if not noncyclic:
        raise InvariantError("catalog has no non-cyclic entry")
    scored = sorted(((v, noncyclic[j])
                     for v, _, j in _rank(p ** n, sylow.cyclic[:2], [(0, sylow)], score)),
                    key=lambda t: (-t[0], t[1].render()))
    best = scored[0][0]
    argmax = [e.render() for v, e in scored if v == best]
    rows = [{
        "group": e.render(),
        "sigma": e.sigma,
        "phi_sum": e.phi,
        "edges": undirected_from_sums(e.sigma, e.phi, p ** n),
        "argmax": v == best,
        "source": e.source,
    } for v, e in scored]
    expected = {spec.render() for spec in _expected_p_group(p, n)}
    witnesses = [] if set(argmax) == expected else [r for r in rows if r["argmax"]]
    headline = (f"max {what} among non-cyclic groups of order {p}^{n} is {best}, "
                f"attained by {{{', '.join(argmax)}}}; "
                f"expected {{{', '.join(sorted(expected))}}}")
    return VerificationReport(
        claim=claim,
        params={"p": p, "n": n, "order": p ** n, "expected": sorted(expected),
                "candidates": len(rows)},
        headline=headline, rows=rows, witnesses=witnesses, completeness=sylow.completeness,
        argmax=argmax)


def verify_prop_2_2(p: int, n: int, census: Census | None = None) -> VerificationReport:
    """Check that the non-cyclic groups of order p^n (odd p) maximizing the
    phi-sum are exactly C_(p^(n-1)) x C_p and, for n >= 3, M(n,p).

    Also re-checks the p-group identity p*phi = (p-1)*sigma + 1 on every
    catalog entry.
    """
    if not is_prime(p) or p == 2:
        raise InputError(f"hypothesis violated: p = {p} must be an odd prime")
    if n < 2:
        raise InputError(f"exponent must be >= 2, got {n}")
    report = _p_group_report("prop-2.2", "phi-sum", p, n, census,
                             lambda sigma, phi, order: phi)
    identity_bad = [r["group"] for r in report.rows
                    if p * r["phi_sum"] != (p - 1) * r["sigma"] + 1]
    if identity_bad:
        report.notes.append(f"p-group identity p*phi = (p-1)*sigma + 1 failed for: "
                            f"{', '.join(identity_bad)}")
        report.witnesses = [r for r in report.rows if r["argmax"]]
    return report


def verify_prop_2_8(p: int, n: int, census: Census | None = None) -> VerificationReport:
    """Check the expected maximizers of the undirected edge count among
    non-cyclic groups of order p^n:

        odd p, n = 2: C_p x C_p
        odd p, n >= 3: C_(p^(n-1)) x C_p and M(n,p)
        p = 2, n = 3 (order 8): Q8
        p = 2, n != 3: C_(2^(n-1)) x C_2 (joined, for n >= 4, by the
            extension family M(n,2), which has the identical spectrum)
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if n < 2:
        raise InputError(f"exponent must be >= 2, got {n}")
    report = _p_group_report("prop-2.8", "undirected edge count", p, n, census,
                             undirected_from_sums)
    if p == 2 and n >= 4:
        report.notes.append(_M2_NOTE)
    return report


def verify_cor_2_3(p: int, n: int) -> VerificationReport:
    """Check that C_(p^(n-1)) x C_p and M(n,p) have equal mutual-edge counts
    (odd p, n >= 3). Their full order spectra coincide, which the report also
    records."""
    if not is_prime(p) or p == 2:
        raise InputError(f"hypothesis violated: p = {p} must be an odd prime")
    if n < 3:
        raise InputError(f"M(n,{p}) needs n >= 3, got n = {n}")
    ab_spec = Abelian(p, (n - 1, 1))
    mod_spec = Modular(n, p)
    s_ab = ab_spec.spectrum()
    s_mod = mod_spec.spectrum()
    rows = []
    for spec, s in ((ab_spec, s_ab), (mod_spec, s_mod)):
        st = stats_from_spectrum(spec.render(), s)
        rows.append({"group": st.name, "size": st.size, "phi_sum": st.phi_sum,
                     "mutual_edges": st.mutual_edges})
    ok = rows[0]["mutual_edges"] == rows[1]["mutual_edges"]
    notes = ["the two order spectra are identical" if s_ab == s_mod
             else "mutual counts compared despite differing spectra"]
    headline = (f"mutual-edge counts of {ab_spec.render()} and "
                f"{mod_spec.render()}: {rows[0]['mutual_edges']} vs "
                f"{rows[1]['mutual_edges']} ({'equal' if ok else 'DIFFER'})")
    return VerificationReport(
        claim="cor-2.3",
        params={"p": p, "n": n, "order": p ** n},
        headline=headline, rows=rows, witnesses=[] if ok else rows, notes=notes)


# ---------------------------------------------------------------------------
# Claims: recurrences, the sandwich inequality, and the ratio comparison
# ---------------------------------------------------------------------------

def _primes_up_to(limit: int) -> list[int]:
    if limit > SWEEP_PRIME_BOUND:
        raise ResourceError(f"a sweep over the primes up to {limit} is above the "
                            f"sweep prime bound {SWEEP_PRIME_BOUND}")
    return primes_up_to(limit)


def _check_rows(count: int, what: str) -> None:
    if count > SWEEP_ROW_BOUND:
        raise ResourceError(f"a sweep over {count} {what} is above the sweep row "
                            f"bound {SWEEP_ROW_BOUND}")


# The note of a sweep whose every row is informational: it checked nothing
# against the claim, so its verdict is report-only.
_NO_CONTRACTUAL_NOTE = ("no contractual point in range: every {} has p = 2, so "
                        "nothing was checked against the claim")


def _phi_grid(p_max: int, m_max: int) -> dict[tuple[int, int], tuple[int, int, int]]:
    """(p, m) -> (phi of C_(p^m), phi of C_(p^(m-1)) x C_p, phi of C_(p^(m-1)))
    for m >= 2, exact integers."""
    if p_max < 2 or m_max < 2:
        raise InputError("need p_max >= 2 and m_max >= 2")
    if m_max > SWEEP_EXPONENT_BOUND:
        raise ResourceError(f"a sweep over the exponents up to {m_max} is above the "
                            f"sweep exponent bound {SWEEP_EXPONENT_BOUND}")
    primes = _primes_up_to(p_max)
    _check_rows(len(primes) * (m_max - 1), "grid points")
    grid: dict[tuple[int, int], tuple[int, int, int]] = {}
    for p in primes:
        cyc = [spectrum_cyclic(p ** m) for m in range(m_max + 1)]
        phi = [phi_sum(s) for s in cyc]
        for m in range(2, m_max + 1):
            split = phi_sum(spectrum_product(cyc[m - 1], cyc[1]))
            grid[(p, m)] = (phi[m], split, phi[m - 1])
    return grid


def verify_lemma_2_4(p_max: int = DEFAULT_P_MAX, m_max: int = DEFAULT_M_MAX) -> VerificationReport:
    """Exact check of both phi recurrences and the closed form over the whole
    prime/exponent grid:

        phi(C_(p^m))          = phi(C_(p^(m-1))) + (p^(m-1)(p-1))^2
        phi(C_(p^(m-1)) x C_p) = p*phi(C_(p^(m-1))) + (p-1)(p-2)
        phi(C_(p^m))          = (p^(2m)(p-1) + 2) / (p+1)
    """
    rows = []
    bad = []
    for (p, m), (cur, split, prev) in sorted(_phi_grid(p_max, m_max).items()):
        rec_i = cur == prev + (p ** (m - 1) * (p - 1)) ** 2
        closed = cur == phi_cyclic_prime_power(p, m)
        rec_ii = split == p * prev + (p - 1) * (p - 2)
        row = {"p": p, "m": m, "phi_cyclic": cur, "phi_split": split,
               "recurrence_i": rec_i, "closed_form": closed,
               "recurrence_ii": rec_ii}
        rows.append(row)
        if not (rec_i and closed and rec_ii):
            bad.append(row)
    headline = (f"phi recurrences and closed form checked at "
                f"{len(rows)} grid points (primes <= {p_max}, exponents 2..{m_max}): "
                f"{'all hold' if not bad else f'{len(bad)} failures'}")
    return VerificationReport(
        claim="lemma-2.4",
        params={"p_max": p_max, "m_max": m_max, "grid_points": len(rows)},
        headline=headline, rows=rows, witnesses=bad)


def verify_lemma_2_5(p_max: int = DEFAULT_P_MAX, m_max: int = DEFAULT_M_MAX) -> VerificationReport:
    """Exact check of the strict sandwich

        (p-2) * phi(C_(p^(m-1)) x C_p) < phi(C_(p^m)) < p * phi(C_(p^(m-1)) x C_p)

    over the grid. The claim is stated for every prime; at p = 2 the left
    side degenerates to 0 < phi, so p = 2 rows are recorded as report-only
    context and the verdict is carried by the odd rows.
    """
    rows = []
    bad = []
    for (p, m), (cyc, split, _) in sorted(_phi_grid(p_max, m_max).items()):
        lower = (p - 2) * split < cyc
        upper = cyc < p * split
        contractual = p != 2
        row = {"p": p, "m": m, "phi_cyclic": cyc, "phi_split": split,
               "lower_holds": lower, "upper_holds": upper,
               "contractual": contractual}
        rows.append(row)
        if contractual and not (lower and upper):
            bad.append(row)
    p2 = [r for r in rows if r["p"] == 2]
    notes = []
    if p2:
        both = all(r["lower_holds"] and r["upper_holds"] for r in p2)
        notes.append(
            "p = 2 rows are informational (left side degenerates to 0 < phi); "
            + ("both strict inequalities still held at every p = 2 point"
               if both else "some p = 2 points failed a strict inequality"))
    unchecked = len(p2) == len(rows)
    if unchecked:
        notes.append(_NO_CONTRACTUAL_NOTE.format("grid point"))
    status = ("no contractual point in range" if unchecked
              else "all contractual points hold" if not bad else f"{len(bad)} failures")
    headline = f"sandwich inequality checked at {len(rows)} grid points: {status}"
    return VerificationReport(
        claim="lemma-2.5",
        params={"p_max": p_max, "m_max": m_max, "grid_points": len(rows)},
        headline=headline, rows=rows, witnesses=bad, notes=notes, report_only=unchecked)


def verify_cor_2_6(q_max: int = DEFAULT_P_MAX, t_max: int = DEFAULT_M_MAX) -> VerificationReport:
    """Exact cross-multiplied check of the ratio comparison

        phi(C_(p^m)) / phi(C_(p^(m-1)) x C_p)  <  phi(C_(q^t)) / phi(C_(q^(t-1)) x C_q)

    for odd primes p < q over all exponent pairs (m, t) in 2..t_max. Pairs
    with p = 2 sit outside the claim (its argument needs p <= q-2 for odd
    primes); they are evaluated and reported without a pass/fail contract.

    Each prime's largest and smallest ratio over its exponents are found
    first, by cross-multiplying (every phi is positive). A pair holds at
    every (m, t) exactly when p's largest ratio is below q's smallest, since
    the order on ratios is transitive; only a pair where that one comparison
    fails is walked point by point, for its count and its first violation.
    """
    if q_max < 3 or t_max < 2:
        raise InputError("need q_max >= 3 and t_max >= 2")
    primes = _primes_up_to(q_max)
    _check_rows(len(primes) * (len(primes) - 1) // 2, "prime pairs")
    grid = _phi_grid(q_max, t_max)
    exponents = range(2, t_max + 1)
    # (L, A) of each prime's largest and smallest ratio L/A
    top, bottom = {}, {}
    for p in primes:
        hi = lo = grid[(p, 2)][:2]
        for m in exponents:
            l, a, _ = grid[(p, m)]
            if l * hi[1] > hi[0] * a:
                hi = l, a
            if l * lo[1] < lo[0] * a:
                lo = l, a
        top[p], bottom[p] = hi, lo
    rows = []
    bad = []
    for p, q in itertools.combinations(primes, 2):
        contractual = p != 2
        violations = []
        (l_p, a_p), (l_q, a_q) = top[p], bottom[q]
        if not l_p * a_q < l_q * a_p:
            for m in exponents:
                l_p, a_p, _ = grid[(p, m)]
                for t in exponents:
                    l_q, a_q, _ = grid[(q, t)]
                    # strict ratio comparison without division: L_p/A_p < L_q/A_q
                    if not l_p * a_q < l_q * a_p:
                        violations.append((m, t))
        row = {"p": p, "q": q, "points": len(exponents) ** 2,
               "violations": len(violations), "holds": not violations,
               "contractual": contractual}
        rows.append(row)
        if contractual and violations:
            bad.append({**row, "first_violation": violations[0]})
    p2 = [r for r in rows if not r["contractual"]]
    notes = []
    if p2:
        clean = sum(1 for r in p2 if r["holds"])
        notes.append(f"pairs with p = 2 are informational: "
                     f"{clean}/{len(p2)} held anyway")
    unchecked = len(p2) == len(rows)
    if unchecked:
        notes.append(_NO_CONTRACTUAL_NOTE.format("prime pair"))
    status = ("no contractual pair in range" if unchecked
              else "all contractual pairs hold" if not bad else f"{len(bad)} failing pairs")
    headline = (f"ratio comparison checked for {len(rows)} prime pairs "
                f"(exponents 2..{t_max}): {status}")
    return VerificationReport(
        claim="cor-2.6",
        params={"q_max": q_max, "t_max": t_max, "pairs": len(rows)},
        headline=headline, rows=rows, witnesses=bad, notes=notes, report_only=unchecked)


# ---------------------------------------------------------------------------
# Claim: phi multiplicativity over coprime direct products
# ---------------------------------------------------------------------------

def verify_lemma_2_1(pairs: int = DEFAULT_PAIRS, max_order: int = DEFAULT_MAX_ORDER,
                     seed: int = DEFAULT_SEED) -> VerificationReport:
    """Randomized exact check that phi-sum is multiplicative over coprime
    direct products: pairs of p-group catalog entries with distinct primes
    are drawn with a fixed seed and checked via the lcm spectrum convolution.
    """
    if pairs < 1:
        raise InputError(f"need at least one pair, got {pairs}")
    if max_order < 4:
        raise InputError(f"max_order too small to form coprime pairs: {max_order}")
    _check_rows(pairs, "random pairs")
    pool: list[tuple[int, CatalogEntry]] = []
    for p in _primes_up_to(max_order):
        k = 1
        while p ** k <= max_order:
            entries, _ = p_group_catalog(p, k)
            pool.extend((p, e) for e in entries)
            k += 1
    rng = random.Random(seed)
    rows = []
    bad = []
    for _ in range(pairs):
        p1, e1 = rng.choice(pool)
        p2, e2 = rng.choice(pool)
        while p2 == p1:
            p2, e2 = rng.choice(pool)
        left, right = e1.phi, e2.phi
        combined = phi_sum(spectrum_product(e1.spectrum, e2.spectrum))
        row = {"left": e1.render(), "right": e2.render(),
               "phi_left": left, "phi_right": right,
               "phi_product": combined, "holds": combined == left * right}
        rows.append(row)
        if not row["holds"]:
            bad.append(row)
    headline = (f"phi multiplicativity held on {len(rows) - len(bad)}/{len(rows)} "
                f"random coprime pairs (seed {seed}, orders <= {max_order})")
    return VerificationReport(
        claim="lemma-2.1",
        params={"pairs": pairs, "max_order": max_order, "seed": seed,
                "pool_size": len(pool)},
        headline=headline, rows=rows, witnesses=bad)


# ---------------------------------------------------------------------------
# The claim table
# ---------------------------------------------------------------------------

# Each claim once: its harness and the settings it takes, in argument order.
CLAIMS = {
    "main-theorem": (verify_main_theorem, ("n", "census", "allow_even")),
    "prop-2.2": (verify_prop_2_2, ("p", "n", "census")),
    "cor-2.3": (verify_cor_2_3, ("p", "n")),
    "lemma-2.4": (verify_lemma_2_4, ("p_max", "m_max")),
    "lemma-2.5": (verify_lemma_2_5, ("p_max", "m_max")),
    "cor-2.6": (verify_cor_2_6, ("p_max", "m_max")),
    "prop-2.8": (verify_prop_2_8, ("p", "n", "census")),
    "lemma-2.1": (verify_lemma_2_1, ("pairs", "max_order", "seed")),
}


def verify(claim: str, *settings) -> VerificationReport:
    """Run one claim of CLAIMS on its settings, in the table's order: the CLI's
    one call into the claims, which pgxbench's tracer times as census.verify."""
    return CLAIMS[claim][0](*settings)


# ---------------------------------------------------------------------------
# Exploratory scan: does the same member maximize undirected edges?
# ---------------------------------------------------------------------------

# The columns of a scan row, in the order scan_rows gives them.
SCAN_COLUMNS = ("n", "candidates", "expected", "expected_edges", "max_edges", "margin",
                "supported", "argmax", "completeness")


def _scan_sylow(p: int, a: int) -> _ScanSylow:
    """The parametric catalog of odd order p^a reduced for the scan, in closed
    form, its candidates the non-cyclic entries of largest sigma:
    C_(p^(a-1)) x C_p and then M(a,p) for a >= 3. For odd p every other group
    of order p^a has sigma <= B, by the classification that scan_rows cites.
    C_(p^a) has sigma (p^(2a+1) + 1)/(p + 1). C_(p^(a-1)) x C_p has p
    copies of each element of order p^k >= p^2 of C_(p^(a-1)) and p^2 - 1 of
    order p, so its sigma is 1 + p(p-1) + p*(sigma(C_(p^(a-1))) - 1); M(a,p)
    shares its spectrum. Each phi is ((p-1)*sigma + 1)/p, as in every p-group.
    The size and completeness are the catalog's own, from
    parametric_catalog_size, which lists no group."""
    def sums(sigma: int, name: str) -> tuple[int, int, str]:
        return sigma, ((p - 1) * sigma + 1) // p, name

    candidates = []
    if a > 1:
        split = 1 + p * (p - 1) + p * ((p ** (2 * a - 1) + 1) // (p + 1) - 1)
        candidates = [sums(split, spec.render()) for spec in _expected_p_group(p, a)]
    return _ScanSylow(*parametric_catalog_size(p, a),
                      sums((p ** (2 * a + 1) + 1) // (p + 1), f"C{p ** a}"), candidates)


def _census_sylows(n_max: int, census: Census | None) -> dict[tuple[int, int], _ScanSylow]:
    """The Sylow data, keyed by (p, a), of each order p^a the scan reads whose
    census directory holds tables, as `Census.orders` lists them; built in
    the order the scan first reads them, p^a at n = p^a for a >= 2 and p at
    9p (75 for p = 3), so the first order that fails raises; each odd order
    is factored by `factor`. Each is its catalog, tables admitted, reduced
    by _catalog_sylow as the claims do."""
    if census is None:
        return {}
    first = {}      # the order that first reads (p, a)
    for q in census.orders():
        if not q % 2 or not 1 < q <= n_max:
            continue
        (p, a), *rest = factor(q)
        n = q if a > 1 else 75 if p == 3 else 9 * p
        if not rest and n <= n_max:
            first[n] = (p, a)
    return {(p, a): _catalog_sylow(p, a, census)[0] for p, a in map(first.get, sorted(first))}


def _scan_row(n: int, sieve: OddSieve, sylows: dict[tuple[int, int], _ScanSylow]) -> tuple:
    """The scan row of order n, in SCAN_COLUMNS order, from one pass over the
    prime factors p^a of n that the sieve's smallest-prime-factor table
    gives. Each factor's Sylow data is sylows[(p, a)], put there from
    _scan_sylow when missing and a >= 2. A prime factor with no census entry
    is C_p, taken inline: one group, complete, with sigma 1 + p(p-1), phi
    1 + (p-1)^2 and no candidates. The same pass finds s, the first factor
    with exponent >= 2; the factors before it have prime order and no
    candidates, so the expected member is ranked first. The runner-up is
    the second score in rank, so it equals the best when the best is tied."""
    spf = sieve.spf
    sigma = phi = size = 1
    names: list[str] = []
    scored: list[tuple[int, _ScanSylow]] = []       # (i, x) of each factor with candidates
    completeness = []
    x_s = None
    m = n
    while m > 1:
        p = spf[m >> 1] or m
        m //= p
        a = 1
        while m % p == 0:
            m //= p
            a += 1
        x = sylows.get((p, a))
        if x is None:
            if a == 1:
                sigma *= p * p - p + 1
                phi *= p * p - 2 * p + 2
                names.append(f"C{p}")
                continue
            x = sylows[p, a] = _scan_sylow(p, a)
        if x_s is None and a > 1:
            s, x_s = len(names), x
        if x.candidates:
            scored.append((len(names), x))
        sigma *= x.cyclic[0]
        phi *= x.cyclic[1]
        size *= x.size
        completeness.append(x.completeness)
        names.append(x.cyclic[2])
    ranked = _rank(n, (sigma, phi), scored, undirected_from_sums)
    expected_edges = best = runner_up = ranked[0][0]
    expected = _member_name(names, s, x_s.candidates[0][2])
    if len(ranked) > 1:
        ranked.sort(reverse=True)
        best, runner_up = ranked[0][0], ranked[1][0]
    top = [(i, j) for e, i, j in ranked if e == best]
    if len(top) == 1 and expected_edges == best:
        argmax = [expected]
    else:
        at = dict(scored)
        argmax = sorted(_member_name(names, i, at[i].candidates[j][2]) for i, j in top)
    # a rendered name has whitespace only around join_names' " x ", so " | " splits the column
    return (n, size - 1, expected, expected_edges, best, best - runner_up,
            expected_edges == best, " | ".join(argmax), merge_completeness(completeness).value)


def scan_rows(n_max: int, census: Census | None = None) -> Iterator[tuple]:
    """The conjecture-2.9 scan's rows, as tuples in SCAN_COLUMNS order: for
    every odd non-square-free n <= n_max, the undirected edge count of
    C_(n/p_s) x C_(p_s) against all non-cyclic nilpotent groups of order n.

    Every census table the scan reads is admitted, and every error raised,
    before this returns; the rows are then made one at a time as they are
    read, so a caller that writes each one out holds none of them. Each
    other (p, a) with a >= 2 comes from _scan_sylow when first read, and is
    kept; C_p is made inline in each row that reads it, and not kept.

    Two reductions make a row exact from at most two entries per prime:
    - Only the members with one non-cyclic Sylow factor are scored. In a
      p-group p*phi = (p-1)*sigma + 1, and phi <= sigma in every group, so
      making a non-cyclic factor at p cyclic raises the edge count by
      (sigma_c - sigma_i) * (sigma_rest - (p-1)/(2p) * phi_rest) > 0. Each
      member with two or more non-cyclic factors thus scores below two
      distinct such members, and the argmax and the runner-up are among them.
    - At odd p a non-cyclic group of order p^a with an element of order
      p^(a-1) has a cyclic maximal subgroup, so it is C_(p^(a-1)) x C_p or
      M(a,p), which share a spectrum (Burnside 1911, sections 103-107;
      Huppert, Endliche Gruppen I, Satz I.14.9). Any other has exponent at
      most p^(a-2), so its sigma is at most B = 1 + (p^a - 1) * p^(a-2),
      below the 1 + (p-1) * p^(2a-2) that C_(p^(a-1)) x C_p has from its
      elements of order p^(a-1). By the same identity the edge count of a
      member with its non-cyclic factor at p is sigma_i * (sigma_rest -
      (p-1)/(2p) * phi_rest) minus a constant, so it rises strictly with
      sigma_i. These two entries at each prime hold the argmax and the
      runner-up, which equals the best when the best is tied. A census
      order ranks its whole catalog, whose tables have sigma <= B too.
    """
    if n_max < 9:
        raise InputError(f"n_max must be >= 9 (smallest odd non-square-free), got {n_max}")
    if n_max > SCAN_BOUND:
        raise ResourceError(f"a scan of the orders up to {n_max} is above the scan bound "
                            f"{SCAN_BOUND}")
    sieve = OddSieve(n_max)
    sylows = _census_sylows(n_max, census)

    return (_scan_row(n, sieve, sylows) for n in sieve.not_square_free())


def scan_conjecture_2_9(n_max: int, census: Census | None = None) -> VerificationReport:
    """The rows of scan_rows as a report, each row a dict keyed by
    SCAN_COLUMNS. Exploratory output only: the report never fails."""
    rows = [dict(zip(SCAN_COLUMNS, row)) for row in scan_rows(n_max, census)]
    unsupported = [r["n"] for r in rows if not r["supported"]]
    supported = len(rows) - len(unsupported)
    notes = ["exploratory scan: rows carry no pass/fail contract"]
    incomplete = sum(1 for r in rows if r["completeness"] == Completeness.INCOMPLETE.value)
    if incomplete:
        notes.append(f"{incomplete} rows ran on incomplete catalogs "
                     "(some prime appears with exponent >= 4 and no census was ingested)")
    if unsupported:
        notes.append(f"orders where another group matched or beat the expected "
                     f"member: {unsupported}")
    headline = (f"scanned {len(rows)} odd non-square-free orders <= {n_max}: "
                f"expected member maximal in {supported}/{len(rows)}")
    return VerificationReport(
        claim="conjecture-2.9",
        params={"n_max": n_max, "orders_scanned": len(rows)},
        headline=headline, rows=rows,
        completeness=Completeness.COMPLETE if not incomplete else Completeness.INCOMPLETE,
        notes=notes, report_only=True)
