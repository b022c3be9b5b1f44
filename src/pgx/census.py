"""Nilpotent-group enumeration by Sylow catalogs and the verification harnesses.

A nilpotent group is the direct product of its Sylow subgroups, so every
candidate of order n is a choice of one catalog entry per prime power in n.
Only spectra are composed here; concrete tables are never required, which
keeps formula-side verification cheap at large orders.

Verdict contract: verified (exit 0), verified-on-incomplete-catalog (exit 2),
counterexample (exit 1), report-only (exit 0, exploratory output with no
pass/fail meaning).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from pathlib import Path

from .constructors import (
    Abelian,
    CatalogEntry,
    Completeness,
    Cyclic,
    GeneralizedQuaternion,
    GroupSpec,
    Modular,
    Product,
    merge_completeness,
    p_group_catalog,
    render_spec,
    spectrum_of_spec,
)
from .errors import InputError, InvariantError
from .groups import DEFAULT_SEED
from .spectrum import (
    OrderSpectrum,
    factor,
    is_prime,
    mutual_edges,
    phi_cyclic_prime_power,
    phi_sum,
    order_sum,
    spectrum_cyclic,
    spectrum_product,
    stats_from_spectrum,
    totient,
    undirected_edges,
)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """n = prod p_i^a_i with strictly increasing primes.

    s_index is the 1-based position of the smallest prime whose exponent
    exceeds 1, or None when n is square-free.
    """

    n: int
    factors: tuple[tuple[int, int], ...]
    s_index: int | None

    @property
    def is_square_free(self) -> bool:
        return self.s_index is None

    @property
    def s_prime(self) -> int | None:
        return None if self.s_index is None else self.factors[self.s_index - 1][0]

    def render(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{a}" if a > 1 else str(p) for p, a in self.factors)


def factorize(n: int) -> Factorization:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"factorize needs a positive integer, got {n!r}")
    factors = factor(n)
    s_index = next((i + 1 for i, (_, a) in enumerate(factors) if a > 1), None)
    return Factorization(n, tuple(factors), s_index)


# ---------------------------------------------------------------------------
# Nilpotent enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusMember:
    """One nilpotent group of order n: a Sylow catalog entry per prime."""

    sylow_specs: tuple[GroupSpec, ...]
    spectrum: OrderSpectrum
    sources: tuple[str, ...]

    @property
    def spec(self) -> GroupSpec:
        return reduce(Product, self.sylow_specs) if len(self.sylow_specs) > 1 \
            else self.sylow_specs[0]

    @property
    def is_cyclic(self) -> bool:
        return all(isinstance(s, Cyclic) for s in self.sylow_specs)

    def render(self) -> str:
        return render_spec(self.spec)


def enumerate_nilpotent(n: int, census_dir: str | Path | None = None
                        ) -> tuple[list[CensusMember], Completeness]:
    """All known nilpotent groups of order n as composed Sylow spectra."""
    if n < 2:
        raise InputError(f"enumerate_nilpotent needs n >= 2, got {n}")
    f = factorize(n)
    catalogs: list[list[CatalogEntry]] = []
    flags: list[Completeness] = []
    for p, a in f.factors:
        entries, comp = p_group_catalog(p, a, census_dir)
        catalogs.append(entries)
        flags.append(comp)
    members: list[CensusMember] = []
    for combo in itertools.product(*catalogs):
        spectrum = reduce(spectrum_product, (e.spectrum for e in combo))
        members.append(CensusMember(tuple(e.spec for e in combo), spectrum,
                                    tuple(e.source for e in combo)))
    return members, merge_completeness(flags)


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
    claim: str
    params: dict
    completeness: Completeness
    verdict: Verdict
    headline: str
    rows: list[dict] = field(default_factory=list)
    argmax: list[str] = field(default_factory=list)
    witnesses: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.verdict is Verdict.COUNTEREXAMPLE and not self.witnesses:
            raise InvariantError(
                f"{self.claim}: counterexample verdict requires a witness")

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


def _verdict_for(ok: bool, completeness: Completeness) -> Verdict:
    if not ok:
        return Verdict.COUNTEREXAMPLE
    if completeness is Completeness.INCOMPLETE:
        return Verdict.VERIFIED_INCOMPLETE
    return Verdict.VERIFIED


def _argmax(candidates: list, score) -> tuple[list, int, list[str]]:
    """Score each candidate's spectrum and sort by (-score, render()).

    Returns the (score, candidate) list, the best score, and the rendered
    candidates attaining it, in that order.
    """
    scored = sorted(((score(c.spectrum), c) for c in candidates),
                    key=lambda t: (-t[0], t[1].render()))
    best = scored[0][0]
    return scored, best, [c.render() for v, c in scored if v == best]


_M2_NOTE = ("the modular 2-group family M(n,2) is an extension beyond the "
            "source claim; it shares its order spectrum with C_(2^(n-1))xC2, "
            "so both sit in the expected maximizer set")


# ---------------------------------------------------------------------------
# Claim: maximum phi-sum among non-cyclic nilpotent groups of odd order
# ---------------------------------------------------------------------------

def _expected_sylows(f: Factorization) -> tuple[GroupSpec, ...]:
    """Sylow specs of C_(n/p_s) x C_(p_s): split one p_s off the s-th factor."""
    s_pos = f.s_index - 1
    out: list[GroupSpec] = []
    for i, (p, a) in enumerate(f.factors):
        out.append(Abelian(p, (a - 1, 1)) if i == s_pos else Cyclic(p ** a))
    return tuple(out)


def verify_main_theorem(n: int, census_dir: str | Path | None = None,
                        allow_even: bool = False) -> VerificationReport:
    """Check that C_(n/p_s) x C_(p_s) attains the maximum phi-sum among
    non-cyclic nilpotent groups of order n (n odd, not square-free).

    With allow_even the same computation runs on even n but the result is
    report-only: the claim's hypotheses exclude even orders.
    """
    if n < 2:
        raise InputError(f"order must be >= 2, got {n}")
    f = factorize(n)
    if f.is_square_free:
        raise InputError(
            f"hypothesis violated: n = {n} is square-free, so every nilpotent "
            f"group of order {n} is cyclic and there is nothing to maximize")
    if n % 2 == 0 and not allow_even:
        raise InputError(
            f"hypothesis violated: n = {n} is even (pass allow_even to explore anyway)")
    members, completeness = enumerate_nilpotent(n, census_dir)
    expected_sylows = _expected_sylows(f)
    expected = next((m for m in members if m.sylow_specs == expected_sylows), None)
    if expected is None:
        raise InvariantError(
            f"expected maximizer {render_spec(reduce(Product, expected_sylows))} "
            f"missing from the order-{n} enumeration")
    p_s = f.s_prime
    expected_display = f"C{n // p_s}xC{p_s}"
    noncyclic = [m for m in members if not m.is_cyclic]
    scored, best, argmax = _argmax(noncyclic, phi_sum)
    expected_phi = phi_sum(expected.spectrum)
    ok = expected_phi == best
    rows = [{
        "member": m.render(),
        "phi_sum": v,
        "argmax": v == best,
        "expected": m is expected,
    } for v, m in scored]
    witnesses = [] if ok else [r for r in rows if r["argmax"]]
    verdict = Verdict.REPORT_ONLY if n % 2 == 0 else _verdict_for(ok, completeness)
    cyclic_phi = phi_sum(next(m.spectrum for m in members if m.is_cyclic))
    notes = [f"cyclic group C{n} excluded from the comparison (phi-sum {cyclic_phi})"]
    if n % 2 == 0:
        notes.append("even order is outside the claim's hypotheses; "
                     "rows are exploratory only")
    if any(isinstance(s, Modular) and s.p == 2 for m in members
           for s in m.sylow_specs):
        notes.append(_M2_NOTE)
    headline = (f"max phi-sum among {len(noncyclic)} non-cyclic nilpotent groups "
                f"of order {n} is {best}; {expected_display} "
                f"({expected.render()}) gives {expected_phi}")
    return VerificationReport(
        claim="main-theorem",
        params={"n": n, "factorization": f.render(), "s_prime": p_s,
                "expected": expected.render(), "expected_display": expected_display,
                "candidates": len(noncyclic)},
        completeness=completeness, verdict=verdict, headline=headline,
        rows=rows, argmax=argmax, witnesses=witnesses, notes=notes)


# ---------------------------------------------------------------------------
# Claim: maximum phi-sum among non-cyclic p-groups (odd p)
# ---------------------------------------------------------------------------

def _p_group_rows(entries: list[CatalogEntry], score) -> tuple[list[dict], int, list[str]]:
    noncyclic = [e for e in entries if not isinstance(e.spec, Cyclic)]
    if not noncyclic:
        raise InvariantError("catalog has no non-cyclic entry")
    scored, best, argmax = _argmax(noncyclic, score)
    rows = []
    for v, e in scored:
        s = e.spectrum
        sig, phi = order_sum(s), phi_sum(s)
        rows.append({
            "group": e.render(),
            "sigma": sig,
            "phi_sum": phi,
            "edges": undirected_edges(s),
            "argmax": v == best,
            "source": e.source,
        })
    return rows, best, argmax


def verify_prop_2_2(p: int, n: int,
                    census_dir: str | Path | None = None) -> VerificationReport:
    """Check that the non-cyclic groups of order p^n (odd p) maximizing the
    phi-sum are exactly C_(p^(n-1)) x C_p and, for n >= 3, M(n,p).

    Also re-checks the p-group identity p*phi = (p-1)*sigma + 1 on every
    catalog entry.
    """
    if not is_prime(p) or p == 2:
        raise InputError(f"hypothesis violated: p = {p} must be an odd prime")
    if n < 2:
        raise InputError(f"exponent must be >= 2, got {n}")
    entries, completeness = p_group_catalog(p, n, census_dir)
    rows, best, argmax = _p_group_rows(entries, phi_sum)
    identity_bad = [r["group"] for r in rows
                    if p * r["phi_sum"] != (p - 1) * r["sigma"] + 1]
    expected = {render_spec(Abelian(p, (n - 1, 1)))}
    if n >= 3:
        expected.add(render_spec(Modular(n, p)))
    ok = set(argmax) == expected and not identity_bad
    witnesses = [] if ok else [r for r in rows if r["argmax"]] or rows[:1]
    verdict = _verdict_for(ok, completeness)
    notes = []
    if identity_bad:
        notes.append(f"p-group identity p*phi = (p-1)*sigma + 1 failed for: "
                     f"{', '.join(identity_bad)}")
    headline = (f"max phi-sum among non-cyclic groups of order {p}^{n} is {best}, "
                f"attained by {{{', '.join(argmax)}}}; expected "
                f"{{{', '.join(sorted(expected))}}}")
    return VerificationReport(
        claim="prop-2.2",
        params={"p": p, "n": n, "order": p ** n,
                "expected": sorted(expected), "candidates": len(rows)},
        completeness=completeness, verdict=verdict, headline=headline,
        rows=rows, argmax=argmax, witnesses=witnesses, notes=notes)


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
    s_ab = spectrum_of_spec(ab_spec)
    s_mod = spectrum_of_spec(mod_spec)
    rows = []
    for spec, s in ((ab_spec, s_ab), (mod_spec, s_mod)):
        st = stats_from_spectrum(render_spec(spec), s)
        rows.append({"group": st.name, "size": st.size, "phi_sum": st.phi_sum,
                     "mutual_edges": st.mutual_edges})
    ok = mutual_edges(s_ab) == mutual_edges(s_mod)
    spectra_equal = s_ab == s_mod
    notes = ["the two order spectra are identical" if spectra_equal
             else "mutual counts compared despite differing spectra"]
    verdict = _verdict_for(ok, Completeness.COMPLETE)
    headline = (f"mutual-edge counts of {render_spec(ab_spec)} and "
                f"{render_spec(mod_spec)}: {rows[0]['mutual_edges']} vs "
                f"{rows[1]['mutual_edges']} ({'equal' if ok else 'DIFFER'})")
    return VerificationReport(
        claim="cor-2.3",
        params={"p": p, "n": n, "order": p ** n},
        completeness=Completeness.COMPLETE, verdict=verdict, headline=headline,
        rows=rows, argmax=[], witnesses=[] if ok else rows, notes=notes)


# ---------------------------------------------------------------------------
# Claims: recurrences, the sandwich inequality, and the ratio comparison
# ---------------------------------------------------------------------------

def _primes_up_to(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime(p)]


def _phi_grid(p_max: int, m_max: int) -> dict[tuple[int, int], tuple[int, int, int]]:
    """(p, m) -> (phi of C_(p^m), phi of C_(p^(m-1)) x C_p, phi of C_(p^(m-1)))
    for m >= 2, exact integers."""
    grid: dict[tuple[int, int], tuple[int, int, int]] = {}
    for p in _primes_up_to(p_max):
        cyc: dict[int, int] = {}
        for m in range(1, m_max + 1):
            cyc[m] = phi_sum(spectrum_cyclic(p ** m))
        for m in range(2, m_max + 1):
            split = phi_sum(spectrum_product(spectrum_cyclic(p ** (m - 1)),
                                             spectrum_cyclic(p)))
            grid[(p, m)] = (cyc[m], split, cyc[m - 1])
    return grid


def verify_lemma_2_4(p_max: int = 97, m_max: int = 12) -> VerificationReport:
    """Exact check of both phi recurrences and the closed form over the whole
    prime/exponent grid:

        phi(C_(p^m))          = phi(C_(p^(m-1))) + totient(p^m)^2
        phi(C_(p^(m-1)) x C_p) = p*phi(C_(p^(m-1))) + (p-1)(p-2)
        phi(C_(p^m))          = (p^(2m)(p-1) + 2) / (p+1)
    """
    if p_max < 2 or m_max < 2:
        raise InputError("need p_max >= 2 and m_max >= 2")
    rows = []
    bad = []
    for (p, m), (cur, split, prev) in sorted(_phi_grid(p_max, m_max).items()):
        rec_i = cur == prev + totient(p ** m) ** 2
        closed = cur == phi_cyclic_prime_power(p, m)
        rec_ii = split == p * prev + (p - 1) * (p - 2)
        row = {"p": p, "m": m, "phi_cyclic": cur, "phi_split": split,
               "recurrence_i": rec_i, "closed_form": closed,
               "recurrence_ii": rec_ii}
        rows.append(row)
        if not (rec_i and closed and rec_ii):
            bad.append(row)
    ok = not bad
    headline = (f"phi recurrences and closed form checked at "
                f"{len(rows)} grid points (primes <= {p_max}, exponents 2..{m_max}): "
                f"{'all hold' if ok else f'{len(bad)} failures'}")
    return VerificationReport(
        claim="lemma-2.4",
        params={"p_max": p_max, "m_max": m_max, "grid_points": len(rows)},
        completeness=Completeness.COMPLETE, verdict=_verdict_for(ok, Completeness.COMPLETE),
        headline=headline, rows=rows, argmax=[], witnesses=bad, notes=[])


def verify_lemma_2_5(p_max: int = 97, m_max: int = 12) -> VerificationReport:
    """Exact check of the strict sandwich

        (p-2) * phi(C_(p^(m-1)) x C_p) < phi(C_(p^m)) < p * phi(C_(p^(m-1)) x C_p)

    over the grid. The claim is stated for every prime; at p = 2 the left
    side degenerates to 0 < phi, so p = 2 rows are recorded as report-only
    context and the verdict is carried by the odd rows.
    """
    if p_max < 2 or m_max < 2:
        raise InputError("need p_max >= 2 and m_max >= 2")
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
    ok = not bad
    p2 = [r for r in rows if r["p"] == 2]
    notes = []
    if p2:
        both = all(r["lower_holds"] and r["upper_holds"] for r in p2)
        notes.append(
            "p = 2 rows are informational (left side degenerates to 0 < phi); "
            + ("both strict inequalities still held at every p = 2 point"
               if both else "some p = 2 points failed a strict inequality"))
    headline = (f"sandwich inequality checked at {len(rows)} grid points: "
                f"{'all contractual points hold' if ok else f'{len(bad)} failures'}")
    return VerificationReport(
        claim="lemma-2.5",
        params={"p_max": p_max, "m_max": m_max, "grid_points": len(rows)},
        completeness=Completeness.COMPLETE, verdict=_verdict_for(ok, Completeness.COMPLETE),
        headline=headline, rows=rows, argmax=[], witnesses=bad, notes=notes)


def verify_cor_2_6(q_max: int = 97, t_max: int = 12) -> VerificationReport:
    """Exact cross-multiplied check of the ratio comparison

        phi(C_(p^m)) / phi(C_(p^(m-1)) x C_p)  <  phi(C_(q^t)) / phi(C_(q^(t-1)) x C_q)

    for odd primes p < q over all exponent pairs (m, t) in 2..t_max. Pairs
    with p = 2 sit outside the claim (its argument needs p <= q-2 for odd
    primes); they are evaluated and reported without a pass/fail contract.
    """
    if q_max < 3 or t_max < 2:
        raise InputError("need q_max >= 3 and t_max >= 2")
    grid = _phi_grid(q_max, t_max)
    primes = _primes_up_to(q_max)
    exponents = range(2, t_max + 1)
    rows = []
    bad = []
    for p, q in itertools.combinations(primes, 2):
        contractual = p != 2
        violations = []
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
    ok = not bad
    p2 = [r for r in rows if not r["contractual"]]
    notes = []
    if p2:
        clean = sum(1 for r in p2 if r["holds"])
        notes.append(f"pairs with p = 2 are informational: "
                     f"{clean}/{len(p2)} held anyway")
    headline = (f"ratio comparison checked for {len(rows)} prime pairs "
                f"(exponents 2..{t_max}): "
                f"{'all contractual pairs hold' if ok else f'{len(bad)} failing pairs'}")
    return VerificationReport(
        claim="cor-2.6",
        params={"q_max": q_max, "t_max": t_max, "pairs": len(rows)},
        completeness=Completeness.COMPLETE, verdict=_verdict_for(ok, Completeness.COMPLETE),
        headline=headline, rows=rows, argmax=[], witnesses=bad, notes=notes)


# ---------------------------------------------------------------------------
# Claim: maximum undirected edge count among non-cyclic p-groups
# ---------------------------------------------------------------------------

def verify_prop_2_8(p: int, n: int,
                    census_dir: str | Path | None = None) -> VerificationReport:
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
    entries, completeness = p_group_catalog(p, n, census_dir)
    rows, best, argmax = _p_group_rows(entries, undirected_edges)
    notes = []
    if p == 2 and n == 3:
        expected = {render_spec(GeneralizedQuaternion(8))}
    else:
        expected = {render_spec(Abelian(p, (n - 1, 1)))}
        if n >= 3:
            expected.add(render_spec(Modular(n, p)))
        if p == 2 and n >= 4:
            notes.append(_M2_NOTE)
    ok = set(argmax) == expected
    witnesses = [] if ok else [r for r in rows if r["argmax"]]
    verdict = _verdict_for(ok, completeness)
    headline = (f"max undirected edge count among non-cyclic groups of order "
                f"{p}^{n} is {best}, attained by {{{', '.join(argmax)}}}; "
                f"expected {{{', '.join(sorted(expected))}}}")
    return VerificationReport(
        claim="prop-2.8",
        params={"p": p, "n": n, "order": p ** n,
                "expected": sorted(expected), "candidates": len(rows)},
        completeness=completeness, verdict=verdict, headline=headline,
        rows=rows, argmax=argmax, witnesses=witnesses, notes=notes)


# ---------------------------------------------------------------------------
# Claim: phi multiplicativity over coprime direct products
# ---------------------------------------------------------------------------

def verify_lemma_2_1(pairs: int = 200, max_order: int = 200,
                     seed: int = DEFAULT_SEED) -> VerificationReport:
    """Randomized exact check that phi-sum is multiplicative over coprime
    direct products: pairs of p-group catalog entries with distinct primes
    are drawn with a fixed seed and checked via the lcm spectrum convolution.
    """
    if pairs < 1:
        raise InputError(f"need at least one pair, got {pairs}")
    if max_order < 4:
        raise InputError(f"max_order too small to form coprime pairs: {max_order}")
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
        left = phi_sum(e1.spectrum)
        right = phi_sum(e2.spectrum)
        combined = phi_sum(spectrum_product(e1.spectrum, e2.spectrum))
        row = {"left": e1.render(), "right": e2.render(),
               "phi_left": left, "phi_right": right,
               "phi_product": combined, "holds": combined == left * right}
        rows.append(row)
        if not row["holds"]:
            bad.append(row)
    ok = not bad
    headline = (f"phi multiplicativity held on {len(rows) - len(bad)}/{len(rows)} "
                f"random coprime pairs (seed {seed}, orders <= {max_order})")
    return VerificationReport(
        claim="lemma-2.1",
        params={"pairs": pairs, "max_order": max_order, "seed": seed,
                "pool_size": len(pool)},
        completeness=Completeness.COMPLETE, verdict=_verdict_for(ok, Completeness.COMPLETE),
        headline=headline, rows=rows, argmax=[], witnesses=bad, notes=[])


# ---------------------------------------------------------------------------
# Exploratory scan: does the same member maximize undirected edges?
# ---------------------------------------------------------------------------

def scan_conjecture_2_9(n_max: int, census_dir: str | Path | None = None
                        ) -> VerificationReport:
    """For every odd non-square-free n <= n_max, compare the undirected edge
    count of C_(n/p_s) x C_(p_s) against all non-cyclic nilpotent groups of
    order n. Exploratory output only: the report never fails."""
    if n_max < 9:
        raise InputError(f"n_max must be >= 9 (smallest odd non-square-free), got {n_max}")
    rows = []
    supported = 0
    unsupported = []
    for n in range(9, n_max + 1, 2):
        f = factorize(n)
        if f.is_square_free:
            continue
        members, completeness = enumerate_nilpotent(n, census_dir)
        expected_sylows = _expected_sylows(f)
        expected = next(m for m in members if m.sylow_specs == expected_sylows)
        noncyclic = [m for m in members if not m.is_cyclic]
        scored, best, argmax = _argmax(noncyclic, undirected_edges)
        expected_edges = undirected_edges(expected.spectrum)
        holds = expected_edges == best
        if holds:
            supported += 1
        else:
            unsupported.append(n)
        rows.append({
            "n": n,
            "candidates": len(noncyclic),
            "expected": expected.render(),
            "expected_edges": expected_edges,
            "max_edges": best,
            "margin": best - (scored[1][0] if len(scored) > 1 else best),
            "supported": holds,
            "argmax": ";".join(argmax),
            "completeness": completeness.value,
        })
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
        completeness=Completeness.COMPLETE if not incomplete else Completeness.INCOMPLETE,
        verdict=Verdict.REPORT_ONLY, headline=headline,
        rows=rows, argmax=[], witnesses=[], notes=notes)
