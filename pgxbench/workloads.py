"""Seeded operation lists for the three workloads.

A workload is a round of CLI operations, built from the seed alone. The run
repeats the round until its time is up. Sizes are laid out evenly on a log
scale with seeded jitter, and a round is executed in bit-reversal order of
its size ranking, so any prefix of it samples small and large inputs alike.

An operation's argv may hold three placeholders, filled in by the worker:
{census} is the checkout's shipped census directory, {gen} the directory the
io workload generates, and {out} the file a graph operation writes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import model
from model import Spec

WORKLOADS = ("audit", "formula", "io")
CAP = 4096               # pgx's default brute-force cap; no op overrides it


@dataclass(frozen=True)
class Op:
    kind: str                        # stats spectrum verify scan graph ingest
    argv: tuple[str, ...]
    size: float                      # ranks ops for interleaving only
    spec: Spec | None = None         # stats, spectrum, graph
    expect: dict = field(default_factory=dict, hash=False, compare=False)


def log_targets(rng: random.Random, lo: float, hi: float, k: int,
                jitter: float = 0.03) -> list[int]:
    """k sizes evenly spaced in log between lo and hi; the endpoints are exact
    and interior points move by up to +-jitter (relative)."""
    if k == 1:
        return [int(hi)]
    out = []
    for i in range(k):
        t = lo * (hi / lo) ** (i / (k - 1))
        if 0 < i < k - 1:
            t *= math.exp(rng.uniform(-jitter, jitter))
        out.append(int(round(min(max(t, lo), hi))))
    return out


def bit_reversal(n: int) -> list[int]:
    """0..n-1 in bit-reversed order: every prefix spreads over the range."""
    bits = max(1, (n - 1).bit_length())
    rev = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [r for r in rev if r < n]


def interleave(ops: list[Op]) -> list[Op]:
    ranked = sorted(ops, key=lambda o: (o.size, o.argv))
    return [ranked[i] for i in bit_reversal(len(ranked))]


# ---------------------------------------------------------------------------
# Spec families of the Tier-1 inventory
# ---------------------------------------------------------------------------

def odd_nilpotent(target: int, j: int, hi: int = CAP) -> Spec:
    """A non-cyclic nilpotent group of odd order near target, at most hi,
    whose prime exponents are all at most 3 (a member of a Tier-1 census
    order). j picks the Sylow catalog entries, so that cycling j spreads
    the picks evenly over the catalogs."""
    for delta in range(0, hi):
        for n in (target - delta, target + delta):
            if n < 9 or n > hi or n % 2 == 0:
                continue
            f = sorted(model.small_factor(n).items())
            if max(a for _, a in f) not in (2, 3):
                continue
            picks = [model.sylow_choices(p, a) for p, a in f]
            picks = [c[(j + i) % len(c)] for i, c in enumerate(picks)]
            if all(s.text.startswith("C") for s in picks):
                i = next(i for i, (_, a) in enumerate(f) if a > 1)
                choices = model.sylow_choices(*f[i])[1:]
                picks[i] = choices[j % len(choices)]
            return model.product(*picks) if len(picks) > 1 else picks[0]
    raise ValueError(f"no odd non-square-free order near {target}")


def two_power_family(lo: int, hi: int) -> list[Spec]:
    out = []
    k = 3
    while 2 ** k <= hi:
        n = 2 ** k
        if n >= lo:
            out.append(model.quaternion(n))
            if n >= 16:
                out += [model.semidihedral(n), model.modular(k, 2)]
        k += 1
    return out


def odd_p_families(lo: int, hi: int) -> list[Spec]:
    out = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if lo <= p ** 3 <= hi:
            out += [model.heisenberg(p), model.abelian(p, (2, 1)),
                    model.abelian(p, (1, 1, 1))]
        n = 3
        while p ** n <= hi:
            if p ** n >= lo:
                out.append(model.modular(n, p))
            n += 1
    return out


def even_dihedral(t: int) -> Spec:
    return model.dihedral(max(8, t - t % 2))


# ---------------------------------------------------------------------------
# audit: stats under the cap, so the brute-force oracle runs on every op
# ---------------------------------------------------------------------------

def audit_round(rng: random.Random, tiny: bool = False) -> list[Op]:
    hi, k = (256, 8) if tiny else (CAP, 1)
    specs = [model.cyclic(m) for m in log_targets(rng, 8, hi, 36 // k)]
    specs += [even_dihedral(m) for m in log_targets(rng, 8, hi // 2, 36 // k)]
    nil = log_targets(rng, 9, hi // 2, 36 // k)     # products stay off the top
    specs += [odd_nilpotent(t, j, hi) for j, t in enumerate(nil)]
    # Only the cyclic group reaches the top: at order 4096 a dihedral or
    # 2-group op costs a tenth of the round, and the run length is fixed.
    specs += two_power_family(8, hi // 2) + odd_p_families(8, hi)
    specs += [model.abelian(2, (2, 1)), model.abelian(2, (1, 1, 1))]
    unique = {s.text: s for s in specs}.values()
    return interleave([Op("stats", ("stats", s.text, "--census-dir", "{census}"),
                          s.order, s) for s in unique])


# ---------------------------------------------------------------------------
# formula: closed forms, catalogs and factoring; no table is built
# ---------------------------------------------------------------------------

# Small structured cofactors of the large formula specs.
SMALL_FACTORS = (
    model.cyclic(3), model.cyclic(27), model.abelian(3, (2, 1)), model.modular(4, 3),
    model.heisenberg(5), model.dihedral(10), model.quaternion(16), model.semidihedral(32),
    model.product(model.cyclic(9), model.abelian(5, (1, 1))), model.cyclic(4),
    model.abelian(2, (1, 1)), model.cyclic(105),
)


def big_spec(prime_target: int, j: int) -> Spec:
    """C_P x (a small structured group), P a prime near prime_target.

    P stays at or below ~1e12, where pgx's trial division finishes in well
    under a second; a prime square near 1e18 would hang it (a known defect)."""
    p = model.next_prime(prime_target)
    return model.product(model.cyclic(p, {p: 1}), SMALL_FACTORS[j % len(SMALL_FACTORS)])


def odd_non_square_free_near(t: int) -> int:
    for delta in range(t):
        for n in (t + delta, t - delta):
            if n >= 9 and n % 2 and max(model.small_factor(n).values()) > 1:
                return n
    raise ValueError(t)


ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def formula_round(rng: random.Random, tiny: bool = False) -> list[Op]:
    k = 8 if tiny else 1
    census = ("--census-dir", "{census}")
    ops: list[Op] = []
    for n in log_targets(rng, 9, 10 ** (4 if tiny else 6), 54 // k, 0.05):
        n = odd_non_square_free_near(n)
        ops.append(Op("verify", ("verify", "main-theorem", "--n", str(n)) + census, n))
    for claim, primes, lo, hi in (("prop-2.2", ODD_PRIMES, 2, 8),
                                  ("prop-2.8", (2,) + ODD_PRIMES, 2, 8),
                                  ("cor-2.3", ODD_PRIMES, 3, 12)):
        for i in range(14 // k):
            p, n = rng.choice(primes), lo + i % (hi - lo + 1)
            ops.append(Op("verify", ("verify", claim, "--p", str(p), "--n", str(n)) + census,
                          p ** n))
    if not tiny:
        for claim in ("lemma-2.4", "lemma-2.5", "cor-2.6", "lemma-2.1"):
            ops.append(Op("verify", ("verify", claim) + census, 1e7))
    for n_max in log_targets(rng, 500 if tiny else 3000, 2000 if tiny else 10000, 9 // k):
        ops.append(Op("scan", ("scan", "conjecture-2.9", "--n-max", str(n_max),
                               "--format", "csv") + census, n_max * 1e3,
                      expect={"rows": model.odd_non_square_free(n_max)}))
    top = 10 ** (9 if tiny else 12)
    big = log_targets(rng, 10 ** 6, top, 72 // k, 0.05)
    for i, t in enumerate(big):
        s = big_spec(t, i)
        kind = "spectrum" if i % 3 == 2 else "stats"
        ops.append(Op(kind, (kind, s.text) + census, math.sqrt(t) * 1e3, s))
    return interleave(ops)


# ---------------------------------------------------------------------------
# io: graph export and census ingest
# ---------------------------------------------------------------------------

GRAPH_MODES = (("directed", "dot"), ("directed", "edge-csv"),
               ("undirected", "dot"), ("undirected", "edge-csv"))


def graph_spec(t: int, j: int) -> Spec:
    """A group of order near t; cycling j cycles through the families."""
    family = j % 4
    if family == 0:
        return model.cyclic(t)
    if family == 1:
        return even_dihedral(t)
    if family == 2:
        return odd_nilpotent(t, j // 4)
    k = max(3, round(math.log2(t)))
    two = two_power_family(2 ** k, 2 ** k)
    return two[j // 4 % len(two)]


def census_specs(rng: random.Random, tiny: bool = False) -> list[Spec]:
    """Tables the io workload generates, at orders from 16 to 2048, on both
    sides of the full-associativity cap."""
    ts = log_targets(rng, 16, 256 if tiny else 2048, 3 if tiny else 12)
    return [graph_spec(t, j) for j, t in enumerate(ts)]


def slug(text: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in text.lower()).strip("_")


def io_round(rng: random.Random, tiny: bool = False) -> tuple[list[Op], list[Spec]]:
    gen = census_specs(rng, tiny)
    n_graph = 8 if tiny else 144
    ops = []
    for j, t in enumerate(log_targets(rng, 16, 128 if tiny else 1024, n_graph)):
        kind, fmt = GRAPH_MODES[j // 4 % 4]     # every family meets every mode
        s = graph_spec(t, j)
        ops.append(Op("graph", ("graph", s.text, kind, fmt, "--out", "{out}",
                                "--census-dir", "{census}"), s.order, s,
                      expect={"kind": kind, "format": fmt}))
    ingest = ("--format", "csv", "--census-dir", "{census}")
    dirs = [("{census}/16", 16)] + [(f"{{gen}}/{n}", n) for n in sorted({s.order for s in gen})]
    ops += [Op("ingest", ("census", "ingest", d) + ingest, n, expect={"order": n})
            for d, n in dirs]
    return interleave(ops), gen


def build_round(workload: str, seed: int, tiny: bool = False
                ) -> tuple[list[Op], list[Spec]]:
    """The seeded round of a workload, and the census tables it needs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "audit":
        return audit_round(rng, tiny), []
    if workload == "formula":
        return formula_round(rng, tiny), []
    if workload == "io":
        return io_round(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")
