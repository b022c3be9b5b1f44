"""Independent arithmetic for generating pgx inputs and checking its output.

Nothing here imports pgx. Every spec is assembled from prime factorizations
that the generator chose, so its order spectrum, sigma and phi-sum follow
without factoring anything and without running the code under audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3e24 with these bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def small_factor(n: int) -> dict[int, int]:
    """Trial division, for the small orders (at most a few million) the
    generator picks itself."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class Spec:
    """A pgx spec string with its order spectrum and the primes of its order."""

    text: str
    spectrum: tuple[tuple[int, int], ...]   # ascending (element order, count)
    primes: frozenset[int]

    @property
    def order(self) -> int:
        return sum(c for _, c in self.spectrum)

    def totient(self, d: int) -> int:
        out = d
        for p in self.primes:
            if d % p == 0:
                out = out // p * (p - 1)
        return out

    @property
    def sigma(self) -> int:
        return sum(d * c for d, c in self.spectrum)

    @property
    def phi_sum(self) -> int:
        return sum(self.totient(d) * c for d, c in self.spectrum)

    @property
    def arcs(self) -> int:
        return self.sigma - self.order

    @property
    def edges(self) -> int:
        return self.sigma - (self.phi_sum + self.order) // 2


def _spec(text: str, counts: dict[int, int], primes) -> Spec:
    return Spec(text, tuple(sorted(counts.items())), frozenset(primes))


def _cyclic_counts(factors: dict[int, int]) -> dict[int, int]:
    counts = {1: 1}
    for p, k in factors.items():
        pp = {p ** j: (p ** j - p ** (j - 1) if j else 1) for j in range(k + 1)}
        counts = {a * b: ca * cb for a, ca in counts.items() for b, cb in pp.items()}
    return counts


def _with(counts: dict[int, int], extra: dict[int, int]) -> dict[int, int]:
    out = dict(counts)
    for d, c in extra.items():
        out[d] = out.get(d, 0) + c
    return out


def product(*specs: Spec) -> Spec:
    """Direct product: element orders combine by lcm."""
    counts: dict[int, int] = {1: 1}
    for s in specs:
        nxt: dict[int, int] = {}
        for a, ca in counts.items():
            for b, cb in s.spectrum:
                d = math.lcm(a, b)
                nxt[d] = nxt.get(d, 0) + ca * cb
        counts = nxt
    return _spec("x".join(s.text for s in specs), counts,
                 frozenset().union(*(s.primes for s in specs)))


def cyclic(m: int, factors: dict[int, int] | None = None) -> Spec:
    factors = small_factor(m) if factors is None else factors
    return _spec(f"C{m}", _cyclic_counts(factors), factors)


def abelian(p: int, parts: tuple[int, ...]) -> Spec:
    s = product(*(cyclic(p ** a, {p: a}) for a in parts))
    return Spec(f"Ab({p};{','.join(map(str, parts))})", s.spectrum, s.primes)


def modular(n: int, p: int) -> Spec:
    s = product(cyclic(p ** (n - 1), {p: n - 1}), cyclic(p, {p: 1}))
    return Spec(f"M({n},{p})", s.spectrum, s.primes)


def dihedral(order: int) -> Spec:
    k = order // 2
    f = small_factor(k)
    return _spec(f"D{order}", _with(_cyclic_counts(f), {2: k}), set(f) | {2})


def quaternion(order: int) -> Spec:
    nn = order // 2
    return _spec(f"Q{order}", _with(_cyclic_counts(small_factor(nn)), {4: nn}), {2})


def semidihedral(order: int) -> Spec:
    nn = order // 2
    return _spec(f"SD{order}",
                 _with(_cyclic_counts(small_factor(nn)), {2: nn // 2, 4: nn // 2}), {2})


def heisenberg(p: int) -> Spec:
    return _spec(f"He{p}", {1: 1, p: p ** 3 - 1}, {p})


def sylow_choices(p: int, a: int) -> list[Spec]:
    """The catalog of order p^a for a <= 3 (the complete classical lists)."""
    out = [cyclic(p ** a, {p: a})]
    if a == 2:
        out.append(abelian(p, (1, 1)))
    elif a == 3:
        out += [abelian(p, (2, 1)), abelian(p, (1, 1, 1))]
        out += ([dihedral(8), quaternion(8)] if p == 2
                else [heisenberg(p), modular(3, p)])
    return out


def odd_non_square_free(n_max: int) -> int:
    """How many odd n in [9, n_max] have a square prime factor."""
    flags = bytearray(n_max + 1)
    p = 3
    while p * p <= n_max:
        for m in range(p * p, n_max + 1, 2 * p * p):
            flags[m] = 1
        p += 2
    return sum(flags[9::2])
