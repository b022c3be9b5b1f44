"""Element-order spectra and the exact statistics derived from them.

The order spectrum of a finite group records how many elements have each
order. It determines the element-order sum, the totient sum over element
orders, and all three power-graph edge counts:

    directed arcs    = order_sum - size
    mutual pairs     = (phi_sum - size) / 2
    undirected edges = order_sum - (phi_sum + size) / 2

Everything in this module is exact Python integer arithmetic: the divisions
above raise InvariantError unless exact. primes_up_to is pgx's one prime
lister, `factor` factors one number and OddSieve a run of odd numbers; the
sieves keep their tables in the standard library's `bytearray` and `array`.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .errors import InputError, InvariantError, ResourceError

if TYPE_CHECKING:  # pragma: no cover
    from .groups import GroupTable


# Trial division runs over the primes below _TRIAL_BOUND only; a number with
# no such factor that is below _TRIAL_BOUND**2 is prime.
_TRIAL_BOUND = 1000
# Miller-Rabin with the prime bases 2..41 has no strong pseudoprime below
# MR_EXACT_BELOW (Sorenson & Webster 2015); the bound itself is one.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981
# Steps of the Pollard-Brent sequence tried on one composite before giving up:
# about a second of arithmetic. It nearly always splits off a prime factor
# below 1e11, and does so about half the time for one near 1e12.
RHO_STEP_BUDGET = 1 << 20
_RHO_BATCH = 128


def primes_up_to(limit: int) -> list[int]:
    """The primes p <= limit, ascending, by a sieve of Eratosthenes."""
    if limit < 2:
        return []
    odd = bytearray(1) + b"\x01" * ((limit - 1) // 2)  # odd[i]: 2i + 1 is prime
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd[p >> 1]:
            odd[p * p >> 1::p] = bytes(len(range(p * p >> 1, len(odd), p)))
    return [2, *itertools.compress(range(1, limit + 1, 2), odd)]


_SMALL_PRIMES = tuple(primes_up_to(_TRIAL_BOUND - 1))


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on the odd n > 41 to every base in _MR_BASES."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime_without_small_factor(m: int) -> bool:
    """Exact primality of m > 1 with no prime factor below _TRIAL_BOUND.

    Raises ResourceError for a strong probable prime at or above
    MR_EXACT_BELOW, which the bases used cannot prove prime.
    """
    if m < _TRIAL_BOUND ** 2:
        return True
    if not _strong_probable_prime(m):
        return False
    if m >= MR_EXACT_BELOW:
        raise ResourceError(
            f"cannot prove {m} prime: Miller-Rabin with bases 2..41 is exact "
            f"only below {MR_EXACT_BELOW}")
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n by Pollard's rho in Brent's form
    (Brent 1980), with x -> x^2 + c for c = 1, 2, ... from x = 2.

    Raises ResourceError once RHO_STEP_BUDGET steps have found no factor.
    """
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            steps += r + min(k, r)
            r *= 2
            if g == 1 and steps >= RHO_STEP_BUDGET:
                raise ResourceError(
                    f"cannot factor {n}: Pollard-Brent rho found no factor "
                    f"within {RHO_STEP_BUDGET} steps")
        if g == n:  # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def is_prime(n: int) -> bool:
    """Exact primality test: trial division by the primes below 1000, then
    deterministic Miller-Rabin to the bases 2..41.

    Raises ResourceError for a strong probable prime at or above
    MR_EXACT_BELOW (about 3.3e24), which those bases cannot prove prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return _is_prime_without_small_factor(n)


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization as ascending (prime, exponent) pairs.

    Trial division by the primes below 1000 strips the small factors; each
    remaining cofactor is proved prime by Miller-Rabin to the bases 2..41,
    split as a perfect square, or split by Pollard-Brent rho. Raises
    InputError unless n is a positive int (bool excluded), and ResourceError
    when a cofactor cannot be settled exactly: a strong probable prime at or
    above MR_EXACT_BELOW, or a composite that rho does not split within
    RHO_STEP_BUDGET steps.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"cannot factor {n!r}: need a positive integer")
    counts: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime_without_small_factor(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        d = r if r * r == m else _pollard_brent(m)
        pending += (d, m // d)
    return sorted(counts.items())


class OddSieve:
    """The smallest prime factor of every odd number up to n_max (n_max below
    2^31), for factoring a run of odd numbers without `factor`'s trial
    division, and from the same pass which of them a prime square divides:
    5 bytes per odd number, in an int array and a bytearray."""

    def __init__(self, n_max: int):
        size = (n_max + 1) // 2                         # index i holds n = 2i + 1
        spf = array("i", [0]) * size
        square = bytearray(size)
        # the odd primes up to sqrt(n_max) sieve, largest first, so each entry
        # ends with its smallest; the primes, and 1 at index 0, keep 0
        for p in reversed(primes_up_to(math.isqrt(n_max))[1:]):
            start = p * p >> 1                          # p^2, p^2 + 2p, ...
            spf[start::p] = array("i", [p]) * len(range(start, size, p))
            square[start::p * p] = b"\x01" * len(range(start, size, p * p))   # p^2, 3p^2, ...
        # spf[n >> 1] is the smallest prime factor of the odd n, or 0 when n
        # is 1 or prime, read as a Python int; census._scan_row is its reader
        self.spf = spf
        self._square = square

    def not_square_free(self) -> Iterator[int]:
        """The odd numbers up to n_max that are not square-free, ascending."""
        return itertools.compress(range(1, 2 * len(self._square), 2), self._square)


def totient(m: int) -> int:
    """Euler's totient of m, from the prime factorization by `factor`."""
    if m < 1:
        raise InputError(f"totient undefined for {m}")
    res = m
    for p, _ in factor(m):
        res = res // p * (p - 1)
    return res


class OrderSpectrum:
    """Multiset of element orders: immutable mapping order -> element count.

    The total count is the group order. Construction enforces the
    structural invariants: exactly one identity, every order divides the
    total. primes, when given, must include every prime factor of the
    exponent (the lcm of the orders), which is checked: the code that builds
    a spectrum knows them, and phi_sum reads them instead of factoring the
    exponent again. They take no part in == or the hash.
    """

    __slots__ = ("_counts", "_total", "_primes")

    def __init__(self, counts: Mapping[int, int], primes: Iterable[int] | None = None):
        cleaned: dict[int, int] = {}
        for d in sorted(counts):
            c = counts[d]
            if c == 0:
                continue
            if d < 1 or c < 0:
                raise InvariantError(f"bad spectrum entry order={d} count={c}")
            cleaned[int(d)] = int(c)
        if cleaned.get(1) != 1:
            raise InvariantError("spectrum must contain exactly one element of order 1")
        total = sum(cleaned.values())
        for d in cleaned:
            if total % d:
                raise InvariantError(f"order {d} does not divide group size {total}")
        self._counts = cleaned
        self._total = total
        self._primes = None
        if primes is not None:
            primes = tuple(primes)
            rest = math.lcm(*cleaned)
            for p in primes:
                while rest % p == 0:
                    rest //= p
            if rest != 1:
                raise InvariantError(f"the exponent {math.lcm(*cleaned)} has a prime factor "
                                     f"outside the given primes {list(primes)}")
            self._primes = primes

    @property
    def primes(self) -> tuple[int, ...]:
        """The primes of the exponent: as given on construction, else from one
        `factor` of the exponent on first read."""
        if self._primes is None:
            self._primes = tuple(p for p, _ in factor(math.lcm(*self._counts)))
        return self._primes

    @property
    def total(self) -> int:
        """Number of elements, i.e. the group order."""
        return self._total

    def items(self) -> list[tuple[int, int]]:
        return list(self._counts.items())

    def get(self, d: int, default: int = 0) -> int:
        return self._counts.get(d, default)

    def __getitem__(self, d: int) -> int:
        return self._counts[d]

    def __contains__(self, d: int) -> bool:
        return d in self._counts

    def __iter__(self) -> Iterator[int]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderSpectrum):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(tuple(self._counts.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}: {c}" for d, c in self._counts.items())
        return f"OrderSpectrum({{{inner}}})"

def order_spectrum(g: "GroupTable") -> OrderSpectrum:
    """Tally the order of every element of g, as `GroupTable.element_orders`
    finds them by binary powering within each Sylow part (Lagrange); the
    exponent's primes are factored when phi_sum first reads them."""
    s = OrderSpectrum(Counter(g.element_orders()))
    if s.total != g.size:
        raise InvariantError("order tally lost elements")  # unreachable for valid tables
    return s


def spectrum_cyclic(m: int) -> OrderSpectrum:
    """Order spectrum of the cyclic group of order m: totient(d) elements per
    divisor d, every totient taken from the one factorization of m."""
    if m < 1:
        raise InputError(f"cyclic group order must be positive, got {m}")
    counts = {1: 1}
    factors = factor(m)
    for p, e in factors:
        powers = [(1, 1)] + [(p ** k, p ** k - p ** (k - 1)) for k in range(1, e + 1)]
        counts = {d * q: t * tq for d, t in counts.items() for q, tq in powers}
    return OrderSpectrum(counts, [p for p, _ in factors])


def spectrum_product(s: OrderSpectrum, t: OrderSpectrum) -> OrderSpectrum:
    """Spectrum of a direct product, by lcm convolution of the factor spectra.

    Valid for arbitrary factors, coprime or not: the order of (x, y) is
    lcm(o(x), o(y)). The exponent's primes are those of the two factors.
    """
    out: dict[int, int] = {}
    for a, ca in s.items():
        for b, cb in t.items():
            d = math.lcm(a, b)
            out[d] = out.get(d, 0) + ca * cb
    return OrderSpectrum(out, sorted({*s.primes, *t.primes}))


def order_sum(s: OrderSpectrum) -> int:
    """Sum of element orders."""
    return sum(d * c for d, c in s.items())


def phi_sum(s: OrderSpectrum) -> int:
    """Sum of totient(o(g)) over all g, every totient from s.primes, the primes
    of the exponent (lcm of the orders). The code that built s gave them:
    spectrum_cyclic from its factorization of m, spectrum_product from its
    factors, each family spec from its parameters. Only a spectrum built
    without them, as by order_spectrum, factors its exponent, once; |G| can
    be far harder (P^3 for Ab(P;1,1,1))."""
    primes = s.primes
    total = 0
    for d, c in s._counts.items():
        t = d
        for p in primes:
            if d % p == 0:
                t = t // p * (p - 1)
        total += c * t
    return total


def undirected_from_sums(sigma: int, phi: int, size: int) -> int:
    """Undirected edge count from the element-order sum sigma, the totient sum
    phi and the group order: sigma - (phi + size)/2."""
    if phi < size:
        raise InvariantError(f"phi_sum {phi} is below the group order {size}")
    half = phi + size
    if half % 2:
        raise InvariantError(f"phi_sum + size = {half} is odd; edge count would not be integral")
    e = sigma - half // 2
    if e < 0:
        raise InvariantError(f"negative edge count {e}")
    return e


def phi_cyclic_prime_power(p: int, m: int) -> int:
    """phi_sum of the cyclic group of order p^m, in closed form.

    Computes (p^(2m) * (p-1) + 2) / (p+1); the division is exact for every
    prime p and m >= 0, and is checked.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if m < 0:
        raise InputError(f"exponent must be nonnegative, got {m}")
    num = p ** (2 * m) * (p - 1) + 2
    q, r = divmod(num, p + 1)
    if r:
        raise InvariantError(f"closed form not an integer at p={p}, m={m}")
    return q


@dataclass(frozen=True)
class GroupStats:
    """The six exact statistics of one group, cross-checked on construction."""

    name: str
    size: int
    sigma: int
    phi_sum: int
    directed_arcs: int
    mutual_edges: int
    undirected_edges: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InvariantError("empty group")
        if self.directed_arcs != self.sigma - self.size:
            raise InvariantError(f"{self.name}: directed_arcs != sigma - size")
        if 2 * self.mutual_edges != self.phi_sum - self.size:
            raise InvariantError(f"{self.name}: 2*mutual_edges != phi_sum - size")
        if 2 * self.undirected_edges != 2 * self.sigma - self.phi_sum - self.size:
            raise InvariantError(f"{self.name}: edge identity violated")

    def to_json_dict(self) -> dict:
        return asdict(self)


def stats_from_spectrum(name: str, s: OrderSpectrum) -> GroupStats:
    """GroupStats by the exact identities, sigma and phi summed once; mutual = arcs - edges."""
    sigma, phi = order_sum(s), phi_sum(s)
    arcs = sigma - s.total
    undirected = undirected_from_sums(sigma, phi, s.total)
    return GroupStats(name=name, size=s.total, sigma=sigma, phi_sum=phi,
                      directed_arcs=arcs, mutual_edges=arcs - undirected,
                      undirected_edges=undirected)
