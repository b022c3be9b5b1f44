"""Number theory, order spectra, and the exact statistics derived from them.

Every frozen integer below was regenerated with the brute-force graph oracle
(tests/test_powergraph.py checks the same numbers against explicit graphs).
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgx.spectrum
from pgx.census import SWEEP_PRIME_BOUND
from pgx.errors import InputError, InvariantError, ResourceError
from pgx.groups import GroupTable
from pgx.spectrum import (
    MR_EXACT_BELOW,
    GroupStats,
    OddSieve,
    OrderSpectrum,
    factor,
    is_prime,
    order_spectrum,
    order_sum,
    phi_cyclic_prime_power,
    phi_sum,
    primes_up_to,
    spectrum_cyclic,
    spectrum_product,
    stats_from_spectrum,
    totient,
    undirected_from_sums,
)
from pgx.constructors import Cyclic


# ---------------------------------------------------------------------------
# Number theory
# ---------------------------------------------------------------------------

def test_is_prime_small_values():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(-7) and not is_prime(0) and not is_prime(1)


def test_factor_examples():
    assert factor(1) == []
    assert factor(2) == [(2, 1)]
    assert factor(360) == [(2, 3), (3, 2), (5, 1)]
    assert factor(97) == [(97, 1)]
    assert factor(1024) == [(2, 10)]
    with pytest.raises(InputError):
        factor(0)


# Trial division, the reference for the factoring engine: slow, but with no
# number theory beyond division and the sieve of Eratosthenes.

def reference_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@functools.cache
def reference_primes() -> list[int]:
    """The primes below 10^6, by the sieve of Eratosthenes."""
    m = 10 ** 6
    sieve = bytearray([1]) * m
    sieve[:2] = b"\0\0"
    for f in range(2, math.isqrt(m - 1) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, m, f)))
    return list(itertools.compress(range(m), sieve))


def reference_factor(n: int) -> list[tuple[int, int]]:
    """Trial division by the primes below 10^6. Exact for n <= 10^12: a
    composite cofactor left over would have a prime factor at most its
    square root, which is at most 10^6."""
    assert 1 <= n <= 10 ** 12, n
    out: list[tuple[int, int]] = []
    m = n
    for f in reference_primes():
        if f * f > m:
            break
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
    if m > 1:
        out.append((m, 1))
    return out


def assert_factored_like_reference(n: int) -> None:
    """factor(n) is what reference_factor(n) returns: run the reference
    directly while it is fast, else check that the engine's primes are small
    enough for the reference primality test, pass it, and multiply back to n."""
    got = factor(n)
    if n <= 10 ** 12:
        assert got == reference_factor(n), n
    else:
        assert [p for p, _ in got] == sorted({p for p, _ in got}), n
        assert all(p <= 10 ** 12 and reference_is_prime(p) for p, _ in got), n
        assert math.prod(p ** e for p, e in got) == n
    assert is_prime(n) == (got == [(n, 1)]), n


def test_factor_and_is_prime_match_the_reference_up_to_20000():
    for n in range(1, 20001):
        assert factor(n) == reference_factor(n), n
        assert is_prime(n) == reference_is_prime(n), n


def test_primes_up_to_lists_the_primes_as_is_prime_does():
    expected = []
    for limit in range(-1, 3001):
        if is_prime(limit):
            expected.append(limit)
        assert primes_up_to(limit) == expected, limit


def test_primes_up_to_the_sweep_bound_and_the_trial_division_primes():
    assert len(primes_up_to(SWEEP_PRIME_BOUND)) == 1229
    assert pgx.spectrum._SMALL_PRIMES == tuple(p for p in range(1000) if reference_is_prime(p))
    assert len(pgx.spectrum._SMALL_PRIMES) == 168


def _odd_not_square_free(n_max):
    return [n for n in range(1, n_max + 1, 2) if any(a > 1 for _, a in factor(n))]


def _odd_spf(n_max):
    """The smallest prime factor of each odd n up to n_max, as OddSieve.spf
    holds it at n >> 1: 0 for 1 and for primes."""
    return [0 if n == 1 or is_prime(n) else factor(n)[0][0] for n in range(1, n_max + 1, 2)]


def test_odd_sieve_factors_as_factor_does_up_to_20000():
    """The spf table that census._scan_row factors each order by."""
    sieve = OddSieve(20_000)
    assert list(sieve.spf) == _odd_spf(20_000)
    assert list(sieve.not_square_free()) == _odd_not_square_free(20_000)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 9, 10, 24, 25, 26, 27, 49, 3481, 3483, 3484])
def test_odd_sieve_reaches_n_max(n_max):
    """Squares of primes (9, 25, 3481 = 59^2) and a prime cube at n_max, the
    odd numbers just past them, and even n_max."""
    sieve = OddSieve(n_max)
    assert list(sieve.spf) == _odd_spf(n_max)
    assert list(sieve.not_square_free()) == _odd_not_square_free(n_max)


def test_odd_sieve_yields_plain_ints():
    """The scan writes these with str(), so they must be Python ints."""
    sieve = OddSieve(3483)
    orders = list(sieve.not_square_free())
    assert orders and all(type(n) is int for n in orders)
    for n in (1, 3, 59, 3481, 3483):
        assert type(sieve.spf[n >> 1]) is int, n


def test_factor_matches_the_reference_on_a_seeded_sample_below_1e12():
    rng = random.Random(20240611)
    for _ in range(2000):
        assert_factored_like_reference(rng.randint(1, 10 ** 12))


@pytest.mark.parametrize("n", [
    # strong pseudoprimes to the first 1, 7, 9 and 12 prime bases
    2047, 3215031751, 3825123056546413051, 318665857834031151167461,
    # Carmichael numbers
    561, 41041, 825265,
    # prime squares and products of two primes near 1e9
    1000000007 ** 2, 999999937 ** 2, 1000000007 * 1000000009, 999999937 * 1000000007,
])
def test_factor_matches_the_reference_on_hard_cases(n):
    assert_factored_like_reference(n)


def test_unprovable_probable_prime_is_a_resource_error():
    # a strong pseudoprime to every base 2..41, and the bound of exactness
    n = MR_EXACT_BELOW
    assert reference_is_prime(1287836182261) and reference_is_prime(2575672364521)
    assert 1287836182261 * 2575672364521 == n
    for f in (factor, is_prime):
        with pytest.raises(ResourceError, match=f"{n}.*exact only below {n}"):
            f(n)


def test_rho_gives_up_after_its_step_budget(monkeypatch):
    monkeypatch.setattr(pgx.spectrum, "RHO_STEP_BUDGET", 1000)
    n = 1000000007 * 1000000009
    with pytest.raises(ResourceError, match=f"cannot factor {n}.* 1000 steps"):
        factor(n)


def test_totient_table():
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6,
                10: 4, 11: 10, 12: 4}
    assert {m: totient(m) for m in expected} == expected
    assert totient(97) == 96
    with pytest.raises(InputError):
        totient(0)


@given(st.integers(min_value=1, max_value=500))
def test_totient_counts_coprime_residues(m):
    import math
    assert totient(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending, from reference_factor."""
    ds = [1]
    for p, e in reference_factor(m):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert divisors(27) == [1, 3, 9, 27]


# ---------------------------------------------------------------------------
# OrderSpectrum construction and invariants
# ---------------------------------------------------------------------------

def test_spectrum_requires_unique_identity():
    with pytest.raises(InvariantError):
        OrderSpectrum({2: 3})
    with pytest.raises(InvariantError):
        OrderSpectrum({1: 2, 2: 1})


def test_spectrum_rejects_nondividing_order():
    with pytest.raises(InvariantError):
        OrderSpectrum({1: 1, 3: 1})     # total 2, but 3 does not divide 2


def test_spectrum_drops_zero_counts_and_compares_by_value():
    s = OrderSpectrum({1: 1, 2: 1, 4: 0})
    t = OrderSpectrum({2: 1, 1: 1})
    assert s == t and hash(s) == hash(t)
    assert 4 not in s and s.get(4) == 0
    assert s.items() == [(1, 1), (2, 1)]
    assert s.total == 2 and len(s) == 2 and list(s) == [1, 2]


# ---------------------------------------------------------------------------
# Cyclic spectra and lcm convolution
# ---------------------------------------------------------------------------

def test_spectrum_cyclic_examples():
    assert dict(spectrum_cyclic(12).items()) == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}
    assert dict(spectrum_cyclic(25).items()) == {1: 1, 5: 4, 25: 20}
    assert dict(spectrum_cyclic(1).items()) == {1: 1}
    with pytest.raises(InputError):
        spectrum_cyclic(0)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=400))
def test_spectrum_cyclic_counts_are_totients(m):
    s = spectrum_cyclic(m)
    assert s.total == m
    assert set(s) == set(divisors(m))
    for d in s:
        assert s[d] == totient(d)


@pytest.mark.parametrize("m", list(range(1, 61)))
def test_spectrum_cyclic_matches_brute_tally(m):
    assert spectrum_cyclic(m) == order_spectrum(Cyclic(m).build())


def test_spectrum_product_identity_and_klein():
    c2 = spectrum_cyclic(2)
    assert spectrum_product(spectrum_cyclic(1), c2) == c2
    assert dict(spectrum_product(c2, c2).items()) == {1: 1, 2: 3}


def test_spectrum_product_non_coprime():
    got = spectrum_product(spectrum_cyclic(2), spectrum_cyclic(4))
    assert dict(got.items()) == {1: 1, 2: 3, 4: 4}


def test_spectrum_product_matches_lcm_tally():
    got = spectrum_product(spectrum_cyclic(9), spectrum_cyclic(3))
    assert dict(got.items()) == {1: 1, 3: 8, 9: 18}


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60))
def test_spectrum_product_commutative_associative(a, b, c):
    sa, sb, sc = spectrum_cyclic(a), spectrum_cyclic(b), spectrum_cyclic(c)
    assert spectrum_product(sa, sb) == spectrum_product(sb, sa)
    assert (spectrum_product(spectrum_product(sa, sb), sc)
            == spectrum_product(sa, spectrum_product(sb, sc)))


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=120))
def test_phi_sum_multiplicative_on_coprime_cyclic_factors(a, b):
    import math
    if math.gcd(a, b) != 1:
        b = 1
    combined = phi_sum(spectrum_product(spectrum_cyclic(a), spectrum_cyclic(b)))
    assert combined == phi_sum(spectrum_cyclic(a)) * phi_sum(spectrum_cyclic(b))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

Q8_SPECTRUM = OrderSpectrum({1: 1, 2: 1, 4: 6})
D8_SPECTRUM = OrderSpectrum({1: 1, 2: 5, 4: 2})


def test_order_sum_examples():
    assert order_sum(spectrum_cyclic(1)) == 1
    assert order_sum(Q8_SPECTRUM) == 27
    assert order_sum(D8_SPECTRUM) == 19


def test_phi_sum_examples():
    assert phi_sum(spectrum_cyclic(3)) == 5
    assert phi_sum(spectrum_cyclic(9)) == 41
    assert phi_sum(spectrum_product(spectrum_cyclic(9), spectrum_cyclic(3))) == 125
    assert phi_sum(spectrum_product(spectrum_cyclic(3), spectrum_cyclic(3))) == 17


def test_edge_count_examples():
    def counts(s):
        st = stats_from_spectrum("g", s)
        return st.directed_arcs, st.mutual_edges, st.undirected_edges

    assert counts(spectrum_cyclic(1)) == (0, 0, 0)
    assert counts(spectrum_cyclic(3))[0] == 4
    assert counts(Q8_SPECTRUM) == (19, 3, 16)
    assert counts(spectrum_cyclic(6))[1] == 2
    s93 = spectrum_product(spectrum_cyclic(9), spectrum_cyclic(3))
    assert counts(s93)[1] == 49
    elementary8 = OrderSpectrum({1: 1, 2: 7})
    assert counts(elementary8)[2] == 7
    c4xc2 = spectrum_product(spectrum_cyclic(4), spectrum_cyclic(2))
    assert counts(c4xc2)[2] == 13


def test_parity_guards_reject_corrupt_spectrum():
    corrupt = OrderSpectrum({1: 1, 2: 2, 4: 1})   # passes cheap checks, phi-size odd
    with pytest.raises(InvariantError, match="is odd"):
        stats_from_spectrum("corrupt", corrupt)
    with pytest.raises(InvariantError, match="below the group order"):
        undirected_from_sums(10, 3, 5)            # phi < size: a negative mutual count


def test_phi_cyclic_prime_power_closed_form():
    assert phi_cyclic_prime_power(3, 0) == 1
    assert phi_cyclic_prime_power(3, 2) == 41
    assert phi_cyclic_prime_power(5, 2) == 417
    for p in (2, 3, 5, 7, 43):
        for m in range(0, 7):
            if p ** m > 4000:
                break
            assert phi_cyclic_prime_power(p, m) == phi_sum(spectrum_cyclic(p ** m))
    with pytest.raises(InputError):
        phi_cyclic_prime_power(6, 2)
    with pytest.raises(InputError):
        phi_cyclic_prime_power(3, -1)


def test_group_stats_consistency_enforced():
    ok = GroupStats("C6", 6, 21, 10, 15, 2, 13)
    assert list(ok.to_json_dict().values()) == ["C6", 6, 21, 10, 15, 2, 13]
    assert ok.to_json_dict()["undirected_edges"] == 13
    with pytest.raises(InvariantError):
        GroupStats("bad", 6, 21, 10, 14, 2, 13)    # arcs != sigma - size
    with pytest.raises(InvariantError):
        GroupStats("bad", 6, 21, 10, 15, 3, 13)    # mutual pairs off by one
    with pytest.raises(InvariantError):
        GroupStats("bad", 6, 21, 10, 15, 2, 12)    # edge identity broken
    with pytest.raises(InvariantError):
        GroupStats("bad", 0, 0, 0, 0, 0, 0)


def test_stats_from_spectrum_anchors():
    c6 = stats_from_spectrum("C6", spectrum_cyclic(6))
    assert (c6.size, c6.sigma, c6.phi_sum, c6.directed_arcs,
            c6.mutual_edges, c6.undirected_edges) == (6, 21, 10, 15, 2, 13)
    q8 = stats_from_spectrum("Q8", Q8_SPECTRUM)
    assert (q8.size, q8.sigma, q8.phi_sum, q8.directed_arcs,
            q8.mutual_edges, q8.undirected_edges) == (8, 27, 14, 19, 3, 16)
    c1 = stats_from_spectrum("C1", spectrum_cyclic(1))
    assert (c1.directed_arcs, c1.mutual_edges, c1.undirected_edges) == (0, 0, 0)


def test_group_stats_from_table():
    g = Cyclic(6).build()
    st_ = stats_from_spectrum(g.name, order_spectrum(g))
    assert st_.name == "C6" and st_.undirected_edges == 13


def test_order_spectrum_identity_anchor():
    table = [[0, 1], [1, 0]]
    g = GroupTable(2, 0, table=__import__("numpy").array(table))
    assert dict(order_spectrum(g).items()) == {1: 1, 2: 1}


def test_stats_from_spectrum_factors_the_exponent_once(monkeypatch):
    """A spec's spectrum carries its exponent's primes, so its statistics
    factor nothing; a bare OrderSpectrum of the same counts factors its
    exponent once, when phi_sum first reads its primes."""
    from pgx.constructors import parse_group_spec
    s = parse_group_spec("C442637112103xSD32").spectrum()
    bare = OrderSpectrum(dict(s.items()))
    phi = sum(totient(d) * c for d, c in s.items())
    sigma = sum(d * c for d, c in s.items())
    calls = []
    real = pgx.spectrum.factor
    monkeypatch.setattr(pgx.spectrum, "factor", lambda n: calls.append(n) or real(n))
    stats = stats_from_spectrum("G", s)
    assert calls == []
    assert (stats.sigma, stats.phi_sum) == (sigma, phi)
    assert stats.mutual_edges == (phi - s.total) // 2
    assert stats.undirected_edges == sigma - (phi + s.total) // 2
    assert stats_from_spectrum("G", bare) == stats
    assert stats_from_spectrum("G", bare) == stats
    assert calls == [442637112103 * 16]          # the exponent of C_P x SD32
    assert bare.primes == s.primes == (2, 442637112103)


def test_spectrum_primes_must_cover_the_exponent():
    """Given primes that miss a prime of the exponent are refused; primes take
    no part in equality or the hash."""
    counts = {1: 1, 2: 3, 3: 2, 6: 6}                   # C2 x C2 x C3
    for primes in ((2,), (3,), (), (5, 7)):
        with pytest.raises(InvariantError, match="outside the given primes"):
            OrderSpectrum(counts, primes)
    with pytest.raises(InvariantError):
        spectrum_product(spectrum_cyclic(4), OrderSpectrum({1: 1, 2: 1}, (3,)))
    carried = OrderSpectrum(counts, (2, 3))
    bare = OrderSpectrum(counts)
    assert carried == bare and hash(carried) == hash(bare)
    assert carried.primes == bare.primes == (2, 3)
    assert OrderSpectrum({1: 1}, ()).primes == OrderSpectrum({1: 1}).primes == ()


def test_phi_sum_of_a_cube_of_a_large_prime_factors_only_the_prime():
    # Ab(P;1,1,1): the order P^3 is beyond the rho budget, the exponent P is not
    p = 1000000000000037
    s = OrderSpectrum({1: 1, p: p ** 3 - 1})
    assert phi_sum(s) == 1 + (p - 1) * (p ** 3 - 1)
