"""Structured group families, the group-spec mini-language, p-group catalogs and their census.

Each family is one frozen spec class that holds all of its facts: it
validates its parameters on construction and gives its canonical name
(`render`), its `order`, its order `spectrum` (a closed form wherever one
exists) and its dense table (`build`). Every builder does its arithmetic in
`index_dtype(n)` of the order n it builds, never in the dtype of a factor's
order, and asserts its defining relations on the freshly built model. M(n,p),
whose major index digit is a cyclic factor acting by addition, is a translate
of its first rows (`_translated`); a direct product is one add of its
factors' tables; the other laws are assembled from small lookup tables, so no
builder computes a residue over all n^2 entries. Element labels are passed
as a recipe that `GroupTable.labels` calls on first read, so only DOT export
and `write_cayley` make label strings. `build_group` refuses orders above the
brute-force cap before any family builds its n-by-n table; a `file:` atom's
order is known only from its table, so that file is read in full first.

Spec grammar (whitespace-insensitive, `x` is a left-associative product):

    C<m> | M(<n>,<p>) | D<order> | Q<order> | SD<order> | He<p>
        | Ab(<p>;<part,...>) | file:<path>

A `file:` path runs to the next whitespace, so products involving files need
a space-separated x.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from math import prod
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InputError, InvariantError, ResourceError
from .groups import (DEFAULT_TABLE_CAP, GroupTable, check_brute_cap, index_dtype, read_cayley,
                     validate)
from .spectrum import (
    OrderSpectrum,
    is_prime,
    order_spectrum,
    order_sum,
    phi_sum,
    spectrum_cyclic,
    spectrum_product,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

# Most groups one catalog or nilpotent enumeration may list. A p-group
# catalog of order p^k lists an abelian group per partition of k, and the
# partitions of 32 already number 8349, so the bound stops exponents near 33.
CATALOG_BOUND = 10_000

# Largest group order, in bits, that a spec may name. Every statistic a report
# prints is below the square of an order, and Python converts integers of at
# most 4300 decimal digits to and from text; 2^7000 has 2108 digits.
ORDER_BITS = 7000
_ORDER_DIGITS = len(str(1 << ORDER_BITS))


# ---------------------------------------------------------------------------
# Table-building helpers
# ---------------------------------------------------------------------------

def _addition_table(m: int) -> np.ndarray:
    """(i + j) mod m as a read-only m-by-m view in index_dtype(m): row i is
    the window starting at i of 0..m-1 written twice."""
    import numpy as np
    idx = np.arange(m, dtype=index_dtype(m))
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([idx, idx]), m)[:m]


def _wrap(out: np.ndarray, n: int) -> np.ndarray:
    """out mod n in place, for unsigned entries below 2n: an entry below n
    wraps past the dtype's top when n is subtracted, so the minimum keeps it.
    Rows go in blocks of about 2^16 entries, so the difference stays in cache."""
    import numpy as np
    rows = out.reshape(-1, out.shape[-1])
    step = max(1, (1 << 16) // rows.shape[1])
    diff = np.empty((step, rows.shape[1]), dtype=out.dtype)
    for r in range(0, len(rows), step):
        block, d = rows[r:r + step], diff[:len(rows) - r]
        np.minimum(block, np.subtract(block, n, out=d), out=block)
    return out


def _translated(block: np.ndarray, n: int) -> np.ndarray:
    """The n-by-n table whose row k*s + r is (block[r] + k*s) mod n, s = len(block):
    the table of a group whose major index digit is a cyclic factor acting by
    addition, from its rows with major digit 0. block is in index_dtype(n)."""
    import numpy as np
    s = len(block)
    shifts = np.arange(0, n, s, dtype=block.dtype)[:, None, None]
    return _wrap(block[None] + shifts, n).reshape(n, n)


def _two_coset_table(nn: int, twist0: np.ndarray, twist1: np.ndarray) -> np.ndarray:
    """Table on pairs (a, b), index a + nn*b with b in {0, 1}, of the product
    (a1, 0)(a2, b2) = (a1 + a2, b2) and (a1, 1)(a2, b2) = (a1 + twist_b2[a2], 1 - b2),
    first coordinates mod nn."""
    import numpy as np
    dt = index_dtype(2 * nn)
    idx = np.arange(nn, dtype=dt)
    second = np.array([[idx, idx], [twist0, twist1]], dtype=dt)    # [b1, b2, a2]
    table = np.empty((2, nn, 2, nn), dtype=dt)                      # [b1, a1, b2, a2]
    for b1 in (0, 1):
        _wrap(np.add(idx[:, None, None], second[b1, None], out=table[b1]), nn)
        table[b1, :, 1 - b1] += nn
    return table.reshape(2 * nn, 2 * nn)


def _two_coset_labels(nn: int) -> list[str]:
    """x0..x(nn-1), then x0y..x(nn-1)y: the labels of a group on pairs (a, b)
    with index a + nn*b (`_two_coset_table`) and generators x = (1, 0), y = (0, 1)."""
    return [f"x{i}" for i in range(nn)] + [f"x{i}y" for i in range(nn)]


def _checked(g: GroupTable, relations: dict[str, bool]) -> GroupTable:
    """g, once every defining relation, keyed by its text, holds in the model."""
    for relation, holds in relations.items():
        if not holds:
            raise InvariantError(f"{g.name}: defining relation {relation} failed in the model")
    return g


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def _check_order(family: str, p: int, a: int = 1) -> None:
    """Refuse the group order p^a when it has more than ORDER_BITS bits; p^a
    is computed only once a lower bound on its bits is in range."""
    if a * (p.bit_length() - 1) >= ORDER_BITS or (a > 0 and (p ** a).bit_length() > ORDER_BITS):
        raise ResourceError(f"{family}: group order above 2^{ORDER_BITS}, the largest "
                            "whose statistics can be printed")


def _merge_spectrum(s: OrderSpectrum, extra: dict[int, int]) -> OrderSpectrum:
    """s with extra elements of the orders 2 and 4 that extra counts: the
    spectrum of a 2-coset group, s that of its cyclic half."""
    counts = dict(s.items())
    for d, c in extra.items():
        counts[d] = counts.get(d, 0) + c
    return OrderSpectrum(counts, sorted({*s.primes, 2}))


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Direct product; index (a, b) <-> a * |h| + b. Row block a1 is g's row
    a1, each entry times |h| and repeated |h| times, plus h tiled |g| times:
    one add whose inner axis has length n and whose sums stay below n. Its
    labels are "(la,lb)", made from the factors' label recipes when first read."""
    import numpy as np
    m, s = g.size, h.size
    n = m * s
    dt = index_dtype(n)
    gt, ht = g.table.astype(dt, copy=False), h.table.astype(dt, copy=False)
    table = (np.repeat(gt * s, s, axis=1)[:, None, :] + np.tile(ht, (1, m))[None]).reshape(n, n)
    g_labels, h_labels = g.label_recipe, h.label_recipe

    def labels() -> list[str]:
        right = h_labels()
        return [f"({la},{lb})" for la in g_labels() for lb in right]

    return GroupTable(n, g.identity * h.size + h.identity, table=table,
                      name=f"{g.name}x{h.name}",
                      labels=None if g_labels is None or h_labels is None else labels)


# ---------------------------------------------------------------------------
# Group specs
# ---------------------------------------------------------------------------

class GroupSpec:
    """A group named by a spec. Each subclass is a frozen dataclass that
    raises InputError on construction when its parameters name no group, and
    provides `order`, `render()` (the canonical spec string, which
    parse_group_spec reads back), `spectrum()` and `build()` (the dense table).
    """

    def factors(self) -> list[GroupSpec]:
        """The atoms of the spec, left to right."""
        return [self]


@dataclass(frozen=True)
class Cyclic(GroupSpec):
    m: int

    def __post_init__(self) -> None:
        _check_order("C", self.m)
        if self.m < 1:
            raise InputError(f"C{self.m}: order must be positive")

    @property
    def order(self) -> int:
        return self.m

    def render(self) -> str:
        return f"C{self.m}"

    def spectrum(self) -> OrderSpectrum:
        return spectrum_cyclic(self.m)

    def build(self) -> GroupTable:
        """Z_m under addition."""
        return GroupTable(self.m, 0, table=_addition_table(self.m), name=self.render(),
                          labels=lambda: [str(i) for i in range(self.m)])


@dataclass(frozen=True)
class Abelian(GroupSpec):
    """Abelian p-group C_{p^a1} x C_{p^a2} x ... for a non-increasing partition;
    the empty partition gives the trivial group."""

    p: int
    partition: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = self.partition
        _check_order("Ab", self.p, sum(parts))
        if not is_prime(self.p):
            raise InputError(f"Ab({self.p};...): {self.p} is not prime")
        if any(a < 1 for a in parts):
            raise InputError("Ab: partition entries must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InputError(f"Ab: partition {list(parts)} must be non-increasing")

    @property
    def order(self) -> int:
        return self.p ** sum(self.partition)

    def render(self) -> str:
        if not self.partition:
            return "C1"
        return f"Ab({self.p};{','.join(str(a) for a in self.partition)})"

    def spectrum(self) -> OrderSpectrum:
        """In closed form: p^(sum of min(a_i, k)) elements have order dividing
        p^k, so order p^k has the difference of consecutive terms."""
        below = [self.p ** sum(min(a, k) for a in self.partition)
                 for k in range(max(self.partition, default=0) + 1)]
        return OrderSpectrum({1: 1} | {self.p ** k: below[k] - below[k - 1]
                                       for k in range(1, len(below))},
                             (self.p,) if self.partition else ())

    def build(self) -> GroupTable:
        """The direct product of the cyclic factors; one factor keeps its C name."""
        g = reduce(direct_product, [Cyclic(self.p ** a).build() for a in self.partition or (0,)])
        if len(self.partition) > 1:
            g.name = self.render()
        return g


@dataclass(frozen=True)
class Modular(GroupSpec):
    """Modular maximal-cyclic 2-generator group of order p^n, n >= 3.

    Presentation <a, b | a^(p^(n-1)) = b^p = 1, b^-1 a b = a^(1+p^(n-2))>.
    For p = 2 this needs n >= 4 (at order 8 the presentation gives D8).
    """

    n: int
    p: int

    def __post_init__(self) -> None:
        _check_order("M", self.p, self.n)
        if not is_prime(self.p):
            raise InputError(f"M({self.n},{self.p}): {self.p} is not prime")
        if self.n < 3:
            raise InputError(f"M({self.n},{self.p}): need n >= 3")
        if self.p == 2 and self.n < 4:
            raise InputError("M(3,2) is excluded: the presentation collapses to D8")

    @property
    def order(self) -> int:
        return self.p ** self.n

    def render(self) -> str:
        return f"M({self.n},{self.p})"

    def spectrum(self) -> OrderSpectrum:
        # M(n,p) shares its order spectrum with C_{p^(n-1)} x C_p; the tests
        # assert this against the concrete model for every buildable order.
        return spectrum_product(spectrum_cyclic(self.p ** (self.n - 1)),
                                spectrum_cyclic(self.p))

    def build(self) -> GroupTable:
        """The group on pairs (i, j), index i*p + j, with product
        (i1,j1)*(i2,j2) = (i1 + i2*(1+p^(n-2))^j1 mod p^(n-1), j1+j2 mod p).
        The presentation's conjugation relation holds for a = (1,0), b = (0,p-1).
        """
        import numpy as np
        p = self.p
        P = p ** (self.n - 1)
        e = 1 + p ** (self.n - 2)
        dt = index_dtype(P * p)
        # rows (0, j1): (i2 * e^j1 mod P, j1 + j2 mod p); i1 only translates them
        twist = (np.outer([pow(e, j, P) for j in range(p)], np.arange(P)) % P).astype(dt)
        block = twist[:, :, None] * p + _addition_table(p).astype(dt)[:, None, :]   # [j1, i2, j2]
        g = GroupTable(P * p, 0, table=_translated(block.reshape(p, P * p), P * p),
                       name=self.render(),
                       labels=lambda: [f"a{i}b{j}" for i in range(P) for j in range(p)])
        a, b, b_inv = p, p - 1, 1      # (1,0), (0,p-1), (0,1)
        return _checked(g, {
            "a^(p^(n-1)) = 1": g.power(a, P) == g.identity,
            "b^p = 1": g.power(b, p) == g.identity,
            "b^-1 a b = a^(1+p^(n-2))": g.product(g.product(b_inv, a), b) == (e % P) * p,
        })


@dataclass(frozen=True)
class Dihedral(GroupSpec):
    order: int

    def __post_init__(self) -> None:
        _check_order("D", self.order)
        if self.order < 4 or self.order % 2:
            raise InputError(f"D{self.order}: dihedral order must be even and >= 4")

    def render(self) -> str:
        return f"D{self.order}"

    def spectrum(self) -> OrderSpectrum:
        k = self.order // 2
        return _merge_spectrum(spectrum_cyclic(k), {2: k})

    def build(self) -> GroupTable:
        """The group on pairs (rotation, flip)."""
        import numpy as np
        k = self.order // 2
        neg = -np.arange(k) % k
        g = GroupTable(self.order, 0, table=_two_coset_table(k, neg, neg), name=self.render(),
                       labels=lambda: [f"r{i}" for i in range(k)] + [f"s{i}" for i in range(k)])
        r, s = 1 % k, k
        return _checked(g, {
            "r^k = 1": g.power(r, k) == g.identity,
            "s^2 = 1": g.power(s, 2) == g.identity,
            "s r s = r^-1": g.product(g.product(s, r), s) == g.power(r, k - 1),
        })


@dataclass(frozen=True)
class GeneralizedQuaternion(GroupSpec):
    order: int

    def __post_init__(self) -> None:
        _check_order("Q", self.order)
        if not _is_power_of_two(self.order) or self.order < 8:
            raise InputError(f"Q{self.order}: order must be a power of two >= 8")

    def render(self) -> str:
        return f"Q{self.order}"

    def spectrum(self) -> OrderSpectrum:
        nn = self.order // 2
        return _merge_spectrum(spectrum_cyclic(nn), {4: nn})

    def build(self) -> GroupTable:
        """The group of order 2^n on pairs (a, b), index a + 2^(n-1)*b:
        x = (1,0) has order 2^(n-1), y = (0,1) satisfies y^2 = x^(2^(n-2)) and
        y^-1 x y = x^-1, so x^a1 y^b1 * x^a2 y^b2 =
        x^(a1 + (-1)^b1 a2 + 2^(n-2) b1 b2) y^(b1 + b2 mod 2). Q8 carries the
        classical 1, i, j, k labels."""
        import numpy as np
        nn = self.order // 2
        half = nn // 2
        idx = np.arange(nn)
        g = GroupTable(self.order, 0, table=_two_coset_table(nn, -idx % nn, (half - idx) % nn),
                       name=self.render(),
                       labels=lambda: (["1", "i", "-1", "-i", "j", "k", "-j", "-k"] if nn == 4
                                       else _two_coset_labels(nn)))
        x, y = 1, nn
        y_inv = g.power(y, 3)
        return _checked(g, {
            "x^(2^(n-1)) = 1": g.power(x, nn) == g.identity,
            "y^2 = x^(2^(n-2))": g.power(y, 2) == g.power(x, half),
            "y^-1 x y = x^-1": g.product(g.product(y_inv, x), y) == g.power(x, nn - 1),
        })


@dataclass(frozen=True)
class Semidihedral(GroupSpec):
    order: int

    def __post_init__(self) -> None:
        _check_order("SD", self.order)
        if not _is_power_of_two(self.order) or self.order < 16:
            raise InputError(f"SD{self.order}: order must be a power of two >= 16")

    def render(self) -> str:
        return f"SD{self.order}"

    def spectrum(self) -> OrderSpectrum:
        nn = self.order // 2
        return _merge_spectrum(spectrum_cyclic(nn), {2: nn // 2, 4: nn // 2})

    def build(self) -> GroupTable:
        """The group of order 2^n on pairs (a, b), index a + 2^(n-1)*b, with
        y^2 = 1 and y x y = x^t, t = 2^(n-2) - 1, so
        x^a1 y^b1 * x^a2 y^b2 = x^(a1 + t^b1 a2) y^(b1 + b2 mod 2)."""
        import numpy as np
        nn = self.order // 2
        t = nn // 2 - 1
        twist = np.arange(nn) * t % nn
        g = GroupTable(self.order, 0, table=_two_coset_table(nn, twist, twist),
                       name=self.render(), labels=lambda: _two_coset_labels(nn))
        x, y = 1, nn
        return _checked(g, {
            "x^(2^(n-1)) = 1": g.power(x, nn) == g.identity,
            "y^2 = 1": g.power(y, 2) == g.identity,
            "y x y = x^(2^(n-2)-1)": g.product(g.product(y, x), y) == g.power(x, t),
        })


@dataclass(frozen=True)
class Heisenberg(GroupSpec):
    """Upper unitriangular 3x3 matrices over Z_p, odd p; order p^3, exponent p."""

    p: int

    def __post_init__(self) -> None:
        _check_order("He", self.p, 3)
        if not is_prime(self.p) or self.p == 2:
            raise InputError(f"He{self.p}: needs an odd prime")

    @property
    def order(self) -> int:
        return self.p ** 3

    def render(self) -> str:
        return f"He{self.p}"

    def spectrum(self) -> OrderSpectrum:
        return OrderSpectrum({1: 1, self.p: self.p ** 3 - 1}, (self.p,))

    def build(self) -> GroupTable:
        """Triples (a, b, c), index (a*p + b)*p + c, with
        (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2). The p^2-by-p^2
        addition table of the lower digits (b, c), its columns permuted by
        (b2, c2) -> (b2, c2 + a1*b2), is the lower part of every entry in row
        block a1; one add of the (a1+a2)*p^2 offsets writes that block row."""
        import numpy as np
        p = self.p
        n = p ** 3
        p2 = p * p
        dt = index_dtype(n)
        add = _addition_table(p).astype(dt)
        low = (add[:, None, :, None] * p + add[None, :, None, :]).reshape(p2, p2)
        b2, c2 = np.divmod(np.arange(p2), p)
        offsets = (add * p2)[:, None, :, None]                          # [a1, 1, a2, 1]
        table = np.empty((p, p2, p, p2), dtype=dt)                      # [a1, b1c1, a2, b2c2]
        for a1 in range(p):
            twisted = low[:, b2 * p + (c2 + a1 * b2) % p]
            np.add(twisted[:, None, :], offsets[a1], out=table[a1])
        g = GroupTable(n, 0, table=table.reshape(n, n), name=self.render(),
                       labels=lambda: [f"({x},{y},{z})" for x in range(p) for y in range(p)
                                       for z in range(p)])
        x, y, z = p2, p, 1      # (1,0,0), (0,1,0), (0,0,1)
        x_inv = g.power(x, p - 1)
        y_inv = g.power(y, p - 1)
        comm = g.product(g.product(g.product(x_inv, y_inv), x), y)
        return _checked(g, {
            "x^p = 1": g.power(x, p) == g.identity,
            "y^p = 1": g.power(y, p) == g.identity,
            "[x,y] = z": comm == z,
            "[x,z] = 1": g.product(x, z) == g.product(z, x),
        })


@dataclass(frozen=True)
class FileTable(GroupSpec):
    path: str

    def __post_init__(self) -> None:
        if not self.path:
            raise InputError("file: spec needs a path")

    @cached_property
    def table(self) -> GroupTable:
        """The group in the Cayley file, read when first asked for, so each
        atom of a parsed spec reads its file once."""
        return read_cayley(self.path)

    @property
    def order(self) -> int:
        return self.table.size

    def render(self) -> str:
        return f"file:{self.path}"

    def spectrum(self) -> OrderSpectrum:
        return order_spectrum(self.table)

    def build(self) -> GroupTable:
        return self.table


def join_names(names: list[str]) -> str:
    """Atom names joined as a direct product: by x, with spaces when one is a
    file: path, since a path runs to the next whitespace."""
    return (" x " if any(name.startswith("file:") for name in names) else "x").join(names)


@dataclass(frozen=True, eq=False, repr=False)
class Product(GroupSpec):
    """A direct product. Equality, hash and repr go by the atoms, not the
    nesting, so that they never recurse."""

    left: GroupSpec
    right: GroupSpec

    def factors(self) -> list[GroupSpec]:
        """The atoms, left to right, walked with a stack: a spec of thousands
        of atoms nests as deep."""
        atoms, stack = [], [self]
        while stack:
            spec = stack.pop()
            if isinstance(spec, Product):
                stack += (spec.right, spec.left)
            else:
                atoms.append(spec)
        return atoms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Product):
            return NotImplemented
        return self.factors() == other.factors()

    def __hash__(self) -> int:
        return hash(tuple(self.factors()))

    def __repr__(self) -> str:
        return f"Product({', '.join(map(repr, self.factors()))})"

    @property
    def order(self) -> int:
        return prod(f.order for f in self.factors())

    def render(self) -> str:
        return join_names([f.render() for f in self.factors()])

    def spectrum(self) -> OrderSpectrum:
        return reduce(spectrum_product, [f.spectrum() for f in self.factors()])

    def build(self) -> GroupTable:
        return reduce(direct_product, [f.build() for f in self.factors()])


# the atoms written as a prefix and one integer
_INT_ATOMS = (("SD", Semidihedral), ("He", Heisenberg), ("C", Cyclic), ("D", Dihedral),
              ("Q", GeneralizedQuaternion))


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the mini-language into a validated GroupSpec."""
    s = text
    n = len(s)
    pos = 0

    def error(msg: str, at: int) -> InputError:
        return InputError(f"bad group spec {text!r}: {msg} (position {at})")

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and s[pos].isdigit():
            pos += 1
        if start == pos:
            raise error("expected an integer", start)
        if pos - start > _ORDER_DIGITS:
            raise error(f"an integer of {pos - start} digits is longer than any "
                        f"group order a spec may name", start)
        return int(s[start:pos])

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= n or s[pos] != ch:
            raise error(f"expected {ch!r}", pos)
        pos += 1

    def parse_atom() -> GroupSpec:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise error("expected a group atom", pos)
        if s.startswith("file:", pos):
            pos += 5
            start = pos
            while pos < n and not s[pos].isspace():
                pos += 1
            if start == pos:
                raise error("empty file path", start)
            return FileTable(s[start:pos])
        if s.startswith("Ab", pos):
            pos += 2
            expect("(")
            p = read_int()
            expect(";")
            parts = [read_int()]
            while True:
                skip_ws()
                if pos < n and s[pos] == ",":
                    pos += 1
                    parts.append(read_int())
                else:
                    break
            expect(")")
            return Abelian(p, tuple(parts))
        if s.startswith("M", pos):
            pos += 1
            expect("(")
            nn = read_int()
            expect(",")
            p = read_int()
            expect(")")
            return Modular(nn, p)
        for prefix, family in _INT_ATOMS:
            if s.startswith(prefix, pos):
                pos += len(prefix)
                return family(read_int())
        raise error(f"unrecognized group atom starting with {s[pos]!r}", pos)

    spec = parse_atom()
    while True:
        skip_ws()
        if pos >= n:
            break
        if s[pos] == "x":
            pos += 1
            spec = Product(spec, parse_atom())
        else:
            raise error(f"expected 'x' or end of spec, got {s[pos]!r}", pos)
    # a file's order is bounded by the table it holds, which is read when first needed
    _check_order("product", prod(f.order for f in spec.factors() if not isinstance(f, FileTable)))
    return spec


def build_group(spec: GroupSpec, cap: int = DEFAULT_TABLE_CAP) -> GroupTable:
    """Build a spec's dense table. Orders above cap raise ResourceError before
    any family builds its table, but after each file: atom is read, once, to
    learn its order."""
    check_brute_cap(spec.render(), spec.order, cap)
    return spec.build()


# ---------------------------------------------------------------------------
# p-group catalogs
# ---------------------------------------------------------------------------

class Completeness(str, Enum):
    COMPLETE = "complete"
    COMPLETE_VIA_CENSUS = "complete-via-ingested-census"
    INCOMPLETE = "incomplete"


def merge_completeness(values: "list[Completeness]") -> Completeness:
    """The weakest of values: incomplete, else complete via the census, else complete."""
    for weakest in (Completeness.INCOMPLETE, Completeness.COMPLETE_VIA_CENSUS):
        if weakest in values:
            return weakest
    return Completeness.COMPLETE


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog group; spectrum, sigma and phi (order, totient sums) are computed when read."""

    spec: GroupSpec
    source: str               # "parametric" or the census file name
    validation: str | None = None     # a census table's validation mode

    @cached_property
    def spectrum(self) -> OrderSpectrum:
        return self.spec.spectrum()

    @cached_property
    def sigma(self) -> int:
        return order_sum(self.spectrum)

    @cached_property
    def phi(self) -> int:
        return phi_sum(self.spectrum)

    @property
    def is_cyclic(self) -> bool:
        """Whether some element's order is the group order."""
        return self.spectrum.total in self.spectrum

    def render(self) -> str:
        return self.spec.render()


@dataclass(frozen=True)
class Census:
    """Census tables, laid out as <dir>/<order>/*.cayley: the one reader of
    that layout. Each order directory's name is read by census_order."""

    dir: str | Path

    def exists(self) -> bool:
        """Whether the root is a directory, so that any table could be read."""
        return Path(self.dir).is_dir()

    def tables(self, order: int) -> list[Path]:
        """The tables under <dir>/<order>/, sorted; one stat when it is absent."""
        order_dir = Path(self.dir) / str(order)
        return sorted(order_dir.glob("*.cayley")) if order_dir.is_dir() else []

    def orders(self) -> list[int]:
        """The orders whose directories hold a table, from one listing of the root."""
        if not self.exists():
            return []
        return [q for d in Path(self.dir).iterdir()
                if (q := census_order(d.name)) is not None
                and d.is_dir() and any(d.glob("*.cayley"))]

    def every_table(self) -> list[tuple[Path, int | None]]:
        """Every table at any depth under the root, sorted, each with the
        order its directory names (census_order), else None."""
        return [(f, census_order(f.parent.name)) for f in sorted(Path(self.dir).rglob("*.cayley"))]

    def admit(self, path: Path, order: int | None = None) -> CatalogEntry:
        """The table at path as a catalog entry, read once into its FileTable,
        checked to have the given order and validated exhaustively (`validate`).
        Raises InputError for a table that is not a group of that order."""
        spec = FileTable(str(path))
        if order is not None and spec.order != order:
            raise InputError(f"{path}: order {spec.order} does not match census directory {order}")
        report = validate(spec.table)
        if not report.ok:
            fail = report.failure
            raise InputError(f"{path}: not a group table ({fail.axiom} failed on "
                             f"witness {fail.witness}: {fail.detail})")
        return CatalogEntry(spec, path.name, report.mode)


def census_order(name: str) -> int | None:
    """The order q that a census subdirectory holds when its name is str(q), else None."""
    return int(name) if name.isdecimal() and str(int(name)) == name else None


def _partitions(k: int) -> list[tuple[int, ...]]:
    """Non-increasing partitions of k in descending lexicographic order."""
    if k == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for a in range(min(remaining, largest), 0, -1):
            rec(remaining - a, a, prefix + (a,))

    rec(k, k, ())
    return out


def _partition_count(k: int) -> int:
    """The number of partitions of k, by Euler's pentagonal-number recurrence."""
    counts = [1]
    for j in range(1, k + 1):
        total, i = 0, 1
        while (g := i * (3 * i - 1) // 2) <= j:
            term = counts[j - g] + (counts[j - g - i] if g + i <= j else 0)
            total += term if i % 2 else -term
            i += 1
        counts.append(total)
    return counts[k]


def _nonabelian_families(p: int, k: int) -> list[GroupSpec]:
    """The non-abelian families that the catalog of order p^k lists beside
    its abelian groups: at k = 3 D8 and Q8, or He(p) and M(3,p) for odd p,
    which complete it; at k >= 4 M(k,p), with D, Q and SD of order 2^k at
    p = 2, a strict subset of the non-abelian classes."""
    if k == 3:
        return [Dihedral(8), GeneralizedQuaternion(8)] if p == 2 \
            else [Heisenberg(p), Modular(3, p)]
    if k < 4:
        return []
    return [Modular(k, p)] + ([Dihedral(2 ** k), GeneralizedQuaternion(2 ** k),
                               Semidihedral(2 ** k)] if p == 2 else [])


def _completeness(k: int, census_tables: bool) -> Completeness:
    """Complete for k <= 3, where the catalog lists every class; above, complete
    via the census when it holds tables of order p^k, else incomplete."""
    if k <= 3:
        return Completeness.COMPLETE
    return Completeness.COMPLETE_VIA_CENSUS if census_tables else Completeness.INCOMPLETE


def parametric_catalog_size(p: int, k: int) -> tuple[int, Completeness]:
    """The entry count and completeness of p_group_catalog(p, k) with no
    census, without listing its abelian groups: one abelian group per
    partition of k, and the non-abelian families. The caller bounds k."""
    return (_partition_count(k) + len(_nonabelian_families(p, k)),
            _completeness(k, census_tables=False))


def p_group_catalog(p: int, k: int, census: Census | None = None
                    ) -> tuple[list[CatalogEntry], Completeness]:
    """Known groups of order p^k as entries, each spectrum computed when first read.

    The parametric entries are one abelian group per partition of k, then
    the non-abelian families (_nonabelian_families); _completeness says when
    they are every class. Each table the census holds at order p^k is
    admitted by census.admit. One whose spectrum exactly duplicates an
    existing entry is dropped because the rankings read only spectra, not
    because its class is already listed: census/16 holds 14 classes, and
    the order-16 catalog keeps 10 entries, as c4rc4 and q8xc2 share C4xC4's
    spectrum and c4xc2rc2 and d8oc4 share C4xC2xC2's (ROADMAP item 1 would
    decide completeness by a class count). Raises ResourceError, before
    listing any group, when the partitions of k exceed CATALOG_BOUND.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if k < 1:
        raise InputError(f"exponent must be >= 1, got {k}")
    # the recurrence costs k^1.5 steps; past k = 1000 the count is only bounded below
    count = _partition_count(min(k, 1000))
    if count > CATALOG_BOUND:
        raise ResourceError(
            f"order {p}^{k} has {'more than ' if k > 1000 else ''}{count} abelian groups, "
            f"one per partition of {k}, above the catalog bound {CATALOG_BOUND}")
    specs = [Cyclic(p ** k) if part == (k,) else Abelian(p, part) for part in _partitions(k)]
    entries = [CatalogEntry(s, "parametric") for s in specs + _nonabelian_families(p, k)]
    files = [] if census is None else census.tables(p ** k)
    if files:
        seen = {e.spectrum for e in entries}
        for f in files:
            entry = census.admit(f, p ** k)
            if entry.spectrum not in seen:
                seen.add(entry.spectrum)
                entries.append(entry)
    return entries, _completeness(k, bool(files))
