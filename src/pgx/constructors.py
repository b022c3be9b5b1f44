"""Structured group families, the group-spec mini-language, and p-group catalogs.

Families are built as indexed models (residue tuples), each law written once
as a dense table assembled in int32 from small lookup tables, so no builder
computes a residue over all n^2 entries. `build_group` refuses orders above
the brute-force cap before anything n-by-n is allocated.
Every constructor asserts its defining relations on the freshly built model.

Spec grammar (whitespace-insensitive, `x` is a left-associative product):

    C<m> | M(<n>,<p>) | D<order> | Q<order> | SD<order> | He<p>
        | Ab(<p>;<part,...>) | file:<path>

A `file:` path runs to the next whitespace, so products involving files need
a space-separated x.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from math import prod
from pathlib import Path
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, InvariantError
from .groups import DEFAULT_TABLE_CAP, GroupTable, check_brute_cap, read_cayley, validate
from .spectrum import (
    OrderSpectrum,
    is_prime,
    order_spectrum,
    spectrum_cyclic,
    spectrum_product,
)


# ---------------------------------------------------------------------------
# Group specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cyclic:
    m: int


@dataclass(frozen=True)
class Abelian:
    """Abelian p-group C_{p^a1} x C_{p^a2} x ... for a non-increasing partition."""

    p: int
    partition: tuple[int, ...]


@dataclass(frozen=True)
class Modular:
    """Modular maximal-cyclic 2-generator group of order p^n, n >= 3.

    Presentation <a, b | a^(p^(n-1)) = b^p = 1, b^-1 a b = a^(1+p^(n-2))>.
    For p = 2 this needs n >= 4 (at order 8 the presentation gives D8).
    """

    n: int
    p: int


@dataclass(frozen=True)
class Dihedral:
    order: int


@dataclass(frozen=True)
class GeneralizedQuaternion:
    order: int


@dataclass(frozen=True)
class Semidihedral:
    order: int


@dataclass(frozen=True)
class Heisenberg:
    """Upper unitriangular 3x3 matrices over Z_p, odd p; order p^3, exponent p."""

    p: int


@dataclass(frozen=True)
class FileTable:
    path: str


@dataclass(frozen=True)
class Product:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Union[Cyclic, Abelian, Modular, Dihedral, GeneralizedQuaternion,
                  Semidihedral, Heisenberg, FileTable, Product]


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def validate_spec(spec: GroupSpec) -> None:
    """Semantic checks on a parsed or constructed spec; raises InputError."""
    if isinstance(spec, Cyclic):
        if spec.m < 1:
            raise InputError(f"C{spec.m}: order must be positive")
    elif isinstance(spec, Abelian):
        if not is_prime(spec.p):
            raise InputError(f"Ab({spec.p};...): {spec.p} is not prime")
        parts = spec.partition
        if any(a < 1 for a in parts):
            raise InputError("Ab: partition entries must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InputError(f"Ab: partition {list(parts)} must be non-increasing")
    elif isinstance(spec, Modular):
        if not is_prime(spec.p):
            raise InputError(f"M({spec.n},{spec.p}): {spec.p} is not prime")
        if spec.n < 3:
            raise InputError(f"M({spec.n},{spec.p}): need n >= 3")
        if spec.p == 2 and spec.n < 4:
            raise InputError("M(3,2) is excluded: the presentation collapses to D8")
    elif isinstance(spec, Dihedral):
        if spec.order < 4 or spec.order % 2:
            raise InputError(f"D{spec.order}: dihedral order must be even and >= 4")
    elif isinstance(spec, GeneralizedQuaternion):
        if not _is_power_of_two(spec.order) or spec.order < 8:
            raise InputError(f"Q{spec.order}: order must be a power of two >= 8")
    elif isinstance(spec, Semidihedral):
        if not _is_power_of_two(spec.order) or spec.order < 16:
            raise InputError(f"SD{spec.order}: order must be a power of two >= 16")
    elif isinstance(spec, Heisenberg):
        if not is_prime(spec.p) or spec.p == 2:
            raise InputError(f"He{spec.p}: needs an odd prime")
    elif isinstance(spec, FileTable):
        if not spec.path:
            raise InputError("file: spec needs a path")
    elif isinstance(spec, Product):
        validate_spec(spec.left)
        validate_spec(spec.right)
    else:
        raise InputError(f"unknown spec {spec!r}")


def _flatten(spec: GroupSpec) -> list[GroupSpec]:
    if isinstance(spec, Product):
        return _flatten(spec.left) + _flatten(spec.right)
    return [spec]


def render_spec(spec: GroupSpec) -> str:
    """Canonical spec string; parse_group_spec(render_spec(s)) == s for products
    of non-file atoms."""
    if isinstance(spec, Product):
        parts = _flatten(spec)
        sep = " x " if any(isinstance(s, FileTable) for s in parts) else "x"
        return sep.join(render_spec(s) for s in parts)
    if isinstance(spec, Cyclic):
        return f"C{spec.m}"
    if isinstance(spec, Abelian):
        if not spec.partition:
            return "C1"
        return f"Ab({spec.p};{','.join(str(a) for a in spec.partition)})"
    if isinstance(spec, Modular):
        return f"M({spec.n},{spec.p})"
    if isinstance(spec, Dihedral):
        return f"D{spec.order}"
    if isinstance(spec, GeneralizedQuaternion):
        return f"Q{spec.order}"
    if isinstance(spec, Semidihedral):
        return f"SD{spec.order}"
    if isinstance(spec, Heisenberg):
        return f"He{spec.p}"
    if isinstance(spec, FileTable):
        return f"file:{spec.path}"
    raise InputError(f"unknown spec {spec!r}")


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
        if s.startswith("SD", pos):
            pos += 2
            return Semidihedral(read_int())
        if s.startswith("He", pos):
            pos += 2
            return Heisenberg(read_int())
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
        c = s[pos]
        if c == "C":
            pos += 1
            return Cyclic(read_int())
        if c == "D":
            pos += 1
            return Dihedral(read_int())
        if c == "Q":
            pos += 1
            return GeneralizedQuaternion(read_int())
        raise error(f"unrecognized group atom starting with {c!r}", pos)

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
    validate_spec(spec)
    return spec


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------

def _addition_table(m: int) -> np.ndarray:
    """(i + j) mod m as a read-only m-by-m int32 view: row i is the window
    starting at i of 0..m-1 written twice."""
    idx = np.arange(m, dtype=np.int32)
    return sliding_window_view(np.concatenate([idx, idx]), m)[:m]


def _two_coset_table(nn: int, twist0: np.ndarray, twist1: np.ndarray) -> np.ndarray:
    """Table on pairs (a, b), index a + nn*b with b in {0, 1}, of the product
    (a1, 0)(a2, b2) = (a1 + a2, b2) and (a1, 1)(a2, b2) = (a1 + twist_b2[a2], 1 - b2),
    first coordinates mod nn."""
    add = _addition_table(nn)
    return np.block([[add, add + nn], [add[:, twist0] + nn, add[:, twist1]]])


def cyclic(m: int) -> GroupTable:
    """Cyclic group Z_m under addition."""
    if m < 1:
        raise InputError(f"cyclic group order must be positive, got {m}")
    return GroupTable(m, 0, table=_addition_table(m), name=f"C{m}",
                      labels=[str(i) for i in range(m)])


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Direct product; index (a, b) <-> a * |h| + b."""
    n = g.size * h.size
    table = (g.table[:, None, :, None] * h.size + h.table[None, :, None, :]).reshape(n, n)
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = [f"({la},{lb})" for la in g.labels for lb in h.labels]
    return GroupTable(n, g.identity * h.size + h.identity, table=table,
                      name=f"{g.name}x{h.name}", labels=labels)


def _assert_relation(cond: bool, name: str, relation: str) -> None:
    if not cond:
        raise InvariantError(f"{name}: defining relation {relation} failed in the model")


def modular_group(n: int, p: int) -> GroupTable:
    """Modular maximal-cyclic group of order p^n on pairs (i, j).

    Product: (i1,j1)*(i2,j2) = (i1 + i2*(1+p^(n-2))^j1 mod p^(n-1), j1+j2 mod p).
    The presentation's conjugation relation holds for a = (1,0), b = (0,p-1).
    """
    spec = Modular(n, p)
    validate_spec(spec)
    P = p ** (n - 1)
    N = P * p
    e = 1 + p ** (n - 2)
    ew = [pow(e, j, P) for j in range(p)]
    name = f"M({n},{p})"
    # index i*p + j; i2 * ew[j1] mod P is a p-by-P lookup table
    twist = np.outer(ew, np.arange(P)) % P
    i_out = np.take(_addition_table(P) * p, twist, axis=1)   # [i1, j1, i2]
    table = (i_out[:, :, :, None] + _addition_table(p)[None, :, None, :]).reshape(N, N)
    labels = [f"a{i}b{j}" for i in range(P) for j in range(p)]
    g = GroupTable(N, 0, table=table, name=name, labels=labels)
    a = 1 * p + 0
    b = 0 * p + (p - 1)
    b_inv = 0 * p + 1
    _assert_relation(g.power(a, P) == g.identity, name, "a^(p^(n-1)) = 1")
    _assert_relation(g.power(b, p) == g.identity, name, "b^p = 1")
    conj = g.product(g.product(b_inv, a), b)
    _assert_relation(conj == (e % P) * p, name, "b^-1 a b = a^(1+p^(n-2))")
    return g


def abelian_from_partition(p: int, partition: tuple[int, ...] | list[int]) -> GroupTable:
    """Direct product of cyclic p-power groups for a non-increasing partition.

    An empty partition yields the trivial group.
    """
    spec = Abelian(p, tuple(partition))
    validate_spec(spec)
    if not spec.partition:
        return cyclic(1)
    g = cyclic(p ** spec.partition[0])
    for a in spec.partition[1:]:
        g = direct_product(g, cyclic(p ** a))
    if len(spec.partition) > 1:
        g.name = render_spec(spec)
    return g


def dihedral(order: int) -> GroupTable:
    """Dihedral group of the given (even) order, on pairs (rotation, flip)."""
    spec = Dihedral(order)
    validate_spec(spec)
    k = order // 2
    name = f"D{order}"
    neg = -np.arange(k) % k
    table = _two_coset_table(k, neg, neg)
    labels = [f"r{i}" for i in range(k)] + [f"s{i}" for i in range(k)]
    g = GroupTable(order, 0, table=table, name=name, labels=labels)
    r_gen, s_gen = 1 % k, k
    _assert_relation(g.power(r_gen, k) == g.identity, name, "r^k = 1")
    _assert_relation(g.power(s_gen, 2) == g.identity, name, "s^2 = 1")
    _assert_relation(g.product(g.product(s_gen, r_gen), s_gen) == g.power(r_gen, k - 1),
                     name, "s r s = r^-1")
    return g


def generalized_quaternion(order: int) -> GroupTable:
    """Generalized quaternion group of order 2^n >= 8, on pairs (a, b).

    x = (1,0) has order 2^(n-1); y = (0,1) satisfies y^2 = x^(2^(n-2)) and
    y^-1 x y = x^-1. Q8 carries the classical 1, i, j, k labels.
    """
    spec = GeneralizedQuaternion(order)
    validate_spec(spec)
    nn = order // 2
    half = nn // 2
    name = f"Q{order}"
    idx = np.arange(nn)
    table = _two_coset_table(nn, -idx % nn, (half - idx) % nn)
    if order == 8:
        labels = ["1", "i", "-1", "-i", "j", "k", "-j", "-k"]
    else:
        labels = [f"x{i}" for i in range(nn)] + [f"x{i}y" for i in range(nn)]
    g = GroupTable(order, 0, table=table, name=name, labels=labels)
    x, y = 1, nn
    _assert_relation(g.power(x, nn) == g.identity, name, "x^(2^(n-1)) = 1")
    _assert_relation(g.power(y, 2) == g.power(x, half), name, "y^2 = x^(2^(n-2))")
    y_inv = g.power(y, 3)
    _assert_relation(g.product(g.product(y_inv, x), y) == g.power(x, nn - 1),
                     name, "y^-1 x y = x^-1")
    return g


def semidihedral(order: int) -> GroupTable:
    """Semidihedral group of order 2^n >= 16: y x y = x^(2^(n-2)-1)."""
    spec = Semidihedral(order)
    validate_spec(spec)
    nn = order // 2
    t = nn // 2 - 1
    name = f"SD{order}"
    twist = np.arange(nn) * t % nn
    table = _two_coset_table(nn, twist, twist)
    labels = [f"x{i}" for i in range(nn)] + [f"x{i}y" for i in range(nn)]
    g = GroupTable(order, 0, table=table, name=name, labels=labels)
    x, y = 1, nn
    _assert_relation(g.power(x, nn) == g.identity, name, "x^(2^(n-1)) = 1")
    _assert_relation(g.power(y, 2) == g.identity, name, "y^2 = 1")
    _assert_relation(g.product(g.product(y, x), y) == g.power(x, t),
                     name, "y x y = x^(2^(n-2)-1)")
    return g


def heisenberg(p: int) -> GroupTable:
    """Heisenberg group over Z_p (odd p): order p^3, exponent p.

    Triples (a, b, c) with (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2).
    """
    spec = Heisenberg(p)
    validate_spec(spec)
    n = p ** 3
    p2 = p * p
    name = f"He{p}"
    # index (a*p + b)*p + c; every residue comes from p-by-p lookup tables
    add = _addition_table(p)
    mul = np.outer(np.arange(p), np.arange(p)) % p
    c_out = add[add[None, :, None, :], mul[:, None, :, None]]    # [a1, c1, b2, c2]
    table = ((add * p2)[:, None, None, :, None, None] + (add * p)[None, :, None, None, :, None]
             + c_out[:, None, :, None, :, :]).reshape(n, n)
    labels = [f"({x},{y},{z})" for x in range(p) for y in range(p) for z in range(p)]
    g = GroupTable(n, 0, table=table, name=name, labels=labels)
    x = p2          # (1,0,0)
    y = p           # (0,1,0)
    z = 1           # (0,0,1)
    _assert_relation(g.power(x, p) == g.identity, name, "x^p = 1")
    _assert_relation(g.power(y, p) == g.identity, name, "y^p = 1")
    x_inv = g.power(x, p - 1)
    y_inv = g.power(y, p - 1)
    comm = g.product(g.product(g.product(x_inv, y_inv), x), y)
    _assert_relation(comm == z, name, "[x,y] = z")
    _assert_relation(g.product(x, z) == g.product(z, x), name, "[x,z] = 1")
    return g


def order_of_spec(spec: GroupSpec) -> int:
    """Group order of a spec; reads the file header for file: specs."""
    if isinstance(spec, Cyclic):
        return spec.m
    if isinstance(spec, Abelian):
        return spec.p ** sum(spec.partition)
    if isinstance(spec, Modular):
        return spec.p ** spec.n
    if isinstance(spec, (Dihedral, GeneralizedQuaternion, Semidihedral)):
        return spec.order
    if isinstance(spec, Heisenberg):
        return spec.p ** 3
    if isinstance(spec, Product):
        return order_of_spec(spec.left) * order_of_spec(spec.right)
    if isinstance(spec, FileTable):
        return read_cayley(spec.path).size
    raise InputError(f"unknown spec {spec!r}")


def build_group(spec: GroupSpec, cap: int = DEFAULT_TABLE_CAP) -> GroupTable:
    """Build a spec's dense table. Orders above cap raise ResourceError before
    anything n-by-n is allocated; each file: atom is read once."""
    validate_spec(spec)
    atoms = _flatten(spec)
    files = {a.path: read_cayley(a.path) for a in atoms if isinstance(a, FileTable)}
    order = prod(files[a.path].size if isinstance(a, FileTable) else order_of_spec(a)
                 for a in atoms)
    check_brute_cap(render_spec(spec), order, cap)
    return _build(spec, files)


def _build(spec: GroupSpec, files: dict[str, GroupTable]) -> GroupTable:
    if isinstance(spec, Cyclic):
        return cyclic(spec.m)
    if isinstance(spec, Abelian):
        return abelian_from_partition(spec.p, spec.partition)
    if isinstance(spec, Modular):
        return modular_group(spec.n, spec.p)
    if isinstance(spec, Dihedral):
        return dihedral(spec.order)
    if isinstance(spec, GeneralizedQuaternion):
        return generalized_quaternion(spec.order)
    if isinstance(spec, Semidihedral):
        return semidihedral(spec.order)
    if isinstance(spec, Heisenberg):
        return heisenberg(spec.p)
    if isinstance(spec, FileTable):
        return files[spec.path]
    if isinstance(spec, Product):
        return direct_product(_build(spec.left, files), _build(spec.right, files))
    raise InputError(f"unknown spec {spec!r}")


def _merge_spectrum(s: OrderSpectrum, extra: dict[int, int]) -> OrderSpectrum:
    counts = dict(s.items())
    for d, c in extra.items():
        counts[d] = counts.get(d, 0) + c
    return OrderSpectrum(counts)


def spectrum_of_spec(spec: GroupSpec) -> OrderSpectrum:
    """Order spectrum of a spec without materializing a table where a closed
    form exists; file: specs are tallied from the ingested table."""
    validate_spec(spec)
    if isinstance(spec, Cyclic):
        return spectrum_cyclic(spec.m)
    if isinstance(spec, Abelian):
        if not spec.partition:
            return spectrum_cyclic(1)
        return reduce(spectrum_product,
                      (spectrum_cyclic(spec.p ** a) for a in spec.partition))
    if isinstance(spec, Modular):
        # M(n,p) shares its order spectrum with C_{p^(n-1)} x C_p; the tests
        # assert this against the concrete model for every buildable order.
        return spectrum_product(spectrum_cyclic(spec.p ** (spec.n - 1)),
                                spectrum_cyclic(spec.p))
    if isinstance(spec, Dihedral):
        k = spec.order // 2
        return _merge_spectrum(spectrum_cyclic(k), {2: k})
    if isinstance(spec, GeneralizedQuaternion):
        nn = spec.order // 2
        return _merge_spectrum(spectrum_cyclic(nn), {4: nn})
    if isinstance(spec, Semidihedral):
        nn = spec.order // 2
        return _merge_spectrum(spectrum_cyclic(nn), {2: nn // 2, 4: nn // 2})
    if isinstance(spec, Heisenberg):
        return OrderSpectrum({1: 1, spec.p: spec.p ** 3 - 1})
    if isinstance(spec, Product):
        return spectrum_product(spectrum_of_spec(spec.left),
                                spectrum_of_spec(spec.right))
    if isinstance(spec, FileTable):
        return order_spectrum(read_cayley(spec.path))
    raise InputError(f"unknown spec {spec!r}")


# ---------------------------------------------------------------------------
# p-group catalogs
# ---------------------------------------------------------------------------

class Completeness(str, Enum):
    COMPLETE = "complete"
    COMPLETE_VIA_CENSUS = "complete-via-ingested-census"
    INCOMPLETE = "incomplete"


def merge_completeness(values: "list[Completeness]") -> Completeness:
    if any(v is Completeness.INCOMPLETE for v in values):
        return Completeness.INCOMPLETE
    if any(v is Completeness.COMPLETE_VIA_CENSUS for v in values):
        return Completeness.COMPLETE_VIA_CENSUS
    return Completeness.COMPLETE


@dataclass(frozen=True)
class CatalogEntry:
    spec: GroupSpec
    spectrum: OrderSpectrum
    source: str               # "parametric" or the census file name

    def render(self) -> str:
        return render_spec(self.spec)


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


def p_group_catalog(p: int, k: int,
                    census_dir: str | Path | None = None
                    ) -> tuple[list[CatalogEntry], Completeness]:
    """Known groups of order p^k as (spec, spectrum) entries.

    Complete for k <= 3 (abelian + the classical non-abelian classes).
    For k >= 4 the parametric families are a strict subset, so completeness
    is 'incomplete' unless a census directory for the order is ingested.
    Ingested tables are validated; one whose spectrum exactly duplicates an
    existing entry is dropped (the class is already represented).
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if k < 1:
        raise InputError(f"exponent must be >= 1, got {k}")
    specs: list[GroupSpec] = []
    for part in _partitions(k):
        specs.append(Cyclic(p ** k) if part == (k,) else Abelian(p, part))
    if k == 3:
        if p == 2:
            specs.append(Dihedral(8))
            specs.append(GeneralizedQuaternion(8))
        else:
            specs.append(Heisenberg(p))
            specs.append(Modular(3, p))
    elif k >= 4:
        specs.append(Modular(k, p))
        if p == 2:
            specs.append(Dihedral(2 ** k))
            specs.append(GeneralizedQuaternion(2 ** k))
            specs.append(Semidihedral(2 ** k))
    entries = [CatalogEntry(s, spectrum_of_spec(s), "parametric") for s in specs]
    completeness = Completeness.COMPLETE if k <= 3 else Completeness.INCOMPLETE

    if census_dir is not None:
        order_dir = Path(census_dir) / str(p ** k)
        files = sorted(order_dir.glob("*.cayley")) if order_dir.is_dir() else []
        if files:
            seen = {e.spectrum for e in entries}
            for f in files:
                g = read_cayley(f)
                if g.size != p ** k:
                    raise InputError(
                        f"{f}: order {g.size} does not match census directory {p ** k}"
                    )
                report = validate(g)
                if not report.ok:
                    fail = report.failure
                    raise InputError(
                        f"{f}: not a group table ({fail.axiom} failed on "
                        f"witness {fail.witness}: {fail.detail})"
                    )
                spectrum = order_spectrum(g)
                if spectrum in seen:
                    continue
                seen.add(spectrum)
                entries.append(CatalogEntry(FileTable(str(f)), spectrum, f.name))
            completeness = (Completeness.COMPLETE if k <= 3
                            else Completeness.COMPLETE_VIA_CENSUS)
    return entries, completeness
