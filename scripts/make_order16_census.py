#!/usr/bin/env python3
"""Regenerate census/16: Cayley tables for all 14 isomorphism classes of
groups of order 16.

Eleven classes come from the package's parametric families and their direct
products; the remaining three are built here from explicit models:

  c4rc4    C4 x| C4        <a,b | a^4 = b^4 = 1, b^-1 a b = a^-1>
  c4xc2rc2 (C4 x C2) x| C2 <a,b,c | a^4 = b^2 = c^2 = 1, ab = ba,
                            c a c = a b, c b c = b>
  d8oc4    D8 o C4         central product: (D8 x C4) / <(r^2, 2)>

Each handmade law is written once, as a numpy-broadcastable function of
index arrays. Every table is validated in full (all 4096 triples), the
handmade models are checked against their defining relations, and models
that share an order spectrum with another class are distinguished by an
explicit invariant (center structure, or the set of squares of order-4
elements), so the 14 files really are 14 distinct classes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from pgx.constructors import Dihedral, build_group, parse_group_spec
from pgx.groups import GroupTable, validate, write_cayley
from pgx.spectrum import order_spectrum


def law_table(law) -> np.ndarray:
    """The 16-by-16 table whose entry (x, y) is law(x, y)."""
    x = np.arange(16)
    return law(x[:, None], x[None, :])


def c4_semidirect_c4() -> GroupTable:
    """C4 x| C4 with the second factor acting by inversion; index i*4 + j."""
    def law(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        i1, j1 = np.divmod(x, 4)
        i2, j2 = np.divmod(y, 4)
        i = np.where(j1 % 2 == 0, i1 + i2, i1 - i2) % 4
        return i * 4 + (j1 + j2) % 4

    g = GroupTable(16, 0, table=law_table(law), name="c4rc4")
    a, b = 4, 1
    assert g.power(a, 4) == 0 and g.power(b, 4) == 0
    b_inv = g.power(b, 3)
    assert g.product(g.product(b_inv, a), b) == g.power(a, 3), "b^-1 a b != a^-1"
    return g


def c4xc2_semidirect_c2() -> GroupTable:
    """(C4 x C2) x| C2, the involution sending (i, j) to (i, j + i).

    Index ((i*2) + j)*2 + l for (i, j, l) in Z4 x Z2 x Z2.
    """
    def law(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        i1, r1 = np.divmod(x, 4)
        j1, l1 = np.divmod(r1, 2)
        i2, r2 = np.divmod(y, 4)
        j2, l2 = np.divmod(r2, 2)
        return ((i1 + i2) % 4) * 4 + ((j1 + j2 + l1 * i2) % 2) * 2 + (l1 + l2) % 2

    g = GroupTable(16, 0, table=law_table(law), name="c4xc2rc2")
    a, b, c = 4, 2, 1
    assert g.power(a, 4) == 0 and g.power(b, 2) == 0 and g.power(c, 2) == 0
    assert g.product(a, b) == g.product(b, a), "a and b must commute"
    assert g.product(g.product(c, a), c) == g.product(a, b), "c a c != a b"
    assert g.product(g.product(c, b), c) == b, "c b c != b"
    return g


def d8_central_c4() -> GroupTable:
    """Central product D8 o C4: (D8 x C4) / <(r^2, 2)>.

    The identified subgroup is central (r^2 generates the center of D8).
    Coset representatives are the pairs (d, c) with c in {0, 1}; index d*2 + c.
    """
    d8 = Dihedral(8).build().table
    r2 = 2                     # the rotation r^2 in the dihedral model

    def law(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d1, c1 = np.divmod(x, 2)
        d2, c2 = np.divmod(y, 2)
        d = d8[d1, d2]
        c = c1 + c2
        # fold by the identified central element
        return np.where(c >= 2, d8[d, r2], d) * 2 + c % 2

    return GroupTable(16, 0, table=law_table(law), name="d8oc4")


def center(g: GroupTable) -> list[int]:
    return [a for a in range(g.size)
            if all(g.product(a, b) == g.product(b, a) for b in range(g.size))]


def order4_squares(g: GroupTable) -> set[int]:
    orders = g.element_orders()
    return {g.power(a, 2) for a in range(g.size) if orders[a] == 4}


def main() -> int:
    out_dir = Path(__file__).resolve().parent.parent / "census" / "16"
    out_dir.mkdir(parents=True, exist_ok=True)

    spec_built = [
        ("c16", "C16"),
        ("c4xc4", "Ab(2;2,2)"),
        ("c8xc2", "Ab(2;3,1)"),
        ("c4xc2xc2", "Ab(2;2,1,1)"),
        ("c2c2c2c2", "Ab(2;1,1,1,1)"),
        ("d16", "D16"),
        ("sd16", "SD16"),
        ("q16", "Q16"),
        ("m4_2", "M(4,2)"),
        ("d8xc2", "D8xC2"),
        ("q8xc2", "Q8xC2"),
    ]
    groups: list[tuple[str, GroupTable]] = []
    for stem, spec in spec_built:
        groups.append((stem, build_group(parse_group_spec(spec))))
    groups.append(("c4rc4", c4_semidirect_c4()))
    groups.append(("c4xc2rc2", c4xc2_semidirect_c2()))
    groups.append(("d8oc4", d8_central_c4()))

    assert len(groups) == 14
    for stem, g in groups:
        assert g.size == 16, stem
        report = validate(g)
        assert report.ok, f"{stem}: {report.failure}"

    by_spectrum: dict = {}
    for stem, g in groups:
        by_spectrum.setdefault(order_spectrum(g), []).append(stem)

    # Classes sharing a spectrum must be told apart by a real invariant:
    #  - q8xc2 vs c4rc4 (and abelian c4xc4): squares of the order-4 elements
    #    land on 1 involution in Q8xC2 but 2 in C4 x| C4;
    #  - c4xc2rc2 vs d8oc4 (and abelian c4xc2xc2): the center of the central
    #    product contains an order-4 element, the semidirect product's is
    #    elementary abelian.
    named = dict(groups)
    assert len(order4_squares(named["q8xc2"])) == 1
    assert len(order4_squares(named["c4rc4"])) == 2
    z_sd = center(named["c4xc2rc2"])
    z_cp = center(named["d8oc4"])
    orders_sd = named["c4xc2rc2"].element_orders()
    orders_cp = named["d8oc4"].element_orders()
    assert len(z_sd) == 4 and all(orders_sd[a] <= 2 for a in z_sd)
    assert len(z_cp) == 4 and any(orders_cp[a] == 4 for a in z_cp)

    for stem, g in groups:
        g.name = stem
        g.labels = None        # keep the files minimal; indices suffice
        write_cayley(g, out_dir / f"{stem}.cayley")

    print(f"wrote {len(groups)} tables to {out_dir}")
    print(f"{len(by_spectrum)} distinct order spectra:")
    for s, stems in sorted(by_spectrum.items(), key=lambda kv: kv[0].items()):
        print(f"  {dict(s.items())}: {', '.join(sorted(stems))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
