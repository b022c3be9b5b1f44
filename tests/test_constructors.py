"""Spec mini-language, family constructors, and p-group catalogs."""

import gc
import importlib.util
import weakref
from functools import reduce
from math import lcm

import numpy as np
import pytest

import pgx.constructors
import pgx.groups
import pgx.spectrum
from pgx.census import enumerate_nilpotent
from pgx.constructors import (
    CATALOG_BOUND,
    ORDER_BITS,
    Abelian,
    CatalogEntry,
    Census,
    Completeness,
    Cyclic,
    Dihedral,
    FileTable,
    GeneralizedQuaternion,
    GroupSpec,
    Heisenberg,
    Modular,
    Product,
    Semidihedral,
    _partitions,
    build_group,
    direct_product,
    merge_completeness,
    p_group_catalog,
    parse_group_spec,
)
from pgx.errors import InputError, ResourceError
from pgx.groups import index_dtype, read_cayley, validate, write_cayley
from pgx.spectrum import (OrderSpectrum, factor, order_spectrum, order_sum, phi_sum,
                          spectrum_cyclic, spectrum_product, totient)


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,spec", [
    ("C6", Cyclic(6)),
    ("C1", Cyclic(1)),
    ("D8", Dihedral(8)),
    ("Q8", GeneralizedQuaternion(8)),
    ("SD16", Semidihedral(16)),
    ("He3", Heisenberg(3)),
    ("M(4,2)", Modular(4, 2)),
    ("Ab(2;3,1)", Abelian(2, (3, 1))),
    ("Ab(5;2)", Abelian(5, (2,))),
    ("file:census/8/q8.cayley", FileTable("census/8/q8.cayley")),
    ("C9xC3", Product(Cyclic(9), Cyclic(3))),
    ("C2xC2xC2", Product(Product(Cyclic(2), Cyclic(2)), Cyclic(2))),
    ("D8xQ8xC5", Product(Product(Dihedral(8), GeneralizedQuaternion(8)), Cyclic(5))),
    (" C9 x C3 ", Product(Cyclic(9), Cyclic(3))),
    ("M( 4 , 2 ) x Ab( 3 ; 2 , 1 )",
     Product(Modular(4, 2), Abelian(3, (2, 1)))),
    ("C2 x file:k4.cayley", Product(Cyclic(2), FileTable("k4.cayley"))),
])
def test_parse_group_spec(text, spec):
    assert parse_group_spec(text) == spec


@pytest.mark.parametrize("text,fragment", [
    ("", "expected a group atom (position 0)"),
    ("   ", "expected a group atom"),
    ("Z5", "unrecognized group atom starting with 'Z' (position 0)"),
    ("C", "expected an integer (position 1)"),
    ("Cx3", "expected an integer (position 1)"),
    ("C6 y C3", "expected 'x' or end of spec, got 'y' (position 3)"),
    ("C6x", "expected a group atom"),
    ("Ab(3;2", "expected ')' (position 6)"),
    ("Ab(3)", "expected ';'"),
    ("M(4 2)", "expected ','"),
    ("file:", "empty file path (position 5)"),
    ("C0", "order must be positive"),
    ("Ab(4;1)", "4 is not prime"),
    ("Ab(3;1,2)", "must be non-increasing"),
    ("M(2,5)", "need n >= 3"),
    ("M(3,2)", "M(3,2) is excluded: the presentation collapses to D8"),
    ("M(3,9)", "9 is not prime"),
    ("D7", "must be even and >= 4"),
    ("D2", "must be even and >= 4"),
    ("Q12", "power of two >= 8"),
    ("Q4", "power of two >= 8"),
    ("SD8", "power of two >= 16"),
    ("He2", "needs an odd prime"),
    ("He6", "needs an odd prime"),
])
def test_parse_group_spec_errors(text, fragment):
    with pytest.raises(InputError) as err:
        parse_group_spec(text)
    assert fragment in str(err.value)
    if "position" in fragment:
        assert f"bad group spec {text!r}" in str(err.value)


@pytest.mark.parametrize("text", [
    "C6", "D8", "Q32", "SD16", "He7", "M(5,2)", "Ab(2;2,2)",
    "C9xC3", "D8xQ8xC5", "Ab(3;2,1)xC5",
])
def test_render_parse_round_trip(text):
    spec = parse_group_spec(text)
    assert spec.render() == text.replace(" ", "")
    assert parse_group_spec(spec.render()) == spec


def test_deep_product_equality_hash_and_repr_do_not_recurse():
    # a parsed product nests once per atom, far deeper than the recursion limit
    text = "x".join(["C2"] * 3000)
    spec, again = parse_group_spec(text), parse_group_spec(text)
    assert spec == again and spec is not again
    assert hash(spec) == hash(again)
    assert repr(spec) == "Product(" + ", ".join(["Cyclic(m=2)"] * 3000) + ")"
    assert spec != parse_group_spec("x".join(["C2"] * 2999 + ["C3"]))
    assert spec != Cyclic(2)
    # the atoms decide, not the nesting: x is associative
    assert Product(Cyclic(2), Product(Cyclic(3), Cyclic(5))) == parse_group_spec("C2xC3xC5")
    assert len({spec, again, parse_group_spec("C2xC3")}) == 2


def test_a_product_is_one_flat_tuple_of_atoms():
    a, b, c, d = Cyclic(2), Dihedral(8), FileTable("k4.cayley"), Heisenberg(3)
    nested = Product(Product(a, b), Product(c, d))
    assert nested.atoms == (a, b, c, d)
    parsed = parse_group_spec("C2xD8x file:k4.cayley xHe3")
    assert nested == parsed and hash(nested) == hash(parsed)
    assert Product(a, b) != Product(b, a)
    for few in ((), (a,)):
        with pytest.raises(InputError, match=f"a product needs two or more atoms, got {len(few)}"):
            Product(*few)
    # a member of a three-prime order is one product of its Sylow atoms
    members, _ = enumerate_nilpotent(4 * 9 * 5, factor(4 * 9 * 5), None)
    assert len(members) == 4
    for m in members:
        assert m.spec == Product(*m.sylow_specs)
        assert len(m.spec.atoms) == 3 and not any(isinstance(f, Product) for f in m.spec.atoms)


def test_render_spec_file_products_keep_spaces():
    spec = Product(Cyclic(2), FileTable("tables/k4.cayley"))
    assert spec.render() == "C2 x file:tables/k4.cayley"
    assert parse_group_spec(spec.render()) == spec
    nested = Product(Product(Cyclic(2), Cyclic(3)), FileTable("k4.cayley"))
    assert nested.render() == "C2 x C3 x file:k4.cayley"


def test_render_spec_empty_partition_is_trivial():
    assert Abelian(3, ()).render() == "C1"


@pytest.mark.parametrize("text,order", [
    ("C6", 6),
    ("Ab(2;3,1)", 16),
    ("M(4,3)", 81),
    ("D14", 14),
    ("Q16", 16),
    ("SD32", 32),
    ("He5", 125),
    ("C9xC3xC2", 54),
])
def test_order_of_spec(text, order):
    assert parse_group_spec(text).order == order


def test_order_of_spec_reads_file_header(tmp_path):
    path = tmp_path / "c7.cayley"
    write_cayley(Cyclic(7).build(), path)
    assert FileTable(str(path)).order == 7


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------

def test_cyclic_labels():
    g = Cyclic(5).build()
    assert g.name == "C5" and g.labels == ["0", "1", "2", "3", "4"]


def test_direct_product_indexing_and_labels():
    g = direct_product(Cyclic(2).build(), Cyclic(3).build())
    assert g.size == 6 and g.name == "C2xC3"
    assert g.labels == ["(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)"]
    # index (a, b) -> a*3 + b, componentwise product
    assert g.product(1 * 3 + 2, 1 * 3 + 2) == 0 * 3 + 1
    assert g.identity == 0


@pytest.mark.parametrize("left,right", [("C9", "C3"), ("C4", "Q8"), ("C1", "D6"), ("C97", "C2"),
                                        ("C3", "C1"), ("D8", "C3"), ("Q8", "C2"), ("M(4,2)", "C3")])
def test_direct_product_table_is_the_componentwise_law(left, right):
    g, h = parse_group_spec(left).build(), parse_group_spec(right).build()
    n, s = g.size * h.size, h.size
    gt, ht = g.table.astype(np.int64), h.table.astype(np.int64)
    law = (gt[:, None, :, None] * s + ht[None, :, None, :]).reshape(n, n)
    table = direct_product(g, h).table
    assert table.dtype == index_dtype(n)
    assert np.array_equal(table, law)


@pytest.mark.parametrize("n,p", [(4, 2), (5, 2), (3, 3), (4, 3), (3, 5), (3, 7)])
def test_modular_table_is_the_law_of_its_docstring(n, p):
    """(i1,j1)*(i2,j2) = (i1 + i2*(1+p^(n-2))^j1 mod p^(n-1), j1+j2 mod p), index i*p + j."""
    P, e = p ** (n - 1), 1 + p ** (n - 2)
    i1, j1, i2, j2 = np.ix_(np.arange(P), np.arange(p), np.arange(P), np.arange(p))
    twist = np.array([pow(e, j, P) for j in range(p)])
    law = ((i1 + i2 * twist[j1]) % P * p + (j1 + j2) % p).reshape(P * p, P * p)
    g = Modular(n, p).build()
    assert g.table.dtype == index_dtype(P * p)
    assert np.array_equal(g.table, law)


@pytest.mark.parametrize("order", [4, 6, 12, 30])
def test_dihedral_table_is_rotation_and_flip(order):
    """r^a1 s^b1 * r^a2 s^b2 = r^(a1 + (-1)^b1 a2) s^(b1 + b2), index a + k*b."""
    k = order // 2
    b1, a1, b2, a2 = np.ix_(np.arange(2), np.arange(k), np.arange(2), np.arange(k))
    law = ((a1 + (-1) ** b1 * a2) % k + k * ((b1 + b2) % 2)).reshape(order, order)
    assert np.array_equal(Dihedral(order).build().table, law)


@pytest.mark.parametrize("order", [8, 16, 32])
def test_quaternion_table_is_the_law_of_its_docstring(order):
    """x^a1 y^b1 * x^a2 y^b2 = x^(a1 + (-1)^b1 a2 + 2^(n-2) b1 b2) y^(b1 + b2 mod 2),
    index a + 2^(n-1) b."""
    nn = order // 2
    b1, a1, b2, a2 = np.ix_(np.arange(2), np.arange(nn), np.arange(2), np.arange(nn))
    law = ((a1 + (-1) ** b1 * a2 + nn // 2 * b1 * b2) % nn + nn * ((b1 + b2) % 2))
    g = GeneralizedQuaternion(order).build()
    assert g.table.dtype == index_dtype(order)
    assert np.array_equal(g.table, law.reshape(order, order))


@pytest.mark.parametrize("order", [16, 32])
def test_semidihedral_table_is_the_law_of_its_docstring(order):
    """x^a1 y^b1 * x^a2 y^b2 = x^(a1 + t^b1 a2) y^(b1 + b2 mod 2), t = 2^(n-2) - 1,
    index a + 2^(n-1) b."""
    nn = order // 2
    b1, a1, b2, a2 = np.ix_(np.arange(2), np.arange(nn), np.arange(2), np.arange(nn))
    law = ((a1 + (nn // 2 - 1) ** b1 * a2) % nn + nn * ((b1 + b2) % 2))
    g = Semidihedral(order).build()
    assert g.table.dtype == index_dtype(order)
    assert np.array_equal(g.table, law.reshape(order, order))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_heisenberg_table_is_the_law_of_its_docstring(p):
    """(a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2) mod p, index (a*p + b)*p + c."""
    a1, b1, c1, a2, b2, c2 = np.ix_(*[np.arange(p)] * 6)
    law = ((a1 + a2) % p * p + (b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p
    g = Heisenberg(p).build()
    assert g.table.dtype == index_dtype(p ** 3)
    assert np.array_equal(g.table, law.reshape(p ** 3, p ** 3))


@pytest.mark.parametrize("text,labels", [
    ("C3", "0 1 2"),
    ("D6", "r0 r1 r2 s0 s1 s2"),
    ("Q16", "x0 x1 x2 x3 x4 x5 x6 x7 x0y x1y x2y x3y x4y x5y x6y x7y"),
    ("SD16", "x0 x1 x2 x3 x4 x5 x6 x7 x0y x1y x2y x3y x4y x5y x6y x7y"),
    ("M(4,2)", "a0b0 a0b1 a1b0 a1b1 a2b0 a2b1 a3b0 a3b1 a4b0 a4b1 a5b0 a5b1 a6b0 a6b1 a7b0 a7b1"),
    ("He3", "(0,0,0) (0,0,1) (0,0,2) (0,1,0) (0,1,1) (0,1,2) (0,2,0) (0,2,1) (0,2,2) "
            "(1,0,0) (1,0,1) (1,0,2) (1,1,0) (1,1,1) (1,1,2) (1,2,0) (1,2,1) (1,2,2) "
            "(2,0,0) (2,0,1) (2,0,2) (2,1,0) (2,1,1) (2,1,2) (2,2,0) (2,2,1) (2,2,2)"),
    ("Ab(2;2,1)", "(0,0) (0,1) (1,0) (1,1) (2,0) (2,1) (3,0) (3,1)"),
    ("C2xD4", "(0,r0) (0,r1) (0,s0) (0,s1) (1,r0) (1,r1) (1,s0) (1,s1)"),
])
def test_family_labels_are_made_when_first_read(text, labels):
    g = parse_group_spec(text).build()
    assert g.labels == labels.split()
    assert g.labels is g.labels                # made once, then kept


def test_product_label_recipe_keeps_no_factor_alive():
    left, right = Dihedral(6).build(), Cyclic(2).build()
    g = direct_product(left, right)
    refs = [weakref.ref(x) for x in (left, right, left.table, right.table)]
    del left, right
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
    assert g.labels[:3] == ["(r0,0)", "(r0,1)", "(r1,0)"]


def test_quaternion_classical_labels():
    q8 = GeneralizedQuaternion(8).build()
    assert q8.labels == ["1", "i", "-1", "-i", "j", "k", "-j", "-k"]
    assert q8.labels[q8.product(1, 4)] == "k"        # i * j = k


def test_abelian_from_partition_name_and_structure():
    g = Abelian(2, (3, 1)).build()
    assert g.name == "Ab(2;3,1)" and g.size == 16
    assert Abelian(3, ()).build().size == 1
    single = Abelian(5, (2,)).build()
    assert single.name == "C25"


@pytest.mark.parametrize("builder,order,top", [
    (lambda: Dihedral(8).build(), 8, 4),
    (lambda: Dihedral(30).build(), 30, 15),
    (lambda: GeneralizedQuaternion(16).build(), 16, 8),
    (lambda: Semidihedral(16).build(), 16, 8),
    (lambda: Modular(4, 2).build(), 16, 8),
    (lambda: Modular(3, 3).build(), 27, 9),
    (lambda: Heisenberg(3).build(), 27, 3),
])
def test_family_models_validate_and_have_expected_exponent(builder, order, top):
    g = builder()
    assert g.size == order
    assert validate(g).ok
    assert max(g.element_orders()) == top


def test_modular_group_vs_split_abelian_spectra():
    # same order spectrum, different groups: M(4,2) is non-abelian
    m = Modular(4, 2).build()
    split = Abelian(2, (3, 1)).build()
    assert order_spectrum(m) == order_spectrum(split)
    a, b = 2, 3
    assert any(m.product(x, y) != m.product(y, x)
               for x in range(16) for y in range(16))
    assert split.product(a, b) == split.product(b, a)


def test_heisenberg_has_exponent_p():
    g = Heisenberg(5).build()
    assert g.size == 125
    assert order_spectrum(g) == OrderSpectrum({1: 1, 5: 124})


# ---------------------------------------------------------------------------
# build_group and the spec's closed-form spectrum
# ---------------------------------------------------------------------------

SPEC_TEXTS = [
    "C1", "C12", "C30",
    "Ab(2;2,1)", "Ab(2;3,1)", "Ab(3;1,1,1)", "Ab(2;2,2)",
    "M(4,2)", "M(5,2)", "M(3,3)", "M(4,3)", "M(3,5)",
    "D8", "D12", "D16", "D30",
    "Q8", "Q16", "Q32",
    "SD16", "SD32",
    "He3", "He5",
    "C9xC3", "C4xC2", "D8xC3", "Q8xC2", "M(4,2)xC3",
]


@pytest.mark.parametrize("text", SPEC_TEXTS)
def test_spectrum_of_spec_matches_brute_tally(text):
    spec = parse_group_spec(text)
    g = build_group(spec)
    assert spec.spectrum() == order_spectrum(g)
    assert g.size == spec.order


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_abelian_spectrum_equals_the_lcm_convolution_of_its_factors(p):
    for k in range(11):
        for part in _partitions(k):
            convolved = reduce(spectrum_product, [spectrum_cyclic(p ** a) for a in part or (0,)])
            assert Abelian(p, part).spectrum() == convolved, part


def _specs_up_to_128() -> list[GroupSpec]:
    """Every family at each order <= 128 the acceptance inventory builds, and
    more: each C and D, every catalog entry of order p^k, the nilpotent
    members of each odd non-square-free order, and products whose left
    factor is cyclic, non-cyclic, or itself a product."""
    specs: list[GroupSpec] = [Cyclic(m) for m in range(1, 129)]
    specs += [Dihedral(m) for m in range(4, 129, 2)]
    for p in (2, 3, 5, 7, 11):
        specs += [e.spec for k in range(1, 8) if p ** k <= 128 for e in p_group_catalog(p, k)[0]]
    for n in range(9, 129, 2):
        if max(a for _, a in factor(n)) > 1:
            specs += [m.spec for m in enumerate_nilpotent(n, factor(n), None)[0]]
    specs += [parse_group_spec(t) for t in ("Q8xC3", "SD16xC7", "C5xD12", "He3xC4",
                                           "C2xHe3", "Ab(2;1,1)xQ8", "C3xC5xD8")]
    return specs


def test_spectra_carry_their_exponents_primes(monkeypatch):
    """Every family spectrum of the inventory above and of SPEC_TEXTS, every
    catalog entry of order p^k <= 3^6, and products of those carry exactly
    the primes of their exponent, so phi_sum factors nothing and equals the
    totient sum over the orders."""
    specs = [parse_group_spec(t) for t in SPEC_TEXTS] + _specs_up_to_128()
    catalog = [e.spec for p in range(2, 3 ** 6 + 1) if factor(p) == [(p, 1)]
               for k in range(1, 11) if p ** k <= 3 ** 6 for e in p_group_catalog(p, k)[0]]
    partners = [parse_group_spec(t) for t in ("C6", "Q8", "He3", "D10", "Ab(5;1,1)")]
    specs += catalog + [Product(x, y) for x in catalog for y in partners + [x]]
    assert len(catalog) > 250
    spectra = [spec.spectrum() for spec in specs]
    calls = []
    real = pgx.spectrum.factor
    monkeypatch.setattr(pgx.spectrum, "factor", lambda n: calls.append(n) or real(n))
    phis = [phi_sum(s) for s in spectra]
    assert calls == []
    monkeypatch.undo()
    for spec, s, phi in zip(specs, spectra, phis):
        exponent = lcm(*s)
        assert s.primes == tuple(p for p, _ in factor(exponent)), spec.render()
        assert phi == sum(totient(d) * c for d, c in s.items()), spec.render()


def test_builders_wrap_at_the_top_of_the_index_dtype(monkeypatch):
    """With uint8 tables through order 128, where the sum of two indices
    reaches 254, every builder still gives its uint16 table; a larger group
    built from such factors shows that no builder computes in a factor's dtype."""
    cases = [(spec, np.uint8) for spec in _specs_up_to_128()] + [
        (parse_group_spec(t), np.uint16) for t in ("He13", "M(5,3)", "Ab(5;2,2)", "Ab(2;5,5,1)",
                                                   "C97xQ8", "Q8xC97", "D16xC27", "SD128xC3")]
    expected = [build_group(spec).table for spec, _ in cases]
    narrow = lambda n: np.uint8 if 2 * n <= 1 << 8 else index_dtype(n)
    monkeypatch.setattr(pgx.groups, "index_dtype", narrow)
    monkeypatch.setattr(pgx.constructors, "index_dtype", narrow)
    for (spec, dtype), table in zip(cases, expected):
        g = build_group(spec)
        assert g.table.dtype == dtype, spec.render()
        assert np.array_equal(g.table, table), spec.render()


def test_build_group_respects_cap():
    # refused from the spec alone: a table of this order could not be allocated
    with pytest.raises(ResourceError) as err:
        build_group(parse_group_spec("C1000000000000xC2"))
    assert "order 2000000000000 exceeds the brute-force cap 4096" in str(err.value)
    assert "spectrum formulas" in str(err.value)


def test_build_group_from_file(tmp_path):
    path = tmp_path / "k4.cayley"
    write_cayley(Abelian(2, (1, 1)).build(), path)
    spec = parse_group_spec(f"file:{path}")
    g = build_group(spec)
    assert g.size == 4 and g.name == "k4"
    assert spec.spectrum() == OrderSpectrum({1: 1, 2: 3})
    prod = parse_group_spec(f"C3 x file:{path}")
    assert prod.spectrum() == OrderSpectrum({1: 1, 2: 3, 3: 2, 6: 6})


# ---------------------------------------------------------------------------
# p-group catalogs
# ---------------------------------------------------------------------------

def test_catalog_small_exponents_are_complete():
    entries, completeness = p_group_catalog(3, 1)
    assert [e.render() for e in entries] == ["C3"]
    assert completeness is Completeness.COMPLETE

    entries, completeness = p_group_catalog(3, 2)
    assert [e.render() for e in entries] == ["C9", "Ab(3;1,1)"]
    assert completeness is Completeness.COMPLETE


def test_catalog_order_eight_lists_all_five_classes():
    entries, completeness = p_group_catalog(2, 3)
    assert [e.render() for e in entries] == [
        "C8", "Ab(2;2,1)", "Ab(2;1,1,1)", "D8", "Q8",
    ]
    assert completeness is Completeness.COMPLETE
    assert all(e.source == "parametric" for e in entries)
    # five pairwise distinct order spectra at order 8
    assert len({e.spectrum for e in entries}) == 5


def test_catalog_odd_p_cubed():
    entries, completeness = p_group_catalog(5, 3)
    assert [e.render() for e in entries] == [
        "C125", "Ab(5;2,1)", "Ab(5;1,1,1)", "He5", "M(3,5)",
    ]
    assert completeness is Completeness.COMPLETE


def test_catalog_sixteen_parametric_is_incomplete():
    entries, completeness = p_group_catalog(2, 4)
    assert [e.render() for e in entries] == [
        "C16", "Ab(2;3,1)", "Ab(2;2,2)", "Ab(2;2,1,1)", "Ab(2;1,1,1,1)",
        "M(4,2)", "D16", "Q16", "SD16",
    ]
    assert completeness is Completeness.INCOMPLETE
    # M(4,2) duplicates the Ab(2;3,1) spectrum, every other pair differs
    assert len({e.spectrum for e in entries}) == 8


def test_catalog_odd_fourth_power_is_incomplete():
    entries, completeness = p_group_catalog(5, 4)
    assert [e.render() for e in entries] == [
        "C625", "Ab(5;3,1)", "Ab(5;2,2)", "Ab(5;2,1,1)", "Ab(5;1,1,1,1)",
        "M(4,5)",
    ]
    assert completeness is Completeness.INCOMPLETE


def test_catalog_ingests_census_tables(census_dir):
    entries, completeness = p_group_catalog(2, 4, Census(census_dir))
    assert completeness is Completeness.COMPLETE_VIA_CENSUS
    assert len(entries) == 10
    ingested = [e for e in entries if isinstance(e.spec, FileTable)]
    assert [e.source for e in ingested] == ["d8xc2.cayley"]
    assert len({e.spectrum for e in entries}) == 9


def test_catalog_computes_a_spectrum_only_when_an_entry_is_read(monkeypatch):
    calls = []
    real = pgx.constructors.spectrum_cyclic
    monkeypatch.setattr(pgx.constructors, "spectrum_cyclic",
                        lambda m: calls.append(m) or real(m))
    entries, _ = p_group_catalog(3, 8)
    assert len(entries) == 23 and calls == []
    assert entries[0].sigma == order_sum(real(3 ** 8)) and calls == [3 ** 8]
    assert entries[0].is_cyclic and calls == [3 ** 8]      # computed once per entry


def test_catalog_reads_each_census_table_once(monkeypatch, census_dir):
    reads = []
    real = pgx.constructors.read_cayley
    monkeypatch.setattr(pgx.constructors, "read_cayley",
                        lambda path: reads.append(path) or real(path))
    entries, _ = p_group_catalog(2, 4, Census(census_dir))
    # d8xc2, the one table whose spectrum is new, is not read again for its sigma
    assert [e.sigma for e in entries if isinstance(e.spec, FileTable)] == [39]
    assert sorted(reads) == sorted(str(f) for f in (census_dir / "16").glob("*.cayley"))


def test_census_script_models_match_shipped_tables(census_dir):
    path = census_dir.parent / "scripts" / "make_order16_census.py"
    spec = importlib.util.spec_from_file_location("make_order16_census", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for stem, build in (("c4rc4", script.c4_semidirect_c4),
                        ("c4xc2rc2", script.c4xc2_semidirect_c2),
                        ("d8oc4", script.d8_central_c4)):
        g = build()
        shipped = read_cayley(census_dir / "16" / f"{stem}.cayley")
        assert g.identity == shipped.identity
        assert np.array_equal(g.table, shipped.table), stem


def test_catalog_census_duplicate_spectra_are_dropped(tmp_path):
    order_dir = tmp_path / "8"
    order_dir.mkdir()
    write_cayley(Cyclic(8).build(), order_dir / "c8_again.cayley")
    entries, completeness = p_group_catalog(2, 3, Census(tmp_path))
    assert [e.render() for e in entries] == [
        "C8", "Ab(2;2,1)", "Ab(2;1,1,1)", "D8", "Q8",
    ]
    assert completeness is Completeness.COMPLETE


def test_catalog_census_missing_dir_changes_nothing(tmp_path):
    entries, completeness = p_group_catalog(2, 4, Census(tmp_path))
    assert completeness is Completeness.INCOMPLETE
    assert len(entries) == 9


def test_catalog_census_rejects_wrong_order(tmp_path):
    order_dir = tmp_path / "16"
    order_dir.mkdir()
    write_cayley(Cyclic(8).build(), order_dir / "c8.cayley")
    with pytest.raises(InputError) as err:
        p_group_catalog(2, 4, Census(tmp_path))
    assert "does not match census directory 16" in str(err.value)


def test_catalog_census_rejects_non_group_table(tmp_path):
    order_dir = tmp_path / "4"
    order_dir.mkdir()
    rows = "\n".join("0 0 0 0" for _ in range(4))
    (order_dir / "junk.cayley").write_text(f"order 4\nidentity 0\n{rows}\n")
    with pytest.raises(InputError) as err:
        p_group_catalog(2, 2, Census(tmp_path))
    assert "not a group table" in str(err.value)


def test_catalog_argument_validation():
    with pytest.raises(InputError):
        p_group_catalog(4, 2)
    with pytest.raises(InputError):
        p_group_catalog(3, 0)


def test_specs_refuse_orders_above_the_printable_bound():
    """An order of at most ORDER_BITS bits is accepted, one bit more is not,
    and a literal longer than any such order is refused unread."""
    assert ORDER_BITS == 7000
    assert Cyclic(2 ** 7000 - 1).order.bit_length() == 7000
    assert Abelian(2, (6999,)).order == 2 ** 6999
    for make in (lambda: Cyclic(2 ** 7000), lambda: Abelian(2, (7000,)),
                 lambda: Abelian(2, (10 ** 100,)), lambda: Modular(7000, 2),
                 lambda: Dihedral(2 ** 7000), lambda: Heisenberg(2 ** 2400 + 1),
                 lambda: parse_group_spec(f"C{2 ** 6999}xC4")):
        with pytest.raises(ResourceError, match="group order above 2\\^7000"):
            make()
    assert parse_group_spec(f"C{2 ** 6999} x file:k4.cayley").atoms[0] == Cyclic(2 ** 6999)
    with pytest.raises(InputError, match="an integer of 2109 digits is longer than any group "
                                         "order a spec may name \\(position 1\\)"):
        parse_group_spec("C" + "1" * 2109)


def test_merge_completeness_ordering():
    c, v, i = (Completeness.COMPLETE, Completeness.COMPLETE_VIA_CENSUS,
               Completeness.INCOMPLETE)
    assert merge_completeness([c, c]) is c
    assert merge_completeness([c, v]) is v
    assert merge_completeness([v, i, c]) is i
    assert merge_completeness([]) is c


def test_catalog_entry_render_matches_spec():
    entry = CatalogEntry(Modular(4, 3), "parametric")
    assert (entry.render(), entry.source, entry.validation) == ("M(4,3)", "parametric", None)
    assert entry.spectrum == Modular(4, 3).spectrum()


def test_catalog_refuses_exponents_past_the_bound(monkeypatch):
    # 37338 partitions of 40, so 37338 abelian groups of order 3^40
    with pytest.raises(ResourceError) as err:
        p_group_catalog(3, 40)
    assert str(err.value) == ("order 3^40 has 37338 abelian groups, one per partition "
                              f"of 40, above the catalog bound {CATALOG_BOUND}")
    # refused before any partition is listed, so a huge exponent returns at once
    with pytest.raises(ResourceError) as err:
        p_group_catalog(3, 100000)
    assert "has more than 24061467864032622473692149727991 abelian groups" in str(err.value)
    # the bound counts partitions: 22 of 8 (plus M(8,3) listed), 30 of 9
    monkeypatch.setattr(pgx.constructors, "CATALOG_BOUND", 22)
    assert len(p_group_catalog(3, 8)[0]) == 22 + 1
    with pytest.raises(ResourceError) as err:
        p_group_catalog(3, 9)
    assert "order 3^9 has 30 abelian groups" in str(err.value)
