"""Spec mini-language, family constructors, and p-group catalogs."""

import importlib.util

import numpy as np
import pytest

from pgx.constructors import (
    Abelian,
    CatalogEntry,
    Completeness,
    Cyclic,
    Dihedral,
    FileTable,
    GeneralizedQuaternion,
    Heisenberg,
    Modular,
    Product,
    Semidihedral,
    abelian_from_partition,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    heisenberg,
    merge_completeness,
    modular_group,
    order_of_spec,
    p_group_catalog,
    parse_group_spec,
    render_spec,
    semidihedral,
    spectrum_of_spec,
    validate_spec,
)
from pgx.errors import InputError, ResourceError
from pgx.groups import read_cayley, validate, write_cayley
from pgx.spectrum import OrderSpectrum, order_spectrum


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
    assert render_spec(spec) == text.replace(" ", "")
    assert parse_group_spec(render_spec(spec)) == spec


def test_render_spec_file_products_keep_spaces():
    spec = Product(Cyclic(2), FileTable("tables/k4.cayley"))
    assert render_spec(spec) == "C2 x file:tables/k4.cayley"
    assert parse_group_spec(render_spec(spec)) == spec


def test_render_spec_empty_partition_is_trivial():
    assert render_spec(Abelian(3, ())) == "C1"


def test_validate_spec_rejects_unknown_object():
    with pytest.raises(InputError):
        validate_spec("C6")


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
    assert order_of_spec(parse_group_spec(text)) == order


def test_order_of_spec_reads_file_header(tmp_path):
    path = tmp_path / "c7.cayley"
    write_cayley(cyclic(7), path)
    assert order_of_spec(FileTable(str(path))) == 7


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------

def test_cyclic_labels():
    g = cyclic(5)
    assert g.name == "C5" and g.labels == ["0", "1", "2", "3", "4"]


def test_direct_product_indexing_and_labels():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.size == 6 and g.name == "C2xC3"
    assert g.labels == ["(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)"]
    # index (a, b) -> a*3 + b, componentwise product
    assert g.product(1 * 3 + 2, 1 * 3 + 2) == 0 * 3 + 1
    assert g.identity == 0


def test_quaternion_classical_labels():
    q8 = generalized_quaternion(8)
    assert q8.labels == ["1", "i", "-1", "-i", "j", "k", "-j", "-k"]
    assert q8.label(q8.product(1, 4)) == "k"        # i * j = k


def test_abelian_from_partition_name_and_structure():
    g = abelian_from_partition(2, (3, 1))
    assert g.name == "Ab(2;3,1)" and g.size == 16
    assert abelian_from_partition(3, ()).size == 1
    single = abelian_from_partition(5, (2,))
    assert single.name == "C25"


@pytest.mark.parametrize("builder,order,top", [
    (lambda: dihedral(8), 8, 4),
    (lambda: dihedral(30), 30, 15),
    (lambda: generalized_quaternion(16), 16, 8),
    (lambda: semidihedral(16), 16, 8),
    (lambda: modular_group(4, 2), 16, 8),
    (lambda: modular_group(3, 3), 27, 9),
    (lambda: heisenberg(3), 27, 3),
])
def test_family_models_validate_and_have_expected_exponent(builder, order, top):
    g = builder()
    assert g.size == order
    assert validate(g, mode="full").ok
    assert max(g.element_orders()) == top


def test_modular_group_vs_split_abelian_spectra():
    # same order spectrum, different groups: M(4,2) is non-abelian
    m = modular_group(4, 2)
    split = abelian_from_partition(2, (3, 1))
    assert order_spectrum(m) == order_spectrum(split)
    a, b = 2, 3
    assert any(m.product(x, y) != m.product(y, x)
               for x in range(16) for y in range(16))
    assert split.product(a, b) == split.product(b, a)


def test_heisenberg_has_exponent_p():
    g = heisenberg(5)
    assert g.size == 125
    assert order_spectrum(g) == OrderSpectrum({1: 1, 5: 124})


# ---------------------------------------------------------------------------
# build_group and spectrum_of_spec
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
    assert spectrum_of_spec(spec) == order_spectrum(g)
    assert g.size == order_of_spec(spec)


def test_build_group_respects_cap():
    # refused from the spec alone: a table of this order could not be allocated
    with pytest.raises(ResourceError) as err:
        build_group(parse_group_spec("C1000000000000xC2"))
    assert "order 2000000000000 exceeds the brute-force cap 4096" in str(err.value)
    assert "spectrum formulas" in str(err.value)


def test_build_group_from_file(tmp_path):
    path = tmp_path / "k4.cayley"
    write_cayley(abelian_from_partition(2, (1, 1)), path)
    spec = parse_group_spec(f"file:{path}")
    g = build_group(spec)
    assert g.size == 4 and g.name == "k4"
    assert spectrum_of_spec(spec) == OrderSpectrum({1: 1, 2: 3})
    prod = parse_group_spec(f"C3 x file:{path}")
    assert spectrum_of_spec(prod) == OrderSpectrum({1: 1, 2: 3, 3: 2, 6: 6})


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
    entries, completeness = p_group_catalog(2, 4, census_dir=census_dir)
    assert completeness is Completeness.COMPLETE_VIA_CENSUS
    assert len(entries) == 10
    ingested = [e for e in entries if isinstance(e.spec, FileTable)]
    assert [e.source for e in ingested] == ["d8xc2.cayley"]
    assert len({e.spectrum for e in entries}) == 9


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
    write_cayley(cyclic(8), order_dir / "c8_again.cayley")
    entries, completeness = p_group_catalog(2, 3, census_dir=tmp_path)
    assert [e.render() for e in entries] == [
        "C8", "Ab(2;2,1)", "Ab(2;1,1,1)", "D8", "Q8",
    ]
    assert completeness is Completeness.COMPLETE


def test_catalog_census_missing_dir_changes_nothing(tmp_path):
    entries, completeness = p_group_catalog(2, 4, census_dir=tmp_path)
    assert completeness is Completeness.INCOMPLETE
    assert len(entries) == 9


def test_catalog_census_rejects_wrong_order(tmp_path):
    order_dir = tmp_path / "16"
    order_dir.mkdir()
    write_cayley(cyclic(8), order_dir / "c8.cayley")
    with pytest.raises(InputError) as err:
        p_group_catalog(2, 4, census_dir=tmp_path)
    assert "does not match census directory 16" in str(err.value)


def test_catalog_census_rejects_non_group_table(tmp_path):
    order_dir = tmp_path / "4"
    order_dir.mkdir()
    rows = "\n".join("0 0 0 0" for _ in range(4))
    (order_dir / "junk.cayley").write_text(f"order 4\nidentity 0\n{rows}\n")
    with pytest.raises(InputError) as err:
        p_group_catalog(2, 2, census_dir=tmp_path)
    assert "not a group table" in str(err.value)


def test_catalog_argument_validation():
    with pytest.raises(InputError):
        p_group_catalog(4, 2)
    with pytest.raises(InputError):
        p_group_catalog(3, 0)


def test_merge_completeness_ordering():
    c, v, i = (Completeness.COMPLETE, Completeness.COMPLETE_VIA_CENSUS,
               Completeness.INCOMPLETE)
    assert merge_completeness([c, c]) is c
    assert merge_completeness([c, v]) is v
    assert merge_completeness([v, i, c]) is i
    assert merge_completeness([]) is c


def test_catalog_entry_render_matches_spec():
    entry = CatalogEntry(Modular(4, 3), spectrum_of_spec(Modular(4, 3)), "parametric")
    assert entry.render() == "M(4,3)"
