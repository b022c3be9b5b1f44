"""GroupTable arithmetic, axiom validation, and the Cayley file format."""

import io

import numpy as np
import pytest

from pgx.constructors import build_group, cyclic, generalized_quaternion, parse_group_spec
from pgx.errors import InputError, InvariantError, ResourceError
from pgx.groups import GroupTable, read_cayley, validate, write_cayley

C3_TABLE = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])

# Latin square with two-sided identity 0 whose element 1 has different left
# and right inverses (1*2 = 0 but 2*1 = 3), so it fails the inverse axiom.
ONE_SIDED_INVERSE = np.array([
    [0, 1, 2, 3, 4],
    [1, 2, 0, 4, 3],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 0, 3, 1, 2],
])

# Loop (Latin square, identity, two-sided inverses) that is not associative:
# (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4.
NONASSOCIATIVE_LOOP = np.array([
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
])


# ---------------------------------------------------------------------------
# Element arithmetic
# ---------------------------------------------------------------------------

def test_product_and_power_in_cyclic_groups():
    c6 = cyclic(6)
    assert c6.product(2, 3) == 5
    assert all(c6.product(c6.identity, a) == a for a in range(6))
    c12 = cyclic(12)
    assert c12.power(1, 7) == 7
    assert c12.power(5, 0) == c12.identity


def test_element_order_and_cyclic_subgroup():
    c6 = cyclic(6)
    assert c6.element_order(c6.identity) == 1
    assert c6.element_order(5) == 6
    assert c6.cyclic_subgroup(2) == frozenset({0, 2, 4})
    assert c6.cyclic_subgroup(c6.identity) == frozenset({0})
    for a in range(6):
        assert len(c6.cyclic_subgroup(a)) == c6.element_order(a)
        assert 6 % c6.element_order(a) == 0


def test_quaternion_model_arithmetic():
    q8 = generalized_quaternion(8)
    by_label = {q8.label(a): a for a in range(8)}
    i, j, k = by_label["i"], by_label["j"], by_label["k"]
    assert q8.product(i, j) == k
    minus_one = q8.product(q8.product(i, j), k)
    assert q8.label(minus_one) == "-1"
    assert q8.element_order(minus_one) == 2
    assert q8.cyclic_subgroup(i) == {by_label[t] for t in ("1", "i", "-1", "-i")}


def test_index_and_exponent_validation():
    c6 = cyclic(6)
    with pytest.raises(InputError):
        c6.product(0, 6)
    with pytest.raises(InputError):
        c6.product(-1, 0)
    with pytest.raises(InputError):
        c6.power(2, -1)


def test_element_orders_dense_and_lazy_agree():
    dense = cyclic(60)
    lazy = cyclic(60, cap=10)
    assert not lazy.has_table
    assert dense.element_orders() == lazy.element_orders()
    assert lazy.product(7, 8) == 15


@pytest.mark.parametrize("text", ["C1", "C2", "C60", "C64", "D30", "Q16", "SD32",
                                  "M(4,3)", "He5", "Ab(2;2,1,1)", "C9xC3xC4", "Q8xC6"])
def test_element_orders_by_lagrange_match_successive_multiplication(text):
    g = build_group(parse_group_spec(text))
    assert g.has_table
    assert g.element_orders() == [g.element_order(a) for a in range(g.size)]


def test_element_order_diverges_on_non_group():
    projection = GroupTable(3, 0, op=lambda a, b: a)
    with pytest.raises(InvariantError):
        projection.element_order(1)


def test_element_order_must_divide_group_order():
    g = GroupTable(5, 0, table=NONASSOCIATIVE_LOOP)
    with pytest.raises(InvariantError):
        g.element_order(1)      # order 2 does not divide 5


# ---------------------------------------------------------------------------
# Construction and materialization
# ---------------------------------------------------------------------------

def test_constructor_rejects_bad_arguments():
    with pytest.raises(InputError):
        GroupTable(0, 0, table=np.zeros((0, 0), dtype=int))
    with pytest.raises(InputError):
        GroupTable(3, 3, table=C3_TABLE)
    with pytest.raises(InputError):
        GroupTable(3, 0, table=C3_TABLE, op=lambda a, b: a)
    with pytest.raises(InputError):
        GroupTable(3, 0)
    with pytest.raises(InputError):
        GroupTable(2, 0, table=C3_TABLE)
    with pytest.raises(InputError):
        GroupTable(3, 0, table=C3_TABLE + 1)
    with pytest.raises(InputError):
        GroupTable(3, 0, table=C3_TABLE, labels=["a", "b"])


def test_materialization_cap():
    lazy = cyclic(300, cap=10)
    with pytest.raises(ResourceError):
        lazy.materialized(cap=256)
    with pytest.raises(ResourceError):
        lazy.table
    dense = lazy.materialized(cap=300)
    assert dense.has_table and dense.product(299, 1) == 0
    assert dense.materialized() is dense
    assert "lazy" in repr(lazy) and "table" in repr(dense)
    assert len(lazy) == 300


def test_table_is_read_only():
    g = cyclic(4)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_validate_full_passes_on_groups():
    report = validate(generalized_quaternion(8), mode="full")
    assert report.ok and report.mode == "full"
    assert "associativity-full" in report.checks
    assert report.failure is None
    assert report.to_json_dict()["ok"] is True


def test_validate_auto_switches_to_sampling_above_cap():
    report = validate(cyclic(300), mode="auto", sample_triples=5000, full_cap=256)
    assert report.ok and report.mode == "sampled(5000)"
    small = validate(cyclic(16), mode="auto")
    assert small.mode == "full"


def test_validate_rejects_unknown_mode():
    with pytest.raises(InputError):
        validate(cyclic(3), mode="bogus")


def test_validate_identity_failure():
    report = validate(GroupTable(3, 1, table=C3_TABLE), mode="full")
    assert not report.ok and report.failure.axiom == "identity"


def test_validate_latin_row_failure():
    t = np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    report = validate(GroupTable(3, 0, table=t), mode="full")
    assert not report.ok and report.failure.axiom == "latin-row"
    assert report.failure.witness == (1,)


def test_validate_latin_column_failure():
    t = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    report = validate(GroupTable(3, 0, table=t), mode="full")
    assert not report.ok and report.failure.axiom == "latin-column"


def test_validate_inverse_failure():
    report = validate(GroupTable(5, 0, table=ONE_SIDED_INVERSE), mode="full")
    assert not report.ok and report.failure.axiom == "inverse"
    assert report.failure.witness == (1, 2)


def test_validate_associativity_failure_with_witness():
    report = validate(GroupTable(5, 0, table=NONASSOCIATIVE_LOOP), mode="full")
    assert not report.ok and report.failure.axiom == "associativity"
    a, b, c = report.failure.witness
    t = NONASSOCIATIVE_LOOP
    assert t[t[a, b], c] != t[a, t[b, c]]
    d = report.to_json_dict()
    assert d["failure"]["axiom"] == "associativity"


def test_validate_corrupted_entry_is_caught():
    t = C3_TABLE.copy()
    t[2, 2] = 2                      # break the Latin property
    report = validate(GroupTable(3, 0, table=t), mode="full")
    assert not report.ok


# ---------------------------------------------------------------------------
# Cayley file format
# ---------------------------------------------------------------------------

def test_cayley_round_trip_with_labels(tmp_path):
    q8 = generalized_quaternion(8)
    path = tmp_path / "q8.cayley"
    write_cayley(q8, path)
    back = read_cayley(path)
    assert back.name == "q8"
    assert back.size == 8 and back.identity == q8.identity
    assert np.array_equal(back.table, q8.table)
    assert back.labels == list(q8.labels)
    assert validate(back, mode="full").ok


def test_cayley_round_trip_lazy_group(tmp_path):
    lazy = cyclic(10, cap=4)
    path = tmp_path / "c10.cayley"
    write_cayley(lazy, path)
    back = read_cayley(path)
    assert np.array_equal(back.table, cyclic(10).table)


def test_cayley_comments_and_whitespace(tmp_path):
    path = tmp_path / "k4.cayley"
    path.write_text(
        "# Klein four group\n"
        "order 4\n"
        "# identity comes next\n"
        "identity 0\n"
        "0 1 2 3\n"
        "1 0 3 2\n"
        "2 3 0 1\n"
        "3 2 1 0\n"
        "labels e a b c\n")
    g = read_cayley(path)
    assert g.labels == ["e", "a", "b", "c"]
    assert validate(g, mode="full").ok


@pytest.mark.parametrize("body,fragment", [
    ("", "truncated"),
    ("order x\nidentity 0\n", "expected 'order N'"),
    ("size 2\nidentity 0\n0 1\n1 0\n", "expected 'order N'"),
    ("order 2\nidentity 5\n0 1\n1 0\n", "out of range"),
    ("order 2\nidentity 0\n0 1\n", "expected 2 table rows"),
    ("order 2\nidentity 0\n0 1 1\n1 0\n", "has 3 entries"),
    ("order 2\nidentity 0\n0 7\n1 0\n", "outside 0..1"),
    ("order 2\nidentity 0\n0 q\n1 0\n", "non-integer"),
    ("order 2\nidentity 0\n0 1\n1 0\nlabels a\n", "labels line has 1 tokens"),
    ("order 2\nidentity 0\n0 1\n1 0\nnames a b\n", "unexpected line"),
    ("order 2\nidentity 0\n0 1\n1 0\nlabels a b\nextra\n", "unexpected trailing"),
])
def test_cayley_parse_errors(tmp_path, body, fragment):
    path = tmp_path / "broken.cayley"
    path.write_text(body)
    with pytest.raises(InputError) as err:
        read_cayley(path)
    assert fragment in str(err.value)


def test_read_cayley_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_cayley(tmp_path / "missing.cayley")


def test_write_cayley_rejects_whitespace_labels():
    g = GroupTable(2, 0, table=np.array([[0, 1], [1, 0]]), labels=["e", "a b"])
    with pytest.raises(InputError):
        write_cayley(g, io.StringIO())
