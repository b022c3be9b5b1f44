"""GroupTable arithmetic, axiom validation, and the Cayley file format."""

import functools
import io
import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgx.constructors import Abelian, Cyclic, GeneralizedQuaternion, build_group, parse_group_spec
from pgx.errors import InputError, InvariantError
from pgx import groups
from pgx.groups import GroupTable, index_dtype, read_cayley, validate, write_cayley

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


def reference_order(g: GroupTable, a: int) -> int:
    """Order of a by successive multiplication, with no factorization of |G|;
    the independent reference for GroupTable.element_orders."""
    k = 1
    x = a
    while x != g.identity:
        x = g.product(x, a)
        k += 1
        if k > g.size:
            raise InvariantError(f"{g.name}: powers of element {a} do not reach the "
                                 "identity; not a group table")
    if g.size % k:
        raise InvariantError(f"{g.name}: element order {k} does not divide group order {g.size}")
    return k


def reference_cyclic_subgroup(g: GroupTable, a: int) -> frozenset[int]:
    """The set of powers of a (the identity and a itself included), by
    successive multiplication; the reference for the power-graph tests."""
    seen = {g.identity}
    x = a
    while x != g.identity:
        seen.add(x)
        x = g.product(x, a)
        if len(seen) > g.size:
            raise InvariantError(f"{g.name}: runaway cyclic subgroup")
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Element arithmetic
# ---------------------------------------------------------------------------

def test_product_and_power_in_cyclic_groups():
    c6 = Cyclic(6).build()
    assert c6.product(2, 3) == 5
    assert all(c6.product(c6.identity, a) == a for a in range(6))
    c12 = Cyclic(12).build()
    assert c12.power(1, 7) == 7
    assert c12.power(5, 0) == c12.identity


def test_element_order_and_cyclic_subgroup():
    c6 = Cyclic(6).build()
    assert reference_order(c6, c6.identity) == 1
    assert reference_order(c6, 5) == 6
    assert reference_cyclic_subgroup(c6, 2) == frozenset({0, 2, 4})
    assert reference_cyclic_subgroup(c6, c6.identity) == frozenset({0})
    for a in range(6):
        assert len(reference_cyclic_subgroup(c6, a)) == reference_order(c6, a)
        assert 6 % reference_order(c6, a) == 0


def test_quaternion_model_arithmetic():
    q8 = GeneralizedQuaternion(8).build()
    by_label = {lab: a for a, lab in enumerate(q8.labels)}
    i, j, k = by_label["i"], by_label["j"], by_label["k"]
    assert q8.product(i, j) == k
    minus_one = q8.product(q8.product(i, j), k)
    assert q8.labels[minus_one] == "-1"
    assert reference_order(q8, minus_one) == 2
    assert reference_cyclic_subgroup(q8, i) == {by_label[t] for t in ("1", "i", "-1", "-i")}


def test_index_and_exponent_validation():
    c6 = Cyclic(6).build()
    with pytest.raises(InputError):
        c6.product(0, 6)
    with pytest.raises(InputError):
        c6.product(-1, 0)
    with pytest.raises(InputError):
        c6.power(2, -1)


@pytest.mark.parametrize("text", ["C1", "C2", "C60", "C64", "D30", "Q16", "SD32",
                                  "M(4,3)", "He5", "Ab(2;2,1,1)", "C9xC3xC4", "Q8xC6"])
def test_element_orders_by_lagrange_match_successive_multiplication(text):
    g = build_group(parse_group_spec(text))
    assert g.has_table
    assert g.element_orders() == [reference_order(g, a) for a in range(g.size)]


def test_element_order_diverges_on_non_group():
    projection = GroupTable(3, 0, table=[[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    with pytest.raises(InvariantError):
        reference_order(projection, 1)


def test_element_order_must_divide_group_order():
    g = GroupTable(5, 0, table=NONASSOCIATIVE_LOOP)
    with pytest.raises(InvariantError):
        reference_order(g, 1)      # order 2 does not divide 5


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_constructor_rejects_bad_arguments():
    with pytest.raises(InputError):
        GroupTable(0, 0, table=np.zeros((0, 0), dtype=int))
    with pytest.raises(InputError):
        GroupTable(3, 3, table=C3_TABLE)
    with pytest.raises(InputError):
        GroupTable(3, 0)
    with pytest.raises(InputError):
        GroupTable(2, 0, table=C3_TABLE)
    with pytest.raises(InputError):
        GroupTable(3, 0, table=C3_TABLE + 1)
    with pytest.raises(InputError):
        GroupTable(3, 0, table=C3_TABLE - 1)         # negative, not wrapped to 2^16 - 1
    with pytest.raises(InputError):
        GroupTable(3, 0, table=(C3_TABLE + 1).astype(np.uint16))
    with pytest.raises(InputError):
        GroupTable(3, 0, table=C3_TABLE, labels=["a", "b"])


def test_index_dtype_holds_the_sum_of_two_indices():
    assert index_dtype(1) == index_dtype(32768) == np.uint16
    assert index_dtype(32769) == np.uint32
    assert GroupTable(3, 0, table=C3_TABLE).table.dtype == np.uint16


def test_size_and_repr():
    g = Cyclic(300).build()
    assert g.product(299, 1) == 0
    assert "table" in repr(g)
    assert g.size == 300


def test_table_is_read_only():
    g = Cyclic(4).build()
    with pytest.raises(ValueError):
        g.table[0, 0] = 1


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_validate_full_passes_on_groups():
    report = validate(GeneralizedQuaternion(8).build())
    assert report.ok and report.mode == "full"
    assert report.failure is None


def test_validate_is_full_at_every_order():
    # exact on both sides of 256 and up to the largest census table the benchmark writes
    for m in (16, 256, 300, 2048):
        report = validate(Cyclic(m).build())
        assert report.ok and report.mode == "full"


def test_validate_identity_failure():
    report = validate(GroupTable(3, 1, table=C3_TABLE))
    assert (report.ok, report.failure.axiom, report.mode) == (False, "identity", "full")
    # the mode is "full" at every order, also on a failure
    t = Cyclic(300).build().table.copy()
    t[[0, 1]] = t[[1, 0]]            # the identity's row is no longer the identity
    report = validate(GroupTable(300, 0, table=t))
    assert (report.ok, report.failure.axiom, report.mode) == (False, "identity", "full")


def test_validate_latin_row_failure():
    t = np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    report = validate(GroupTable(3, 0, table=t))
    assert not report.ok and report.failure.axiom == "latin-row"
    assert report.failure.witness == (1,)


def test_validate_latin_column_failure():
    t = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    report = validate(GroupTable(3, 0, table=t))
    assert not report.ok and report.failure.axiom == "latin-column"


def test_validate_inverse_failure():
    report = validate(GroupTable(5, 0, table=ONE_SIDED_INVERSE))
    assert not report.ok and report.failure.axiom == "inverse"
    assert report.failure.witness == (1, 2)


def test_validate_associativity_failure_with_witness():
    report = validate(GroupTable(5, 0, table=NONASSOCIATIVE_LOOP))
    assert not report.ok and report.failure.axiom == "associativity"
    a, b, c = report.failure.witness
    t = NONASSOCIATIVE_LOOP
    assert t[t[a, b], c] != t[a, t[b, c]]


def test_full_associativity_witness_from_a_late_block_is_the_first_triple():
    # NONASSOCIATIVE_LOOP x C48 on indices l*48 + h: a triple fails exactly
    # when its loop components fail, so the lexicographically first failing
    # triple is 48 times the loop's, and its row a = 48 lies past the first
    # row blocks of the exhaustive check.
    m, loop = 48, NONASSOCIATIVE_LOOP
    cyc = np.add.outer(np.arange(m), np.arange(m)) % m
    t = (loop[:, None, :, None] * m + cyc[None, :, None, :]).reshape(5 * m, 5 * m)
    first = next((a, b, c) for a, b, c in itertools.product(range(5), repeat=3)
                 if loop[loop[a, b], c] != loop[a, loop[b, c]])
    report = validate(GroupTable(5 * m, 0, table=t))
    assert report.mode == "full" and report.failure.axiom == "associativity"
    assert report.failure.witness == tuple(m * v for v in first)


def reference_validate(g: GroupTable) -> groups.ValidationReport:
    """`validate` with no generating set and no blocks: the Latin checks sort
    the whole table, and associativity is decided by a scan of every triple.
    The reference for validate's reports."""
    t, e, n = g.table, g.identity, g.size
    report = functools.partial(groups.ValidationReport, "full")
    fail = groups.ValidationFailure
    idx = np.arange(n)
    if not np.array_equal(t[e], idx):
        b = int(np.flatnonzero(t[e] != idx)[0])
        return report(fail("identity", (e, b), f"e*{b} = {int(t[e, b])} != {b}"))
    if not np.array_equal(t[:, e], idx):
        a = int(np.flatnonzero(t[:, e] != idx)[0])
        return report(fail("identity", (a, e), f"{a}*e = {int(t[a, e])} != {a}"))
    bad = np.flatnonzero((np.sort(t, axis=1) != idx).any(axis=1))
    if bad.size:
        return report(fail("latin-row", (int(bad[0]),), f"row {bad[0]} is not a permutation"))
    bad = np.flatnonzero((np.sort(t, axis=0) != idx[:, None]).any(axis=0))
    if bad.size:
        return report(fail("latin-column", (int(bad[0]),), f"column {bad[0]} is not a permutation"))
    right_inv = np.argmax(t == e, axis=1)
    bad = np.flatnonzero(t[right_inv, idx] != e)
    if bad.size:
        a, r = int(bad[0]), int(right_inv[bad[0]])
        return report(fail("inverse", (a, r), f"right inverse {r} of {a} is not a left inverse"))
    for a in range(n):
        bad = np.argwhere(t[t[a]] != t[a][t])     # [b, c]: (a*b)*c != a*(b*c)
        if bad.size:
            b, c = (int(v) for v in bad[0])
            return report(fail("associativity", (a, b, c),
                               f"({a}*{b})*{c} = {int(t[t[a, b], c])} but "
                               f"{a}*({b}*{c}) = {int(t[a, t[b, c]])}"))
    return report(None)


def block_edit(p: int, k: int, a: int, b: int, shift: int) -> np.ndarray:
    """The table of C_p^k with one p-by-p block changed: rows a + <h> and
    columns b + <h>, for h the element 1 of order p, give a + b + (i + j +
    shift)h where the group gives a + b + (i + j)h. The Latin square stays
    one, as in the broken census tables of the CLI tests."""
    g = Abelian(p, (1,) * k).build()
    t = g.table.copy()
    h = [g.power(1, i) for i in range(p)]
    for i in range(p):
        for j in range(p):
            t[g.table[a, h[i]], g.table[b, h[j]]] = g.table[g.table[a, b], h[(i + j + shift) % p]]
    return t


# every builder family, from order 1 up to order 256
FAMILY_SPECS = ("C1", "C2", "C7", "C45", "C128", "Ab(2;1,1,1,1,1,1)", "Ab(3;2,1)", "Ab(5;1,1)",
                "M(4,2)", "M(5,3)", "D10", "D48", "D128", "Q8", "Q32", "SD16", "SD64",
                "SD256", "He3", "He5", "C9xC5", "Q8xC6", "D8xC3xC2")


@st.composite
def validation_cases(draw):
    """A table: a group of some family; NONASSOCIATIVE_LOOP or
    ONE_SIDED_INVERSE times a group of order at most 51, on either side; or a
    block edit of C_p^k. It may be relabelled, and three cases in seven have
    one entry changed or two entries of a row or column swapped."""
    kind = draw(st.sampled_from(["group", "loop-product", "block-edit"]))
    if kind == "block-edit":
        p, k = draw(st.sampled_from([(2, 4), (2, 6), (2, 8), (3, 3), (3, 4), (5, 2), (5, 3)]))
        n = p ** k
        t = block_edit(p, k, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
                       draw(st.integers(0, p - 1)))
        e = 0
    else:
        g = build_group(parse_group_spec(draw(st.sampled_from(FAMILY_SPECS))))
        t, e = g.table.astype(np.int64), g.identity
        if kind == "loop-product" and g.size <= 51:
            m = g.size
            loop = draw(st.sampled_from([NONASSOCIATIVE_LOOP, ONE_SIDED_INVERSE]))
            if draw(st.booleans()):
                t = (loop[:, None, :, None] * m + t[None, :, None, :]).reshape(5 * m, 5 * m)
            else:
                t = (t[:, None, :, None] * 5 + loop[None, :, None, :]).reshape(5 * m, 5 * m)
                e = 5 * e
    n = t.shape[0]
    if draw(st.booleans()):                                 # relabel by a permutation
        perm = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(n)
        inv = np.argsort(perm)
        t, e = perm[t[np.ix_(inv, inv)]], int(perm[e])
    edit = draw(st.sampled_from(["none"] * 4 + ["entry", "row-swap", "column-swap"]))
    x, y, z = (draw(st.integers(0, n - 1)) for _ in range(3))
    t = np.array(t)
    if edit == "entry":
        t[x, y] = z
    elif edit == "row-swap":                                # row x stays a permutation
        t[x, [y, z]] = t[x, [z, y]]
    elif edit == "column-swap":                             # column x stays a permutation
        t[[y, z], x] = t[[z, y], x]
    return GroupTable(n, e, table=t)


@settings(max_examples=200, deadline=None)
@given(validation_cases())
def test_validate_equals_the_exhaustive_reference(g):
    report = validate(g)
    assert report == reference_validate(g)
    # each generator at least doubles the reached set or the search stops,
    # so Light's test never needs more than floor(log2 n) generators; on a
    # group the search never stops early
    if groups._validate_structure(g.table, g.identity) is None:
        gens = groups._generators(g.table, g.identity)
        assert gens is None or len(gens) <= g.size.bit_length() - 1
        if report.ok:
            assert gens is not None


def closure_generators(t: np.ndarray, e: int) -> list[int]:
    """Greedy generators by closing the reached set W under W*W: the least
    element not yet reached, then W <- W u W*W until W stops growing. The
    reference for the generators of `groups._generators` on group tables."""
    n = t.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[e] = True
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        size = 0
        while (w := np.flatnonzero(reached)).size != size:
            size = w.size
            reached[t[np.ix_(w, w)]] = True
    return gens


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_generators_equal_the_product_closure_on_groups(spec):
    g = build_group(parse_group_spec(spec))
    gens = groups._generators(g.table, g.identity)
    assert gens == closure_generators(g.table, g.identity)
    assert len(gens) <= g.size.bit_length() - 1


def test_generator_search_refuses_a_loop_that_fails_to_double():
    # a loop of order 6 times C8, on indices l*8 + h: a Latin square with
    # identity and two-sided inverses, so it passes the structure checks.
    # The generators 1 and 8 reach the 32 elements of loops 0..3; the third,
    # 32, adds only the 16 of loops 4 and 5, so the 48 reached are less than
    # twice 32: no group has such a step, so the search stops and the
    # exhaustive scan names the failing triple.
    loop = np.array([[0, 1, 2, 3, 4, 5], [1, 2, 3, 0, 5, 4], [2, 3, 4, 5, 0, 1],
                     [3, 0, 5, 4, 1, 2], [4, 5, 0, 1, 2, 3], [5, 4, 1, 2, 3, 0]])
    cyc = np.add.outer(np.arange(8), np.arange(8)) % 8
    t = (loop[:, None, :, None] * 8 + cyc[None, :, None, :]).reshape(48, 48)
    g = GroupTable(48, 0, table=t)
    assert groups._validate_structure(g.table, 0) is None
    assert groups._generators(g.table, 0) is None
    report = validate(g)
    assert (report.failure.axiom, report.failure.witness) == ("associativity", (8, 8, 16))
    assert report == reference_validate(g)


def test_block_edit_of_order_1024_is_refused_with_its_first_failing_triple():
    # one changed intercalate of C_2^10 fails on few triples: the first of
    # 2^20 seeded random triples to fail lies past the first 2^16 of them,
    # yet the exact check refuses the table and names the first failing triple
    g = GroupTable(1024, 0, table=block_edit(2, 10, 2, 4, 1))
    rng = np.random.default_rng(0)
    a, b, c = (rng.integers(0, 1024, size=1 << 20) for _ in range(3))
    t = g.table
    assert int(np.flatnonzero(t[t[a, b], c] != t[a, t[b, c]])[0]) >= 1 << 16
    report = validate(g)
    assert (report.mode, report.failure.axiom, report.failure.witness) == \
        ("full", "associativity", (2, 2, 4))
    assert report == reference_validate(g)


@pytest.mark.parametrize("axiom", ["latin-row", "latin-column"])
def test_latin_failure_from_a_late_block_names_the_first_line(axiom, monkeypatch):
    # order 300 sorts 150 lines per block, so line 250 lies in the second
    # block; order 600 sorts 100 lines per block, so lines 250 and 450 fail
    # in the third and the fifth, and the threaded map must name line 250
    for n, step, lines in ((300, 150, (250,)), (600, 100, (450, 250))):
        assert groups._block_step(n, groups._BLOCK) == step
        t = Cyclic(n).build().table.copy()
        for a in lines:
            if axiom == "latin-row":
                t[[a, a + 10], 7] = t[[a + 10, a], 7]       # columns stay permutations
            else:
                t[7, [a, a + 10]] = t[7, [a + 10, a]]       # rows stay permutations
        g = GroupTable(n, 0, table=t)
        for cpus in (1, 2):
            monkeypatch.setattr(groups, "_cpus", lambda: cpus)
            report = validate(g)
            assert (report.failure.axiom, report.failure.witness) == (axiom, (250,))
            assert report == reference_validate(g)


def test_light_failure_in_the_last_row_block_does_not_depend_on_the_cpu_count(monkeypatch):
    # C1024 with one intercalate swapped, in rows 300, 812 and columns 100,
    # 612: with the generator 1, Light's test fails on rows 299, 300, 811
    # and 812 only. Relabelled so that they are the last four elements, every
    # failure lies in the last of the 16 row blocks, which the threaded
    # search must still reach
    n = 1024
    t = np.add.outer(np.arange(n), np.arange(n)) % n
    rows, cols = [300, 300, 812, 812], [100, 612, 100, 612]
    t[rows, cols] = t[rows, cols[::-1]]
    late = [299, 300, 811, 812]
    old = [0, 1, *sorted(set(range(2, n)) - set(late)), *late]     # old[new label]
    t = np.argsort(old)[t[np.ix_(old, old)]]
    gens = groups._generators(t, 0)
    assert gens == [1]
    bad = [x for x in range(n) if not np.array_equal(t[t[x, gens]], t[x][t[gens]])]
    step = max(1, groups._BLOCK // (len(gens) * n))
    assert bad == [1020, 1021, 1022, 1023] and (bad[0] // step, -(-n // step)) == (15, 16)
    g = GroupTable(n, 0, table=t)
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(groups, "_cpus", lambda: cpus)
        assert not groups._light(g.table, gens)
        reports.append(validate(g))
    assert reports[0] == reports[1] == reference_validate(g)
    failure = reports[0].failure
    assert (failure.axiom, failure.witness) == ("associativity", (1, 1020, 100))


def test_element_orders_are_computed_once_and_shared_by_copy(monkeypatch):
    g = build_group(parse_group_spec("C12"))
    passes = []
    powers = groups._powers
    monkeypatch.setattr(groups, "_powers",
                        lambda *args: passes.append(args[2]) or powers(*args))
    orders = g.element_orders()
    first = len(passes)
    orders[0] = 99
    assert g.element_orders() == [reference_order(g, a) for a in range(12)]
    assert first > 0 and len(passes) == first


def test_validate_corrupted_entry_is_caught():
    t = C3_TABLE.copy()
    t[2, 2] = 2                      # break the Latin property
    report = validate(GroupTable(3, 0, table=t))
    assert not report.ok


# ---------------------------------------------------------------------------
# Cayley file format
# ---------------------------------------------------------------------------

def test_cayley_round_trip_with_labels(tmp_path):
    q8 = GeneralizedQuaternion(8).build()
    path = tmp_path / "q8.cayley"
    write_cayley(q8, path)
    back = read_cayley(path)
    assert back.name == "q8"
    assert back.size == 8 and back.identity == q8.identity
    assert np.array_equal(back.table, q8.table)
    assert back.labels == list(q8.labels)
    assert validate(back).ok


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
    assert validate(g).ok


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
    ("order 2\nidentity 0\n0 1\n1 0\nlabels a a\n", "broken.cayley:5: labels line repeats"),
    ("order 2\nidentity 0\n0 1\n1 0\nnames a b\n", "unexpected line"),
    ("order 2\nidentity 0\n0 1\n1 0\nlabels a b\nextra\n", "unexpected trailing"),
    # rows the one-pass parse must hand back to the row-by-row parse
    ("order 2\nidentity 0\n0 1 1\n1\n", "broken.cayley:3: row 0 has 3 entries, expected 2"),
    ("order 2\nidentity 0\n0 1\n1\n", "broken.cayley:4: row 1 has 1 entries, expected 2"),
    ("order 3\nidentity 0\n0 1 2\n1  2\n2 0 1\n", "broken.cayley:4: row 1 has 2 entries, expected 3"),
    (f"order 2\nidentity 0\n0 1\n1 {2 ** 70}\n", "broken.cayley:4: row 1 has an entry outside 0..1"),
    ("order 2\nidentity 0\n0 1\n1 -1\n", "broken.cayley:4: row 1 has an entry outside 0..1"),
    ("order 2\nidentity 0\n0 1.5\n1 0\n", "broken.cayley:3: row 0 contains a non-integer entry"),
    ("order 2\nidentity 0\n0 1\n1 -\n", "broken.cayley:4: row 1 contains a non-integer entry"),
    ("order 2\nidentity 0\n0 \u00b2\n1 0\n", "broken.cayley:3: row 0 contains a non-integer entry"),
])
def test_cayley_parse_errors(tmp_path, body, fragment):
    path = tmp_path / "broken.cayley"
    path.write_text(body)
    with pytest.raises(InputError) as err:
        read_cayley(path)
    assert fragment in str(err.value)


@pytest.mark.parametrize("body", [
    "order 2\ridentity 0\r0 1\r1 0\r",                          # CR line ends
    "order 2\r\nidentity 0\n\r0 1\r\n1 0\rlabels a b",             # mixed, no final newline
    "# a comment\rorder 2\nidentity 0\n0 1\n1 0\n",                # a CR ends the comment
    "\x1c order 2 \x1f\nidentity 0\n\x1d\n0 1\x1e\n1 0\n",          # ASCII that str.strip() strips
    "\u00a0# comment\norder 2\n\u3000\nidentity 0\n0 1\n1 0\nlabels e \u00e9\u2003\n",
])
def test_read_cayley_keeps_the_lines_of_a_text_mode_read(tmp_path, body):
    path = tmp_path / "g.cayley"
    path.write_bytes(body.encode())
    with open(path, encoding="utf-8") as fh:
        text_mode = [(i, row) for i, line in enumerate(fh, 1)
                     if (row := line.strip()) and not row.startswith("#")]
    with open(path, "rb") as fh:
        assert [(i, row.decode()) for i, row in groups._content_lines(fh)] == text_mode
    assert np.array_equal(read_cayley(path).table, [[0, 1], [1, 0]])


def test_read_cayley_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "g.cayley"
    path.write_bytes(b"# \xff\norder 2\nidentity 0\n0 1\n1 0\n")
    with pytest.raises(InputError, match="cannot read .*'utf-8' codec can't decode byte 0xff"):
        read_cayley(path)


def test_read_cayley_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_cayley(tmp_path / "missing.cayley")


def test_write_cayley_rejects_whitespace_labels(tmp_path):
    g = GroupTable(2, 0, table=np.array([[0, 1], [1, 0]]), labels=["e", "a b"])
    with pytest.raises(InputError):
        write_cayley(g, io.StringIO())
    path = tmp_path / "k2.cayley"
    with pytest.raises(InputError):
        write_cayley(g, path)
    assert not path.exists()


def reference_write_cayley(g, sink):
    """A row-join writer, one entry at a time: the byte reference for
    `write_cayley`, which formats blocks of rows (a text sink only)."""
    sink.write(f"# {g.name}\n")
    sink.write(f"order {g.size}\n")
    sink.write(f"identity {g.identity}\n")
    for row in g.table:
        sink.write(" ".join(str(int(v)) for v in row) + "\n")
    if g.labels is not None:
        sink.write("labels " + " ".join(g.labels) + "\n")


CAYLEY_GROUPS = [build_group(parse_group_spec(t)) for t in
                 ("C1", "C12", "Q8", "D24", "He3", "Ab(3;1,1)xC5xC11")] + [
    GroupTable(5, 0, table=NONASSOCIATIVE_LOOP, name="loop")]

# orders on both sides of each change in the width of the largest index
# (1, 2, 9, 10, 11, 99, ..., 1001), the larger ones over several row blocks,
# and a Latin square with an identity that is not a group
WRITER_GROUPS = [build_group(parse_group_spec(t)) for t in
                 ("C2", "Ab(3;1,1)", "D10", "C11", "C9xC11", "D100", "C101",
                  "He3xC37", "Q8xC125", "C1001")] + [
    GroupTable(81, 0, table=block_edit(3, 4, 3, 9, 1), name="broken")]


@pytest.mark.parametrize("g", CAYLEY_GROUPS + WRITER_GROUPS, ids=lambda g: g.name)
def test_write_cayley_matches_the_per_entry_reference(g, tmp_path):
    fast, slow = io.StringIO(), io.StringIO()
    write_cayley(g, fast)
    reference_write_cayley(g, slow)
    assert fast.getvalue() == slow.getvalue()
    path = tmp_path / "g.cayley"
    write_cayley(g, path)
    assert path.read_bytes() == slow.getvalue().encode()
    back = read_cayley(path)
    assert (back.size, back.identity, back.labels) == (g.size, g.identity, g.labels)
    assert np.array_equal(back.table, g.table)


def test_write_cayley_temporaries_are_bounded_by_the_block(tmp_path):
    g = build_group(parse_group_spec("C2048"))      # 64 blocks, 18.7 MB of text
    assert g.labels
    tracemalloc.start()
    try:
        write_cayley(g, tmp_path / "c2048.cayley")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _cayley_text(g, sep=" ", token=str):
    rows = "".join(sep.join(token(v) for v in row) + "\n" for row in g.table.tolist())
    return f"order {g.size}\nidentity {g.identity}\n{rows}"


@pytest.mark.parametrize("g", CAYLEY_GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("sep,token", [
    (" ", str),                                  # as write_cayley writes it
    ("\t", str),
    ("   ", str),
    (" \t ", lambda v: f"+{v}"),
    (" ", lambda v: "_".join(str(v))),           # 12 -> 1_2, as int() reads it
    (" ", lambda v: f"00{v}"),
])
def test_read_cayley_accepts_every_int_token_form(g, sep, token, tmp_path):
    path = tmp_path / "g.cayley"
    path.write_text(_cayley_text(g, sep, token))
    back = read_cayley(path)
    assert back.table.dtype == index_dtype(g.size)
    assert np.array_equal(back.table, g.table)


@pytest.mark.parametrize("text", ["D24", "D600"])      # D600 spans six row blocks
def test_read_cayley_parses_written_rows_in_bulk(text):
    g = build_group(parse_group_spec(text))
    rows = io.StringIO()
    write_cayley(g, rows)
    table_rows = [r.encode() for r in rows.getvalue().splitlines()[3:3 + g.size]]
    assert np.array_equal(groups._parse_rows(table_rows, g.size), g.table)
    assert groups._parse_rows([r.replace(b" ", b"\t") for r in table_rows], g.size) is None


def test_first_hit_names_the_earliest_block_whatever_the_thread_count(monkeypatch):
    # more threads than cores and a short switch interval, so the threads
    # interleave often; the earliest hit or error wins, every block runs at
    # most once, and with no hit every block runs
    monkeypatch.setattr(groups, "_cpus", lambda: 8)
    monkeypatch.setattr(groups, "_MAX_THREADS", 8)
    starts = range(0, 1000, 7)
    calls = []

    def block(s):
        calls.append(s)
        if s % 49 == 21:
            raise ValueError(s)
        return s if s % 49 == 42 else None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert groups._first_hit(lambda s: calls.append(s), starts) is None
        assert sorted(calls) == list(starts)
        calls.clear()
        with pytest.raises(ValueError, match="^21$"):
            groups._first_hit(block, starts)
        assert len(set(calls)) == len(calls) and 21 in calls
        assert groups._first_hit(lambda s: block(s + 28), starts) == 42     # s = 14 hits, s = 42 raises
    finally:
        sys.setswitchinterval(interval)
    # an error in a later block, raised first, loses to an earlier block's hit
    later_done = threading.Event()

    def earlier_waits(s):
        if s == 0:
            assert later_done.wait(5)
            return "earlier"
        later_done.set()
        raise ValueError(s)

    monkeypatch.setattr(groups, "_MAX_THREADS", 2)
    assert groups._first_hit(earlier_waits, range(2)) == "earlier"


def test_first_hit_stops_at_the_first_hit_on_one_thread(monkeypatch):
    monkeypatch.setattr(groups, "_cpus", lambda: 1)
    calls = []
    assert groups._first_hit(lambda s: calls.append(s) or (s if s >= 3 else None),
                             range(10)) == 3
    assert calls == [0, 1, 2, 3]
    # a refused first block of the parse stops it before the second block
    rows = [b" ".join(b"%d" % ((r + c) % 600) for c in range(600)) for r in range(600)]
    parsed = []
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *a, **k: parsed.append(1) or fromstring(*a, **k))
    assert groups._parse_rows([rows[0].replace(b"1", b"+1", 1)] + rows[1:], 600) is None
    assert parsed == []


def test_first_hit_runs_on_at_most_max_threads(monkeypatch):
    monkeypatch.setattr(groups, "_cpus", lambda: 64)
    threads = set()
    assert groups._first_hit(lambda s: threads.add(threading.get_ident()) or time.sleep(1e-3),
                             range(40)) is None
    assert threading.get_ident() in threads and len(threads) <= groups._MAX_THREADS == 2


def _read_with_cpus(monkeypatch, path, cpus):
    """read_cayley and validate with `cpus` CPUs available, or the InputError text."""
    monkeypatch.setattr(groups, "_cpus", lambda: cpus)
    try:
        g = read_cayley(path)
    except InputError as exc:
        return str(exc)
    return g.table, g.labels, validate(g)


def test_read_and_validate_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    # order 1024 spans 16 blocks of the parse and of each Latin check
    g = build_group(parse_group_spec("D1024"))
    assert groups._block_step(1024, groups._BLOCK) == 64
    path = tmp_path / "d1024.cayley"
    write_cayley(g, path)
    lines = path.read_bytes().splitlines(keepends=True)     # '# D1024', order, identity, rows
    variants = {
        "written": b"".join(lines),
        "crlf": b"".join(line.replace(b"\n", b"\r\n") for line in lines),
        "comment": b"".join(lines[:600] + [b"# between rows 596 and 597\n"] + lines[600:]),
        "malformed": b"".join(lines[:903] + [lines[903].replace(b" 7 ", b" 7x ", 1)] + lines[904:]),
    }
    for name, body in variants.items():
        variant = tmp_path / f"{name}.cayley"
        variant.write_bytes(body)
        serial, threaded = (_read_with_cpus(monkeypatch, variant, cpus) for cpus in (1, 2))
        if name == "malformed":
            assert serial == threaded == \
                f"{variant}:904: row 900 contains a non-integer entry"
        else:
            table, labels, report = threaded
            assert np.array_equal(table, g.table) and np.array_equal(serial[0], table)
            assert serial[1:] == (labels, report) and report.ok
