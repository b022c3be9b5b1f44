"""Brute-force power graphs, their exports, and agreement with the formulas."""

import io
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from pgx.constructors import build_group, parse_group_spec
from pgx.errors import InputError, InvariantError, ResourceError
from pgx.groups import GroupTable
from pgx.powergraph import (
    DirectedPowerGraph,
    UndirectedPowerGraph,
    build_directed,
    build_undirected,
    export,
    oracle_counts,
)
from pgx.spectrum import order_spectrum, stats_from_spectrum, totient
from test_groups import NONASSOCIATIVE_LOOP, reference_cyclic_subgroup

K2 = np.array([[0, 1], [1, 0]])


def mutual_pairs(graph: DirectedPowerGraph) -> list[list[int]]:
    """The pairs [a, b], a < b, with arcs both ways, in lexicographic order."""
    arcs = {tuple(arc) for arc in graph.arcs.tolist()}
    return sorted([a, b] for a, b in arcs if a < b and (b, a) in arcs)


def degrees(graph: DirectedPowerGraph | UndirectedPowerGraph) -> list[int]:
    """Degrees sorted descending: out-degrees of a directed graph, where the
    out-degree of g is its element order minus one."""
    if isinstance(graph, DirectedPowerGraph):
        ends = graph.arcs[:, 0]
    else:
        ends = graph.edges.ravel()
    return sorted(np.bincount(ends, minlength=graph.size).tolist(), reverse=True)


def test_directed_graph_of_c3():
    g = build_directed(build_group(parse_group_spec("C3")))
    assert g.size == 3 and g.name == "C3"
    assert g.arcs.tolist() == [[1, 0], [1, 2], [2, 0], [2, 1]]
    assert mutual_pairs(g) == [[1, 2]]
    assert g.num_arcs == 4 and len(mutual_pairs(g)) == 1
    assert np.bincount(g.arcs[:, 0], minlength=g.size).tolist() == [0, 2, 2]


def test_quaternion_mutual_pairs_are_the_antipodal_generators():
    q8 = build_group(parse_group_spec("Q8"))
    g = build_directed(q8)
    assert g.num_arcs == 19
    # <i> = <-i>, <j> = <-j>, <k> = <-k>
    assert mutual_pairs(g) == [[1, 3], [4, 6], [5, 7]]
    by_label = {lab: idx for idx, lab in enumerate(g.labels)}
    for a, b in mutual_pairs(g):
        assert reference_cyclic_subgroup(q8, a) == reference_cyclic_subgroup(q8, b)
    assert by_label["-1"] not in {v for pair in mutual_pairs(g) for v in pair}


def test_undirected_graph_of_elementary_abelian():
    g = build_undirected(build_group(parse_group_spec("C2xC2xC2")))
    assert g.num_edges == 7
    assert all(a == 0 for a, b in g.edges.tolist())
    assert degrees(g) == [7, 1, 1, 1, 1, 1, 1, 1]


def test_degree_sequences_match_worked_examples():
    directed = build_directed(build_group(parse_group_spec("C4")))
    assert degrees(directed) == [3, 3, 1, 0]
    undirected = build_undirected(build_group(parse_group_spec("C6")))
    assert undirected.num_edges == 13
    assert degrees(undirected) == [5, 5, 5, 4, 4, 3]
    assert sum(degrees(undirected)) == 2 * undirected.num_edges


def test_out_degree_is_element_order_minus_one():
    g = build_group(parse_group_spec("D8"))
    graph = build_directed(g)
    out_degrees = np.bincount(graph.arcs[:, 0], minlength=graph.size).tolist()
    assert out_degrees == [o - 1 for o in g.element_orders()]


GRAPH_SPECS = ["C1", "C2", "C12", "D8", "Q16", "SD16", "M(4,2)",
               "C9xC3", "He3", "Q8xC2"]


@pytest.mark.parametrize("text", GRAPH_SPECS)
def test_graphs_agree_with_spectrum_formulas(text):
    g = build_group(parse_group_spec(text))
    stats = stats_from_spectrum(text, order_spectrum(g))
    directed = build_directed(g)
    undirected = build_undirected(g)
    assert directed.num_arcs == stats.directed_arcs
    assert len(mutual_pairs(directed)) == stats.mutual_edges
    assert undirected.num_edges == stats.undirected_edges
    assert oracle_counts(g) == (directed.num_arcs, len(mutual_pairs(directed)),
                                undirected.num_edges)


@pytest.mark.parametrize("text", GRAPH_SPECS)
def test_graph_structure_invariants(text):
    g = build_group(parse_group_spec(text))
    directed = build_directed(g)
    undirected = build_undirected(g)
    arc_set = {tuple(a) for a in directed.arcs.tolist()}
    for x, y in arc_set:
        assert x != y and y in reference_cyclic_subgroup(g, x)
    # pair lists are sorted and carry a < b
    assert directed.arcs.tolist() == sorted(directed.arcs.tolist())
    rows = undirected.edges.tolist()
    assert rows == sorted(rows)
    assert all(a < b for a, b in rows)
    # undirected edge set is the symmetrized arc set
    sym = {(min(a, b), max(a, b)) for a, b in arc_set}
    assert {tuple(e) for e in undirected.edges.tolist()} == sym
    # mutual pairs are exactly the two-way arcs
    mutual = {(a, b) for a, b in sym if (a, b) in arc_set and (b, a) in arc_set}
    assert {tuple(m) for m in mutual_pairs(directed)} == mutual


@pytest.mark.parametrize("text", ["C12", "D8", "Q8", "C9xC3", "M(4,2)"])
def test_mutual_pairs_partition_by_cyclic_subgroup(text):
    g = build_group(parse_group_spec(text))
    graph = build_directed(g)
    subgroups = {reference_cyclic_subgroup(g, a) for a in range(g.size)}
    expected = sum(comb(totient(len(z)), 2) for z in subgroups)
    pairs = mutual_pairs(graph)
    assert len(pairs) == expected
    for a, b in combinations(range(g.size), 2):
        mutual = reference_cyclic_subgroup(g, a) == reference_cyclic_subgroup(g, b)
        listed = [a, b] in pairs
        assert mutual == listed


def test_brute_force_cap_is_enforced():
    g = build_group(parse_group_spec("C100"))
    for builder in (build_directed, build_undirected, oracle_counts):
        with pytest.raises(ResourceError) as err:
            builder(g, cap=50)
        assert "exceeds the brute-force cap 50" in str(err.value)
        assert "spectrum formulas" in str(err.value)


def test_closure_scan_rejects_non_group_tables():
    t = np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1]])   # row 1 never reaches 0
    with pytest.raises(InvariantError):
        build_directed(GroupTable(3, 0, table=t))


CENSUS_16 = sorted((Path(__file__).resolve().parent.parent / "census" / "16").glob("*.cayley"))


@pytest.mark.parametrize("text", GRAPH_SPECS + [
    pytest.param(f"file:{p}", id=f"census-16-{p.stem}") for p in CENSUS_16])
def test_oracle_counts_match_graphs_and_cyclic_subgroup_sets(text):
    g = build_group(parse_group_spec(text))
    directed = build_directed(g)
    undirected = build_undirected(g)
    subgroup = [reference_cyclic_subgroup(g, a) for a in range(g.size)]
    pairs = list(combinations(range(g.size), 2))
    from_sets = (
        sum(len(z) for z in subgroup) - g.size,
        sum(subgroup[a] == subgroup[b] for a, b in pairs),
        sum(a in subgroup[b] or b in subgroup[a] for a, b in pairs),
    )
    assert oracle_counts(g) == from_sets == (
        directed.num_arcs, len(mutual_pairs(directed)), undirected.num_edges)


@pytest.mark.parametrize("table", [
    np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1]]),
    NONASSOCIATIVE_LOOP,
], ids=["powers-miss-identity", "nonassociative-loop"])
def test_orders_and_oracle_reject_non_group_tables(table):
    g = GroupTable(len(table), 0, table=table)
    with pytest.raises(InvariantError):
        g.element_orders()
    with pytest.raises(InvariantError):
        oracle_counts(g)


# Loops (Latin squares with identity 0) on which x^|G| = e for every x under
# binary powering, so element orders exist, but successive powers disagree.
@pytest.mark.parametrize("rows,message", [
    ([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 5, 4, 1, 0, 3],
      [3, 2, 5, 4, 1, 0], [4, 3, 0, 5, 2, 1], [5, 4, 1, 0, 3, 2]],
     "do not first return to the identity"),
    ([[0, 1, 2, 3, 4, 5, 6, 7], [1, 3, 4, 2, 0, 7, 5, 6], [2, 6, 5, 1, 3, 4, 7, 0],
      [3, 2, 0, 5, 7, 6, 1, 4], [4, 0, 6, 7, 5, 3, 2, 1], [5, 7, 3, 6, 1, 0, 4, 2],
      [6, 5, 7, 4, 2, 1, 0, 3], [7, 4, 1, 0, 6, 2, 3, 5]],
     "generates two different cyclic subgroups"),
], ids=["walk-misses-order", "generator-claimed-twice"])
def test_oracle_walk_rejects_inconsistent_powers(rows, message):
    g = GroupTable(len(rows), 0, table=np.array(rows))
    g.element_orders()
    with pytest.raises(InvariantError, match=message):
        oracle_counts(g)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_dot_export_directed_c3():
    sink = io.StringIO()
    export(build_directed(build_group(parse_group_spec("C3"))), "dot", sink)
    assert sink.getvalue() == (
        'digraph "C3" {\n'
        '  "0";\n'
        '  "1";\n'
        '  "2";\n'
        '  "1" -> "0";\n'
        '  "1" -> "2";\n'
        '  "2" -> "0";\n'
        '  "2" -> "1";\n'
        '}\n'
    )


def test_dot_export_undirected_uses_labels():
    sink = io.StringIO()
    export(build_undirected(build_group(parse_group_spec("Q8"))), "dot", sink)
    text = sink.getvalue()
    assert text.startswith('graph "Q8" {\n')
    assert '  "i" -- "-i";\n' in text
    assert "->" not in text
    lines = text.splitlines()
    assert len(lines) == 2 + 8 + 16     # braces + vertices + edges


def test_dot_export_quotes_special_characters():
    g = GroupTable(2, 0, table=K2, name='K"2', labels=["e", 'a\\"b'])
    sink = io.StringIO()
    export(build_undirected(g), "dot", sink)
    text = sink.getvalue()
    assert text.startswith('graph "K\\"2" {\n')
    assert '"a\\\\\\"b"' in text


def test_dot_export_without_labels_uses_indices():
    g = GroupTable(2, 0, table=K2, name="K2")
    sink = io.StringIO()
    export(build_undirected(g), "dot", sink)
    assert '  "0" -- "1";\n' in sink.getvalue()


def test_edge_csv_exports():
    sink = io.StringIO()
    export(build_undirected(build_group(parse_group_spec("C2"))), "edge-csv", sink)
    assert sink.getvalue() == "a,b\n0,1\n"
    sink = io.StringIO()
    export(build_directed(build_group(parse_group_spec("Q8"))), "edge-csv", sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "src,dst"
    assert len(lines) == 1 + 19
    assert all(len(line.split(",")) == 2 for line in lines[1:])


def test_exports_of_trivial_group_are_valid_but_empty():
    trivial = build_group(parse_group_spec("C1"))
    sink = io.StringIO()
    export(build_directed(trivial), "edge-csv", sink)
    assert sink.getvalue() == "src,dst\n"
    sink = io.StringIO()
    export(build_undirected(trivial), "dot", sink)
    assert sink.getvalue() == 'graph "C1" {\n  "0";\n}\n'


def test_export_rejects_unknown_format_and_type():
    graph = build_directed(build_group(parse_group_spec("C2")))
    with pytest.raises(InputError) as err:
        export(graph, "gml", io.StringIO())
    assert "unknown graph export format" in str(err.value)
    with pytest.raises(InputError):
        export("not a graph", "dot", io.StringIO())


def reference_quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_pairs(g, directed):
    """The arcs (x, y), y in <x> and y != x, or the edges (a, b), a < b, in
    lexicographic order, from reference_cyclic_subgroup alone."""
    arcs = {(x, y) for x in range(g.size) for y in reference_cyclic_subgroup(g, x) if y != x}
    return sorted(arcs if directed else {(min(a, b), max(a, b)) for a, b in arcs})


def reference_export(g, directed, fmt, sink):
    """A per-pair writer of the reference pairs, the byte reference for
    `export`: every vertex name is quoted again for every pair."""
    def name(i):
        return reference_quote(g.labels[i] if g.labels is not None else str(i))

    pairs = reference_pairs(g, directed)
    if fmt == "dot":
        kind, connector = ("digraph", "->") if directed else ("graph", "--")
        sink.write(f"{kind} {reference_quote(g.name)} {{\n")
        for i in range(g.size):
            sink.write(f"  {name(i)};\n")
        for a, b in pairs:
            sink.write(f"  {name(a)} {connector} {name(b)};\n")
        sink.write("}\n")
    else:
        sink.write("src,dst\n" if directed else "a,b\n")
        for a, b in pairs:
            sink.write(f"{a},{b}\n")


# Labels that need quoting, on the cyclic group of order 6.
ESCAPED = GroupTable(6, 0, table=np.add.outer(np.arange(6), np.arange(6)) % 6,
                     name='C"6\\', labels=["e", 'a"', "b\\", '\\"c', 'd"\\"', "f"])
# One member of each family in the inventory at orders up to 64 beyond
# GRAPH_SPECS, an odd and an even product, and census tables alone and in a product.
CENSUS_16_DIR = Path(__file__).resolve().parent.parent / "census" / "16"
INVENTORY_SPECS = ["C64", "C63", "D64", "D30", "Q64", "SD64", "M(6,2)", "M(3,3)",
                   "Ab(2;2,1,1)", "Ab(3;1,1,1)", "Ab(3;1,1)xC7", "C3xD8",
                   f"file:{CENSUS_16_DIR}/d8oc4.cayley", f"file:{CENSUS_16_DIR}/q16.cayley",
                   f"file:{CENSUS_16_DIR}/d8oc4.cayley x C3"]
EXPORT_GROUPS = [build_group(parse_group_spec(t))
                 for t in GRAPH_SPECS + ["Ab(3;1,1)xC5xC11"] + INVENTORY_SPECS] + [
    ESCAPED, GroupTable(1, 0, table=[[0]], name="trivial")]


@pytest.mark.parametrize("g", EXPORT_GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("build", [build_directed, build_undirected])
@pytest.mark.parametrize("fmt", ["dot", "edge-csv"])
def test_export_matches_the_per_pair_reference(g, build, fmt):
    graph = build(g)
    fast, slow = io.StringIO(), io.StringIO()
    export(graph, fmt, fast)
    reference_export(g, build is build_directed, fmt, slow)
    assert fast.getvalue() == slow.getvalue()


@pytest.mark.parametrize("g", EXPORT_GROUPS, ids=lambda g: g.name)
def test_pairs_and_counts_match_the_reference(g):
    directed, undirected = build_directed(g), build_undirected(g)
    arcs, edges = reference_pairs(g, True), reference_pairs(g, False)
    assert [tuple(p) for p in directed.arcs.tolist()] == arcs and directed.num_arcs == len(arcs)
    assert [tuple(p) for p in undirected.edges.tolist()] == edges
    assert undirected.num_edges == len(edges)


def test_dot_export_of_control_character_labels(tmp_path):
    """Labels hold \\x00 to \\x08, quotes, backslashes and DEL; DOT export
    writes them as the per-pair reference does, since it joins whole quoted
    names and searches them for no character."""
    labels = [chr(c) for c in range(9)] + ["\x0e\"", "a\x00b", "\x7f\\"]
    path = tmp_path / "c12.cayley"
    rows = "".join(" ".join(str((i + j) % 12) for j in range(12)) + "\n" for i in range(12))
    path.write_text(f"order 12\nidentity 0\n{rows}labels {' '.join(labels)}\n")
    g = build_group(parse_group_spec(f"file:{path}"))
    assert g.labels == labels
    for build in (build_directed, build_undirected):
        fast, slow = io.StringIO(), io.StringIO()
        export(build(g), "dot", fast)
        reference_export(g, build is build_directed, "dot", slow)
        assert fast.getvalue() == slow.getvalue()
