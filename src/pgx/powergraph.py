"""Brute-force power graphs, the independent oracle for every spectrum formula.

The directed power graph has an arc x -> y exactly when y is a positive power
of x and y != x; the undirected power graph joins x and y when either is a
power of the other. Both follow from the cyclic subgroups, found in one pass
over the dense Cayley table that walks each of them once by successive
multiplication: x reaches the members of <x>, and x, y are mutual exactly
when they generate the same cyclic subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import InputError, InvariantError
from .groups import DEFAULT_TABLE_CAP, GroupTable, check_brute_cap


def _cyclic_subgroups(g: GroupTable, cap: int) -> list[tuple[list[int], list[int]]]:
    """(generators, members) of each cyclic subgroup of g, found greedily: for
    each element x not yet assigned, walk x, x^2, ... to e; the members of
    order o(x) generate <x>. Raises InvariantError unless each walk first
    returns to e at step o(x) and the generators partition the elements."""
    check_brute_cap(g.name, g.size, cap)
    table, e = g.table, g.identity
    orders = g.element_orders()
    assigned: set[int] = set()
    subgroups = []
    for x in range(g.size):
        if x in assigned:
            continue
        members = [x]
        while members[-1] != e and len(members) <= orders[x]:
            members.append(table.item(members[-1], x))
        if len(members) != orders[x] or members[-1] != e:
            raise InvariantError(f"{g.name}: powers of element {x} do not first "
                                 f"return to the identity at its order {orders[x]}")
        gens = [y for y in members if orders[y] == orders[x]]
        if assigned.intersection(gens):
            raise InvariantError(f"{g.name}: an element of <{x}> generates two "
                                 "different cyclic subgroups")
        assigned.update(gens)
        subgroups.append((gens, members))
    if len(assigned) != g.size:
        raise InvariantError(f"{g.name}: cyclic subgroup generators miss an element")
    return subgroups


def _arc_matrix(g: GroupTable, cap: int) -> np.ndarray:
    """A[i, j] = (j in <i> and j != i), filled from the cyclic subgroups."""
    arc = np.zeros((g.size, g.size), dtype=bool)
    for gens, members in _cyclic_subgroups(g, cap):
        arc[np.ix_(gens, members)] = True
    np.fill_diagonal(arc, False)
    return arc


@dataclass(frozen=True, eq=False)
class DirectedPowerGraph:
    """Arc list (src, dst) plus the mutual pairs {a, b} with <a> = <b>."""

    size: int
    arcs: np.ndarray          # shape (num_arcs, 2), lexicographic
    mutual_pairs: np.ndarray  # shape (num_mutual, 2), a < b, lexicographic
    labels: tuple[str, ...] | None
    name: str

    @property
    def num_arcs(self) -> int:
        return int(self.arcs.shape[0])

    @property
    def num_mutual(self) -> int:
        return int(self.mutual_pairs.shape[0])

    def out_degrees(self) -> list[int]:
        return np.bincount(self.arcs[:, 0], minlength=self.size).tolist()


@dataclass(frozen=True, eq=False)
class UndirectedPowerGraph:
    size: int
    edges: np.ndarray         # shape (num_edges, 2), a < b, lexicographic
    labels: tuple[str, ...] | None
    name: str

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> list[int]:
        both = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        return np.bincount(both, minlength=self.size).tolist()


def build_directed(g: GroupTable, cap: int = DEFAULT_TABLE_CAP) -> DirectedPowerGraph:
    arc = _arc_matrix(g, cap)
    arcs = np.argwhere(arc)
    mutual = np.argwhere(np.triu(arc & arc.T))
    labels = tuple(g.labels) if g.labels is not None else None
    return DirectedPowerGraph(g.size, arcs, mutual, labels, g.name)


def build_undirected(g: GroupTable, cap: int = DEFAULT_TABLE_CAP) -> UndirectedPowerGraph:
    arc = _arc_matrix(g, cap)
    edges = np.argwhere(np.triu(arc | arc.T))
    labels = tuple(g.labels) if g.labels is not None else None
    return UndirectedPowerGraph(g.size, edges, labels, g.name)


def oracle_counts(g: GroupTable, cap: int = DEFAULT_TABLE_CAP) -> tuple[int, int, int]:
    """(arcs, mutual pairs, undirected edges) counted from the cyclic subgroups
    without building the graph. This is the check against the spectrum
    formulas, so it shares no arithmetic with them: each generator x of a
    cyclic subgroup C has |C| - 1 arcs, and C has gen(C) choose 2 mutual
    pairs, with gen(C) counted rather than taken from a totient."""
    subgroups = _cyclic_subgroups(g, cap)
    n = g.size
    reach = sum(len(gens) * len(members) for gens, members in subgroups)
    gen_sq = sum(len(gens) ** 2 for gens, _ in subgroups)
    return reach - n, (gen_sq - n) // 2, (2 * reach - gen_sq - n) // 2


def degree_sequence(graph: DirectedPowerGraph | UndirectedPowerGraph) -> list[int]:
    """Degrees sorted descending; out-degrees for the directed graph, where
    the out-degree of g equals its element order minus one."""
    if isinstance(graph, DirectedPowerGraph):
        degrees = graph.out_degrees()
    elif isinstance(graph, UndirectedPowerGraph):
        degrees = graph.degrees()
    else:
        raise InputError(f"not a power graph: {graph!r}")
    return sorted(degrees, reverse=True)


def _vertex_name(graph, i: int) -> str:
    return graph.labels[i] if graph.labels is not None else str(i)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export(graph: DirectedPowerGraph | UndirectedPowerGraph,
           fmt: str, sink: TextIO) -> None:
    """Write the graph deterministically as DOT or edge CSV.

    DOT names vertices by their labels; CSV rows carry numeric indices with
    header src,dst (arcs) or a,b (edges, a < b). An empty graph yields a
    valid document with no edge rows.
    """
    directed = isinstance(graph, DirectedPowerGraph)
    if not directed and not isinstance(graph, UndirectedPowerGraph):
        raise InputError(f"not a power graph: {graph!r}")
    pairs = graph.arcs if directed else graph.edges
    if fmt == "dot":
        kind, connector = ("digraph", "->") if directed else ("graph", "--")
        sink.write(f"{kind} {_quote(graph.name)} {{\n")
        for i in range(graph.size):
            sink.write(f"  {_quote(_vertex_name(graph, i))};\n")
        for a, b in pairs.tolist():
            sink.write(f"  {_quote(_vertex_name(graph, a))} {connector} "
                       f"{_quote(_vertex_name(graph, b))};\n")
        sink.write("}\n")
    elif fmt == "edge-csv":
        sink.write("src,dst\n" if directed else "a,b\n")
        for a, b in pairs.tolist():
            sink.write(f"{a},{b}\n")
    else:
        raise InputError(f"unknown graph export format {fmt!r} (use dot or edge-csv)")
