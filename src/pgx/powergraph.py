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
    each element x not yet assigned, walk x, x^2, ..., x^o(x); the members of
    order o(x) generate <x>. Raises InvariantError unless each walk first
    returns to e at step o(x) and the generators partition the elements."""
    check_brute_cap(g.name, g.size, cap)
    item, e = g.table.item, g.identity
    orders = g.element_orders()
    assigned = bytearray(g.size)
    subgroups = []
    for x in range(g.size):
        if assigned[x]:
            continue
        o = orders[x]
        members = [x]
        y = x
        for _ in range(o - 1):
            y = item(y, x)
            members.append(y)
        if y != e or members.index(e) != o - 1:
            raise InvariantError(f"{g.name}: powers of element {x} do not first "
                                 f"return to the identity at its order {o}")
        gens = [y for y in members if orders[y] == o]
        for y in gens:
            if assigned[y]:
                raise InvariantError(f"{g.name}: an element of <{x}> generates two "
                                     "different cyclic subgroups")
            assigned[y] = 1
        subgroups.append((gens, members))
    if not all(assigned):
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
    """Arc list (src, dst); a and b are mutual when both (a, b) and (b, a) are arcs."""

    size: int
    arcs: np.ndarray          # shape (num_arcs, 2), lexicographic
    group: GroupTable         # the labels' source, read only by DOT export
    name: str

    @property
    def num_arcs(self) -> int:
        return int(self.arcs.shape[0])

    @property
    def labels(self) -> list[str] | None:
        return self.group.labels


@dataclass(frozen=True, eq=False)
class UndirectedPowerGraph:
    size: int
    edges: np.ndarray         # shape (num_edges, 2), a < b, lexicographic
    group: GroupTable         # the labels' source, read only by DOT export
    name: str

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def labels(self) -> list[str] | None:
        return self.group.labels


def build_directed(g: GroupTable, cap: int = DEFAULT_TABLE_CAP) -> DirectedPowerGraph:
    return DirectedPowerGraph(g.size, np.argwhere(_arc_matrix(g, cap)), g, g.name)


def build_undirected(g: GroupTable, cap: int = DEFAULT_TABLE_CAP) -> UndirectedPowerGraph:
    arc = _arc_matrix(g, cap)
    return UndirectedPowerGraph(g.size, np.argwhere(np.triu(arc | arc.T)), g, g.name)


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


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export(graph: DirectedPowerGraph | UndirectedPowerGraph,
           fmt: str, sink: TextIO) -> None:
    """Write the graph deterministically as DOT or edge CSV.

    DOT names vertices by their labels, made here if the group has a recipe
    for them (InputError if they repeat); CSV rows carry numeric indices with
    header src,dst (arcs) or a,b (edges, a < b). An empty graph yields a
    valid document with no edge rows. The pairs are sorted, so each source
    vertex's run is found by bisection and written in one piece.
    """
    directed = isinstance(graph, DirectedPowerGraph)
    if not directed and not isinstance(graph, UndirectedPowerGraph):
        raise InputError(f"not a power graph: {graph!r}")
    pairs = graph.arcs if directed else graph.edges
    if fmt == "dot":
        kind, connector = ("digraph", "->") if directed else ("graph", "--")
        names = [_quote(str(lab)) for lab in graph.labels or range(graph.size)]
        sink.write(f"{kind} {_quote(graph.name)} {{\n" + "".join(f"  {v};\n" for v in names))
        heads = [f"  {name} {connector} " for name in names]
        end, close = ";\n", "}\n"
    elif fmt == "edge-csv":
        names = [str(i) for i in range(graph.size)]
        sink.write("src,dst\n" if directed else "a,b\n")
        heads = [f"{name}," for name in names]
        end, close = "\n", ""
    else:
        raise InputError(f"unknown graph export format {fmt!r} (use dot or edge-csv)")
    bounds = np.searchsorted(pairs[:, 0], np.arange(graph.size + 1)).tolist()
    dst = pairs[:, 1].tolist()
    for a, head in enumerate(heads):
        lo, hi = bounds[a], bounds[a + 1]
        if lo < hi:
            sink.write(head + (end + head).join(map(names.__getitem__, dst[lo:hi])) + end)
    sink.write(close)
