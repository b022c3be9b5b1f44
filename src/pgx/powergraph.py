"""Brute-force power graphs, the independent oracle for every spectrum formula.

The directed power graph has an arc x -> y exactly when y is a positive power
of x and y != x; the undirected power graph joins x and y when either is a
power of the other. Both follow from the cyclic subgroups, found in one pass
over the dense Cayley table that walks each of them once by successive
multiplication: x reaches the members of <x>, and x, y are mutual exactly
when they generate the same cyclic subgroup. A graph is stored as one sorted
row per cyclic subgroup, shared by all of its generators, each of which is
placed in it once, when the rows are made; no n x n array is made. Export
formats each row once, as a list of `name + end` pieces, and writes each
source by joining its part of that list with its own head, so its cost is
linear in the bytes written.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, TextIO

from .errors import InputError, InvariantError
from .groups import DEFAULT_TABLE_CAP, GroupTable, check_brute_cap

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


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


def _graph_rows(g: GroupTable, cap: int, directed: bool):
    """(rows, place): rows[k] is the sorted row of the k-th cyclic subgroup
    C_k, and place[x] = (k, i) for each generator x of C_k, which is
    rows[k][i]. The row lists C_k's members and, undirected, the generators of
    each cyclic subgroup properly containing C_k: a generator's neighbours are
    its row less itself."""
    subgroups = _cyclic_subgroups(g, cap)
    owner = [0] * g.size
    for k, (gens, _) in enumerate(subgroups):
        for x in gens:
            owner[x] = k
    extra: list[list[int]] = [[] for _ in subgroups]
    for k, (gens, members) in enumerate(() if directed else subgroups):
        for j in {owner[y] for y in members} - {k}:     # C_j is properly inside C_k
            extra[j] += gens
    rows = [sorted(members + more) for (_, members), more in zip(subgroups, extra)]
    place: list[tuple[int, int]] = [(0, 0)] * g.size
    for k, (gens, _) in enumerate(subgroups):
        for x in gens:
            place[x] = k, bisect_left(rows[k], x)
    return rows, place


@dataclass(frozen=True, eq=False)
class _PowerGraph:
    """A power graph as rows of its cyclic subgroups (see `_graph_rows`): x at place
    i of its row reaches the row less x (directed) or the part after x (undirected)."""

    size: int
    rows: list[list[int]]
    place: list[tuple[int, int]]
    group: GroupTable         # the labels' source, read only by DOT export
    name: str
    directed: ClassVar[bool]

    @property
    def labels(self) -> list[str] | None:
        return self.group.labels

    def _count(self) -> int:
        return sum(len(self.rows[k]) - (1 if self.directed else i + 1) for k, i in self.place)

    def _pairs(self) -> np.ndarray:
        """The pairs in lexicographic order, made from the rows when read."""
        import numpy as np
        rows, directed = self.rows, self.directed
        pairs = [(x, y) for x, (k, i) in enumerate(self.place)
                 for y in (rows[k][:i] if directed else []) + rows[k][i + 1:]]
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)


class DirectedPowerGraph(_PowerGraph):
    """Arcs x -> y for y in <x>, y != x; a and b are mutual when both arcs
    exist. `arcs` has shape (num_arcs, 2), in lexicographic order."""

    directed = True
    num_arcs = property(_PowerGraph._count)
    arcs = property(_PowerGraph._pairs)


class UndirectedPowerGraph(_PowerGraph):
    """Edges a -- b; `edges` has shape (num_edges, 2), a < b, in lexicographic order."""

    directed = False
    num_edges = property(_PowerGraph._count)
    edges = property(_PowerGraph._pairs)


def build_directed(g: GroupTable, cap: int = DEFAULT_TABLE_CAP) -> DirectedPowerGraph:
    return DirectedPowerGraph(g.size, *_graph_rows(g, cap, True), g, g.name)


def build_undirected(g: GroupTable, cap: int = DEFAULT_TABLE_CAP) -> UndirectedPowerGraph:
    return UndirectedPowerGraph(g.size, *_graph_rows(g, cap, False), g, g.name)


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
    valid document with no edge rows. Each row is formatted once, as a list
    of `name + end` pieces after a leading ""; a source joins its part of the
    list with its own head before each piece, and the joined text is written
    about every 64 KiB.
    """
    if not isinstance(graph, _PowerGraph):
        raise InputError(f"not a power graph: {graph!r}")
    directed = graph.directed
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
    pieces = [name + end for name in names]
    # the leading "" puts the head before each piece; x's own piece is at i + 1
    rows = [["", *map(pieces.__getitem__, row)] for row in graph.rows]
    parts, held = [], 0
    for x, (k, i) in enumerate(graph.place):
        row, head = rows[k], heads[x]
        if directed:            # the whole row less x's piece, taken out and put back
            del row[i + 1]
            parts.append(head.join(row))
            row.insert(i + 1, pieces[x])
        else:                   # the part after x, with x's piece blanked as the lead
            row[i + 1] = ""
            parts.append(head.join(row[i + 1:]))
            row[i + 1] = pieces[x]
        held += len(parts[-1])
        if held >= 1 << 16:
            sink.write("".join(parts))
            parts, held = [], 0
    sink.write("".join(parts) + close)
