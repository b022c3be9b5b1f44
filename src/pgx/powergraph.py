"""Brute-force power graphs, the independent oracle for every spectrum formula.

The directed power graph has an arc x -> y exactly when y is a positive power
of x and y != x; the undirected power graph joins x and y when either is a
power of the other. Both follow from the cyclic subgroups, found in one pass
over the dense Cayley table that walks each of them once by successive
multiplication: x reaches the members of <x>, and x, y are mutual exactly
when they generate the same cyclic subgroup. A graph is stored as one sorted
row per cyclic subgroup, shared by all of its generators, and no n x n array
is made: export formats each row once, as a list of `name + end` pieces, and
writes each source by joining its part of that list with its own head, so its
cost is linear in the bytes written.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
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
    """(rows, owner): rows[k] = (generators, sorted row) of the k-th cyclic
    subgroup C_k, and owner[x] = k for each generator x of C_k. The row lists
    C_k's members and, undirected, the generators of each cyclic subgroup
    properly containing C_k: a generator's neighbours are its row less itself."""
    subgroups = _cyclic_subgroups(g, cap)
    owner_of = {x: k for k, (gens, _) in enumerate(subgroups) for x in gens}
    owner = [owner_of[x] for x in range(g.size)]
    extra: list[list[int]] = [[] for _ in subgroups]
    for k, (gens, members) in enumerate(() if directed else subgroups):
        for j in {owner[y] for y in members} - {k}:     # C_j is properly inside C_k
            extra[j] += gens
    return [(gens, sorted(members + more))
            for (gens, members), more in zip(subgroups, extra)], owner


@dataclass(frozen=True, eq=False)
class _PowerGraph:
    """A power graph as rows of its cyclic subgroups (see `_graph_rows`): x at place
    i of its row reaches the row less x (directed) or the part after x (undirected)."""

    size: int
    rows: list[tuple[list[int], list[int]]]
    owner: list[int]
    group: GroupTable         # the labels' source, read only by DOT export
    name: str
    directed: ClassVar[bool]

    @property
    def labels(self) -> list[str] | None:
        return self.group.labels

    def _sources(self) -> Iterator[tuple[int, int, int]]:
        """(x, k, i) for each vertex x in order: its row's index k and its place i there."""
        for x, k in enumerate(self.owner):
            yield x, k, bisect_left(self.rows[k][1], x)

    def _count(self) -> int:
        return sum(len(self.rows[k][1]) - (1 if self.directed else i + 1) for _, k, i in self._sources())

    def _pairs(self) -> np.ndarray:
        """The pairs in lexicographic order, made from the rows when read."""
        import numpy as np
        rows, directed = self.rows, self.directed
        pairs = [(x, y) for x, k, i in self._sources()
                 for y in (rows[k][1][:i] if directed else []) + rows[k][1][i + 1:]]
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
    of `name + end` pieces; a source joins its part of the list with its own
    head before each piece, and the joined text is written about every 64 KiB.
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
    rows = [list(map(pieces.__getitem__, row)) for _, row in graph.rows]
    parts, held = [], 0
    for x, k, i in graph._sources():
        row = rows[k]
        # the leading "" puts the head before each piece
        parts.append(heads[x].join(["", *row[:i], *row[i + 1:]] if directed
                                   else ["", *row[i + 1:]]))
        held += len(parts[-1])
        if held >= 1 << 16:
            sink.write("".join(parts))
            parts, held = [], 0
    sink.write("".join(parts) + close)
