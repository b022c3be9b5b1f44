"""Finite groups as indexed multiplication tables.

Elements are the indices 0..n-1 and every group carries a dense n-by-n
table (read-only), so only groups up to the brute-force cap are ever built;
larger groups are handled by their spectra alone. A table is stored in
`index_dtype(n)`, the narrowest unsigned dtype that holds the sum of two
indices below n (uint16 through n = 2^15), so a builder may add two indices
and reduce mod n without overflow; element orders and every statistic derived
from them are plain Python integers. numpy is imported by each function that
makes or reads a table, so a command that builds no table never loads it.

`validate` proves a group one from its generators (`_is_group`); the
Latin-square and inverse checks and the scan of every triple run only on a
table that is no group, to name its first failing axiom and a witness.

Tables larger than one block are parsed (`read_cayley`) and put through
Light's test one block of rows at a time, on as many threads as the process
may use CPUs, up to two and up to one per block; numpy releases the GIL
while it parses and gathers, so the blocks run side by side. There is no
setting: with one CPU or one block the blocks run inline, in order, and a
refused block stops the search, so later blocks are not parsed or checked.
The Latin check of a refused table is one sort of all its rows or columns.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Sequence, TypeVar

from .errors import InputError, InvariantError, ResourceError
from .spectrum import factor

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

DEFAULT_TABLE_CAP = 4096      # brute-force cap: build tables up to this order
_BLOCK = 1 << 16              # entries per block of the parse, Light's test and the writer
_MAX_THREADS = 2              # each holds about 1 MB of parse temporaries; only two were measured

_T = TypeVar("_T")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _block_step(n: int, entries: int) -> int:
    """Lines per block when the n lines of an n-by-n array are cut into the
    fewest blocks of at most about `entries` entries, of even sizes."""
    blocks = -(-n * n // entries)
    return -(-n // blocks)


def _first_hit(fn: Callable[[int], _T | None], starts: range) -> _T | None:
    """fn(s) for the earliest s in starts at which fn returns something other
    than None or raises (raised again here); None if there is no such s.
    The blocks run on min(CPUs, _MAX_THREADS, blocks) threads, the caller's
    among them, and no thread takes a new block once one has a hit or an
    error. Blocks are taken in order and every block taken runs to its end,
    so each block before a hit has run, whatever the number of threads."""
    hits: dict[int, _T] = {}
    errors: dict[int, Exception] = {}
    todo = iter(range(len(starts)))     # each next() runs under the GIL: no block runs twice

    def work() -> None:
        while not (hits or errors):
            k = next(todo, None)
            if k is None:
                return
            try:
                hit = fn(starts[k])
            except Exception as exc:
                errors[k] = exc
            else:
                if hit is not None:
                    hits[k] = hit

    helpers = []
    workers = min(_cpus(), _MAX_THREADS, len(starts))
    if workers > 1:
        import threading
        helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    first = min([*hits, *errors], default=None)
    if first in errors:
        raise errors[first]
    return hits.get(first)


def index_dtype(n: int) -> type[np.unsignedinteger]:
    """The dtype of an order-n table: the narrowest unsigned dtype in which
    the sum of two indices below n cannot overflow."""
    import numpy as np
    return np.uint16 if 2 * n <= 1 << 16 else np.uint32


class GroupTable:
    """A finite group on indices 0..size-1 with a designated identity.

    `table` is the dense n-by-n product table, stored in `index_dtype(size)`
    and made read-only; one given in that dtype is kept as given (no copy).
    `name` and `labels` are presentation metadata only. `labels` takes a list,
    checked at once, or a recipe: a callable of no arguments that makes the
    list, called and checked when `labels` is first read, so a group whose
    labels nobody reads never makes them. Either way the labels must be
    `size` distinct strings (InputError otherwise).
    """

    def __init__(self, size: int, identity: int, *,
                 table: np.ndarray | None = None,
                 name: str = "G",
                 labels: Sequence[str] | Callable[[], Sequence[str]] | None = None):
        import numpy as np
        if size < 1:
            raise InputError(f"group size must be positive, got {size}")
        if not 0 <= identity < size:
            raise InputError(f"identity index {identity} out of range for size {size}")
        if table is None:
            raise InputError("a group needs its product table")
        table = np.asarray(table)
        if table.shape != (size, size):
            raise InputError(f"table shape {table.shape} does not match size {size}")
        if table.max() >= size or (table.dtype.kind != "u" and table.min() < 0):
            raise InputError("table entries must be element indices")
        table = table.astype(index_dtype(size), copy=False)
        table.setflags(write=False)
        self.size = size
        self.identity = identity
        self.name = name
        self.labels = labels
        self.table = table
        self._orders: tuple[int, ...] | None = None

    @property
    def labels(self) -> list[str] | None:
        """The element labels, made from the recipe and checked on first read."""
        if callable(self._labels):
            self._labels = self._checked_labels(self._labels())
        return self._labels

    @labels.setter
    def labels(self, labels: Sequence[str] | Callable[[], Sequence[str]] | None) -> None:
        self._labels = labels if labels is None or callable(labels) else self._checked_labels(labels)

    @property
    def label_recipe(self) -> Callable[[], list[str]] | None:
        """A recipe for the labels that holds no reference to the group or its
        table, so a group built from this one can make its labels from it."""
        labels = self._labels
        return labels if labels is None or callable(labels) else labels.copy

    def _checked_labels(self, labels: Sequence[str]) -> list[str]:
        labels = list(labels)
        if len(labels) != self.size:
            raise InputError(f"{len(labels)} labels for {self.size} elements")
        if len(set(labels)) < self.size:
            repeat = next(lab for lab, count in Counter(labels).items() if count > 1)
            raise InputError(f"{self.name}: label {repeat!r} names two elements; "
                             "labels must be distinct")
        return labels

    @property
    def has_table(self) -> bool:
        """Always True; kept for the benchmark's span counters, which read it."""
        return True

    def _check_index(self, a: int) -> None:
        if not 0 <= a < self.size:
            raise InputError(f"element index {a} out of range for order {self.size}")

    def product(self, a: int, b: int) -> int:
        """The group product of elements a and b."""
        self._check_index(a)
        self._check_index(b)
        return int(self.table[a, b])

    def power(self, a: int, m: int) -> int:
        """a^m for m >= 0, by binary exponentiation."""
        import numpy as np
        self._check_index(a)
        if m < 0:
            raise InputError(f"exponent must be nonnegative, got {m}")
        return int(_powers(self.table, np.array(a), m, self.identity))

    def element_orders(self) -> list[int]:
        """Orders of all elements, a fresh list of ints computed once (the table is read-only).

        By Lagrange: o(x) divides |G|, so for each p^a exactly dividing |G|
        the p-part of o(x) is the least p^j with (x^(|G|/p^a))^(p^j) = e.
        """
        if self._orders is None:
            import numpy as np
            table, e, n = self.table, self.identity, self.size
            orders = np.ones(n, dtype=np.int64)
            for p, a in factor(n):
                y = _powers(table, np.arange(n), n // p ** a, e)
                for _ in range(a):
                    orders[y != e] *= p
                    y = _powers(table, y, p, e)
                if (y != e).any():
                    raise InvariantError(f"{self.name}: some element x has x^{n} != e; "
                                         "not a group table")
            self._orders = tuple(orders.tolist())
        return list(self._orders)

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, order={self.size}, table)"


def check_brute_cap(name: str, order: int, cap: int) -> None:
    """Refuse a brute-force computation on a group of order above cap."""
    if order > cap:
        raise ResourceError(
            f"{name}: order {order} exceeds the brute-force cap {cap}; spectrum "
            "formulas (stats/spectrum commands) handle larger groups "
            "without building the graph")


def _powers(table: np.ndarray, x: np.ndarray, m: int, identity: int) -> np.ndarray:
    """x^m for every entry of the index array x, by binary powering from the
    lowest set bit of m, with no squaring past the highest; x itself when m = 1."""
    if not m:
        result = x.copy()
        result.fill(identity)                   # e, in the shape and dtype of x
        return result
    while not m & 1:
        x = table[x, x]
        m >>= 1
    result = x
    while m := m >> 1:
        x = table[x, x]
        if m & 1:
            result = table[result, x]
    return result


@dataclass(frozen=True)
class ValidationFailure:
    """Which axiom failed and on which witness elements."""

    axiom: str                 # identity | latin-row | latin-column | inverse | associativity
    witness: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    mode: str                           # always "full": associativity is decided exactly
    failure: ValidationFailure | None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _first_non_permutation(t: np.ndarray, idx: np.ndarray, columns: bool = False) -> int | None:
    """The first row (or column) of the square table t that is not a
    permutation of idx = 0..n-1, or None: one sort of every line. It runs
    only on a table that `_is_group` refused, to name the failing line."""
    lines = (t.T if columns else t).copy()        # in C order, so each line sorts in place
    lines.sort(axis=1)
    bad = (lines != idx).any(axis=1)
    return int(bad.argmax()) if bad.any() else None


def _validate_structure(t: np.ndarray, e: int) -> ValidationFailure | None:
    """Identity, Latin-square and two-sided-inverse checks on a dense table,
    in that order: the first failure, with its witness. `validate` runs them
    only on a table that `_is_group` refuses."""
    import numpy as np
    n = t.shape[0]
    idx = np.arange(n)
    bad = t[e] != idx
    if bad.any():
        b = int(bad.argmax())
        return ValidationFailure("identity", (e, b), f"e*{b} = {int(t[e, b])} != {b}")
    bad = t[:, e] != idx
    if bad.any():
        a = int(bad.argmax())
        return ValidationFailure("identity", (a, e), f"{a}*e = {int(t[a, e])} != {a}")
    a = _first_non_permutation(t, idx)
    if a is not None:
        return ValidationFailure("latin-row", (a,), f"row {a} is not a permutation")
    b = _first_non_permutation(t, idx, columns=True)
    if b is not None:
        return ValidationFailure("latin-column", (b,), f"column {b} is not a permutation")
    right_inv = np.argmax(t == e, axis=1)       # rows are permutations, so unique
    bad = np.flatnonzero(t[right_inv, idx] != e)
    if bad.size:
        a = int(bad[0])
        return ValidationFailure(
            "inverse", (a, int(right_inv[a])),
            f"right inverse {int(right_inv[a])} of {a} is not a left inverse",
        )
    return None


def _assoc_full(t: np.ndarray) -> ValidationFailure | None:
    """The lexicographically first failing triple, by a scan of all n^3
    triples in cache-sized row blocks; None if the table is associative."""
    import numpy as np
    n = t.shape[0]
    blk = max(1, (1 << 20) // (n * n))
    for a0 in range(0, n, blk):
        rows = t[a0:a0 + blk]
        lhs = t[rows, :]          # lhs[a,b,c] = t[t[a,b], c]
        rhs = rows[:, t]          # rhs[a,b,c] = t[a, t[b,c]]
        if not np.array_equal(lhs, rhs):
            a, b, c = (int(v) for v in np.argwhere(lhs != rhs)[0])
            a += a0
            return ValidationFailure(
                "associativity", (a, b, c),
                f"({a}*{b})*{c} = {int(t[t[a, b], c])} but "
                f"{a}*({b}*{c}) = {int(t[a, t[b, c]])}",
            )
    return None


def _generators(t: np.ndarray, e: int) -> list[int] | None:
    """Greedy generators of a table with two-sided identity e, which need not
    be a Latin square: the least element not yet reached, then the reached
    set W closed under right multiplication by the generators so far, each
    walked as its column (e*g = g, so each generator is reached). None if a
    new generator fails to at least double W, which proves t is no group: in
    a group W is the subgroup the generators make, and by Lagrange a subgroup
    that properly contains it is at least twice as large. So there are at
    most floor(log2 n) generators, and every element is a left-bracketed
    product ((g1*g2)*...)*gk of them."""
    n = t.shape[0]
    reached = bytearray(n)
    reached[e] = 1
    w = [e]
    gens: list[int] = []
    columns: list[list[int]] = []
    while len(w) < n:
        g = reached.index(0)
        gens.append(g)
        columns.append(t[:, g].tolist())        # columns[j][h] = h*gens[j]
        size = len(w)
        # W is closed under the old generators, so only its products by g
        # are new; after them, each new element is multiplied by every one
        frontier, walked = w, columns[-1:]
        while frontier:
            found = []
            for column in walked:
                for y in map(column.__getitem__, frontier):
                    if not reached[y]:
                        reached[y] = 1
                        found.append(y)
            w += found
            frontier, walked = found, columns
        if len(w) < 2 * size:
            return None
    return gens


def _light(t: np.ndarray, gens: list[int]) -> bool:
    """Light's test: (x*a)*y == x*(a*y) for all x, y and each generator a,
    in row blocks of about 2^16 entries, searched by `_first_hit`. The
    elements a that satisfy it are closed under the product, so it holds for
    all a once it holds for a generating set: the table is associative. The
    table of order 1 has the empty generating set and passes."""
    if not gens:
        return True
    import numpy as np
    n = t.shape[0]
    a_y = t[gens]                                   # a_y[j, y] = gens[j]*y
    step = max(1, _BLOCK // (len(gens) * n))

    def fails(x0: int) -> bool | None:
        rows = t[x0:x0 + step]
        # [x, j, y]: (x*a)*y gathers whole rows, x*(a*y) permutes the columns of rows
        return None if np.array_equal(t[rows[:, gens]], np.take(rows, a_y, axis=1)) else True

    return _first_hit(fails, range(0, n, step)) is None


def _is_group(t: np.ndarray, e: int) -> bool:
    """Whether t is a group table with identity e, decided from its generators:
    e is a two-sided identity, `_generators` finds a generating set, each
    generator's row is a permutation (one sort of at most floor(log2 n)
    rows), and Light's test passes. Light's argument holds in any table with
    a two-sided identity, so t is associative; then the row of w*g is the row
    of w composed with the row of g, and every element is a product of
    generators, so every row is a permutation; and an associative table with
    a two-sided identity and bijective rows is a group (ab = e and bc = e
    give a = c). Each step that fails proves t no group."""
    import numpy as np
    idx = np.arange(t.shape[0])
    if not (np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx)):
        return False
    gens = _generators(t, e)
    return (gens is not None and bool((np.sort(t[gens], axis=1) == idx).all())
            and _light(t, gens))


def validate(g: GroupTable) -> ValidationReport:
    """Check the group axioms on g, exhaustively ("full").

    A group is proved one by `_is_group` in O(n^2 log n), with Light's test
    (Clifford & Preston, The Algebraic Theory of Semigroups I, 1961) on a
    generating set of at most log2 n elements. Only a table that is no group
    goes on to the ordered checks that name its first failing axiom and
    witness: `_validate_structure`, then the lexicographically first failing
    triple of `_assoc_full`.
    """
    t, e = g.table, g.identity
    failure = None if _is_group(t, e) else _validate_structure(t, e) or _assoc_full(t)
    return ValidationReport("full", failure)


# ---------------------------------------------------------------------------
# Cayley-table file format:
#   optional '#' comment lines anywhere
#   order N
#   identity i
#   N rows of N whitespace-separated element indices
#   optional: labels tok1 ... tokN
# ---------------------------------------------------------------------------

def _parse_rows(rows: list[bytes], n: int) -> np.ndarray | None:
    """The table parsed in blocks of about 2^16 entries, run by `_first_hit`,
    if each row is exactly n ASCII decimal tokens, each below n, with single
    spaces between (as write_cayley writes); else None."""
    import numpy as np
    table = np.empty((n, n), dtype=index_dtype(n))
    step = _block_step(n, _BLOCK)    # the block bounds the temporaries

    def refused(r: int) -> bool | None:
        """Parse rows r.. into the table; True if they are not canonical."""
        block = rows[r:r + step]
        if any(row.count(b" ") != n - 1 for row in block):
            return True
        text = b" ".join(block)
        if text.translate(None, b"0123456789 "):
            return True
        vals = np.fromstring(text, dtype=np.int64, sep=" ")
        if vals.size != len(block) * n or vals.max() >= n:
            return True
        table[r:r + step] = vals.reshape(-1, n)
        return None

    return None if _first_hit(refused, range(0, n, step)) else table


def _content_lines(fh: IO[bytes]) -> list[tuple[int, bytes]]:
    """(line number, line) of each line of a UTF-8 file that is neither blank
    nor a '#' comment, stripped. As in a text-mode read, a line ends at LF,
    CRLF or CR and is stripped of what str.strip() strips, and the whole file
    must be UTF-8; a line of ASCII that starts and ends in a printable
    character is not decoded."""
    kept = []
    lineno = 0
    for raw in fh:
        for line in raw.splitlines() if b"\r" in raw else (raw,):
            lineno += 1
            row = line.strip()
            if row and (row[0] < 32 or row[-1] < 32 or not row.isascii()):
                row = row.decode().strip().encode()     # raises if not UTF-8
            if row and row[0] != ord("#"):
                kept.append((lineno, row))
    return kept


def read_cayley(path: str | Path) -> GroupTable:
    """Parse a UTF-8 Cayley-table file; the group is named after the file stem."""
    import numpy as np
    path = Path(path)
    try:
        # one line at a time, so only the kept rows stay alive; a buffer above
        # the length of a row halves the time of the read
        with path.open("rb", buffering=1 << 16) as fh:
            lines = _content_lines(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2:
        raise InputError(f"{path}: truncated file")

    def fail(lineno: int, msg: str) -> InputError:
        return InputError(f"{path}:{lineno}: {msg}")

    lineno, first = lines[0][0], lines[0][1].decode()
    parts = first.split()
    if len(parts) != 2 or parts[0] != "order" or not parts[1].isdecimal():
        raise fail(lineno, f"expected 'order N', got {first!r}")
    n = int(parts[1])
    if n < 1:
        raise fail(lineno, "order must be positive")
    lineno, second = lines[1][0], lines[1][1].decode()
    parts = second.split()
    if len(parts) != 2 or parts[0] != "identity" or not parts[1].isdecimal():
        raise fail(lineno, f"expected 'identity i', got {second!r}")
    e = int(parts[1])
    if not 0 <= e < n:
        raise fail(lineno, f"identity {e} out of range for order {n}")
    if len(lines) < 2 + n:
        raise InputError(f"{path}: expected {n} table rows, found {len(lines) - 2}")
    table = _parse_rows([row for _, row in lines[2:2 + n]], n)
    if table is None:
        table = np.empty((n, n), dtype=index_dtype(n))
        for r in range(n):
            lineno, row = lines[2 + r]
            toks = row.decode().split()
            if len(toks) != n:
                raise fail(lineno, f"row {r} has {len(toks)} entries, expected {n}")
            try:
                vals = [int(tok) for tok in toks]
            except ValueError:
                raise fail(lineno, f"row {r} contains a non-integer entry") from None
            if any(not 0 <= v < n for v in vals):
                raise fail(lineno, f"row {r} has an entry outside 0..{n - 1}")
            table[r] = vals
    labels = None
    rest = [(i, line.decode()) for i, line in lines[2 + n:]]
    if rest:
        lineno, line = rest[0]
        toks = line.split()
        if toks[0] != "labels":
            raise fail(lineno, f"unexpected line {line!r}")
        if len(toks) != n + 1:
            raise fail(lineno, f"labels line has {len(toks) - 1} tokens, expected {n}")
        labels = toks[1:]
        if len(set(labels)) < n:
            raise fail(lineno, "labels line repeats a label; labels must be distinct")
        rest = rest[1:]
    if rest:
        raise fail(rest[0][0], f"unexpected trailing line {rest[0][1]!r}")
    return GroupTable(n, e, table=table, name=path.stem, labels=labels)


def write_cayley(g: GroupTable, sink: str | Path | IO[str]) -> None:
    """Write g in the Cayley-table file format, a path as UTF-8.

    The rows are formatted a block of about 2^16 entries at a time: the text
    of each index with its trailing space, right-aligned in a NUL-padded slot
    of len(str(n-1)) + 1 bytes, is gathered for the whole block, the last
    space of each row becomes a newline and the NULs are dropped, so the
    entries are separated by single spaces, as `_parse_rows` reads them."""
    import numpy as np
    for lab in g.labels or ():
        if not lab or any(ch.isspace() for ch in lab):
            raise InputError(f"label {lab!r} is not a whitespace-free token")
    n = g.size
    width = len(str(n - 1)) + 1
    slots = np.array([(b"%d " % v).rjust(width, b"\0") for v in range(n)], dtype=f"V{width}")
    step = _block_step(n, _BLOCK)    # the block bounds the temporaries
    own = isinstance(sink, (str, Path))
    fh = open(sink, "w", encoding="utf-8") if own else sink
    try:
        fh.write(f"# {g.name}\n")
        fh.write(f"order {g.size}\n")
        fh.write(f"identity {g.identity}\n")
        for r in range(0, n, step):
            rows = slots.take(g.table[r:r + step]).view(np.uint8).reshape(-1, n * width)
            rows[:, -1] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0").decode("ascii"))
        if g.labels is not None:
            fh.write("labels " + " ".join(g.labels) + "\n")
    finally:
        if own:
            fh.close()
