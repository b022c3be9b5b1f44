"""Finite groups as indexed multiplication tables.

Elements are the indices 0..n-1 and every group carries a dense n-by-n
table (numpy int32, read-only), so only groups up to the brute-force cap are
ever built; larger groups are handled by their spectra alone. Table entries
are indices < n, so fixed-width storage cannot overflow; element orders and
every statistic derived from them are plain Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import InputError, InvariantError, ResourceError
from .spectrum import factor

DEFAULT_TABLE_CAP = 4096      # brute-force cap: build tables up to this order
FULL_ASSOC_CAP = 256          # full associativity mandatory through this order
DEFAULT_SAMPLE_TRIPLES = 10**6
DEFAULT_SEED = 1729


class GroupTable:
    """A finite group on indices 0..size-1 with a designated identity.

    `table` is the dense n-by-n product table. It is kept as given (no
    copy) and made read-only; `name` and `labels` are presentation metadata
    only.
    """

    def __init__(self, size: int, identity: int, *,
                 table: np.ndarray | None = None,
                 name: str = "G",
                 labels: Sequence[str] | None = None):
        if size < 1:
            raise InputError(f"group size must be positive, got {size}")
        if not 0 <= identity < size:
            raise InputError(f"identity index {identity} out of range for size {size}")
        if table is None:
            raise InputError("a group needs its product table")
        table = np.asarray(table, dtype=np.int32)
        if table.shape != (size, size):
            raise InputError(f"table shape {table.shape} does not match size {size}")
        if table.min() < 0 or table.max() >= size:
            raise InputError("table entries must be element indices")
        table.setflags(write=False)
        if labels is not None:
            labels = list(labels)
            if len(labels) != size:
                raise InputError(f"{len(labels)} labels for {size} elements")
        self.size = size
        self.identity = identity
        self.name = name
        self.labels = labels
        self.table = table

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
        self._check_index(a)
        if m < 0:
            raise InputError(f"exponent must be nonnegative, got {m}")
        result = self.identity
        base = a
        while m:
            if m & 1:
                result = self.product(result, base)
            base = self.product(base, base)
            m >>= 1
        return result

    def element_order(self, a: int) -> int:
        """Order of a, by successive multiplication (no factorization of |G|)."""
        self._check_index(a)
        k = 1
        x = a
        while x != self.identity:
            x = self.product(x, a)
            k += 1
            if k > self.size:
                raise InvariantError(
                    f"{self.name}: powers of element {a} do not reach the identity; "
                    "not a group table"
                )
        if self.size % k:
            raise InvariantError(
                f"{self.name}: element order {k} does not divide group order {self.size}"
            )
        return k

    def cyclic_subgroup(self, a: int) -> frozenset[int]:
        """The set of powers of a (includes the identity and a itself)."""
        self._check_index(a)
        seen = {self.identity}
        x = a
        while x != self.identity:
            seen.add(x)
            x = self.product(x, a)
            if len(seen) > self.size:
                raise InvariantError(f"{self.name}: runaway cyclic subgroup")
        return frozenset(seen)

    def element_orders(self) -> list[int]:
        """Orders of all elements, as Python ints.

        By Lagrange: o(x) divides |G|, so for each p^a exactly dividing |G|
        the p-part of o(x) is the least p^j with (x^(|G|/p^a))^(p^j) = e.
        """
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
        return orders.tolist()

    def label(self, a: int) -> str:
        self._check_index(a)
        return self.labels[a] if self.labels is not None else str(a)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, order={self.size}, table)"


def check_brute_cap(name: str, order: int, cap: int) -> None:
    """Refuse a brute-force computation on a group of order above cap."""
    if order > cap:
        raise ResourceError(
            f"{name}: order {order} exceeds the brute-force cap {cap}; spectrum "
            "formulas (stats/spectrum commands) handle groups of any size "
            "without building the graph")


def _powers(table: np.ndarray, x: np.ndarray, m: int, identity: int) -> np.ndarray:
    """x^m for every entry of the index array x, by binary powering."""
    result = np.full_like(x, identity)
    while m:
        if m & 1:
            result = table[result, x]
        x = table[x, x]
        m >>= 1
    return result


@dataclass(frozen=True)
class ValidationFailure:
    """Which axiom failed and on which witness elements."""

    axiom: str                 # identity | latin-row | latin-column | inverse | associativity
    witness: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    name: str
    size: int
    mode: str
    ok: bool
    checks: tuple[str, ...]
    failure: ValidationFailure | None

    def to_json_dict(self) -> dict:
        d: dict = {
            "name": self.name,
            "size": self.size,
            "mode": self.mode,
            "ok": self.ok,
            "checks": list(self.checks),
        }
        if self.failure is not None:
            d["failure"] = {
                "axiom": self.failure.axiom,
                "witness": list(self.failure.witness),
                "detail": self.failure.detail,
            }
        return d


def _validate_structure(t: np.ndarray, e: int) -> ValidationFailure | None:
    """Identity, Latin-square and two-sided-inverse checks on a dense table."""
    n = t.shape[0]
    idx = np.arange(n)
    if not np.array_equal(t[e], idx):
        b = int(np.flatnonzero(t[e] != idx)[0])
        return ValidationFailure("identity", (e, b), f"e*{b} = {int(t[e, b])} != {b}")
    if not np.array_equal(t[:, e], idx):
        a = int(np.flatnonzero(t[:, e] != idx)[0])
        return ValidationFailure("identity", (a, e), f"{a}*e = {int(t[a, e])} != {a}")
    rows_sorted = np.sort(t, axis=1)
    bad = np.flatnonzero((rows_sorted != idx).any(axis=1))
    if bad.size:
        a = int(bad[0])
        return ValidationFailure("latin-row", (a,), f"row {a} is not a permutation")
    cols_sorted = np.sort(t, axis=0)
    bad = np.flatnonzero((cols_sorted != idx[:, None]).any(axis=0))
    if bad.size:
        b = int(bad[0])
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
    """Exhaustive associativity over all n^3 triples, in row blocks."""
    n = t.shape[0]
    blk = max(1, (1 << 25) // max(1, n * n))
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


def _assoc_sampled(t: np.ndarray, k: int, seed: int) -> ValidationFailure | None:
    n = t.shape[0]
    rng = np.random.default_rng(seed)
    remaining = k
    while remaining > 0:
        bs = min(remaining, 1 << 20)
        a = rng.integers(0, n, size=bs)
        b = rng.integers(0, n, size=bs)
        c = rng.integers(0, n, size=bs)
        lhs = t[t[a, b], c]
        rhs = t[a, t[b, c]]
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            i = int(bad[0])
            wa, wb, wc = int(a[i]), int(b[i]), int(c[i])
            return ValidationFailure(
                "associativity", (wa, wb, wc),
                f"({wa}*{wb})*{wc} != {wa}*({wb}*{wc})",
            )
        remaining -= bs
    return None


def validate(g: GroupTable, mode: str = "auto", *,
             sample_triples: int = DEFAULT_SAMPLE_TRIPLES,
             seed: int = DEFAULT_SEED,
             full_cap: int = FULL_ASSOC_CAP) -> ValidationReport:
    """Check the group axioms on g.

    mode "full" checks every triple; "sampled" checks `sample_triples` random
    triples (identity, Latin-square and inverse checks stay exhaustive);
    "auto" picks full at or below `full_cap` and sampled above.
    """
    if mode not in ("auto", "full", "sampled"):
        raise InputError(f"unknown validation mode {mode!r}")
    if mode == "auto":
        mode = "full" if g.size <= full_cap else "sampled"
    t = g.table
    checks = ["identity", "latin-square", "inverses"]
    failure = _validate_structure(t, g.identity)
    if failure is None:
        if mode == "full":
            checks.append("associativity-full")
            failure = _assoc_full(t)
            mode_str = "full"
        else:
            checks.append(f"associativity-sampled({sample_triples})")
            failure = _assoc_sampled(t, sample_triples, seed)
            mode_str = f"sampled({sample_triples})"
    else:
        mode_str = mode
    return ValidationReport(
        name=g.name, size=g.size, mode=mode_str,
        ok=failure is None, checks=tuple(checks), failure=failure,
    )


# ---------------------------------------------------------------------------
# Cayley-table file format:
#   optional '#' comment lines anywhere
#   order N
#   identity i
#   N rows of N whitespace-separated element indices
#   optional: labels tok1 ... tokN
# ---------------------------------------------------------------------------

def read_cayley(path: str | Path) -> GroupTable:
    """Parse a Cayley-table file; the group is named after the file stem."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if len(lines) < 2:
        raise InputError(f"{path}: truncated file")

    def fail(lineno: int, msg: str) -> InputError:
        return InputError(f"{path}:{lineno}: {msg}")

    lineno, first = lines[0]
    parts = first.split()
    if len(parts) != 2 or parts[0] != "order" or not parts[1].isdigit():
        raise fail(lineno, f"expected 'order N', got {first!r}")
    n = int(parts[1])
    if n < 1:
        raise fail(lineno, "order must be positive")
    lineno, second = lines[1]
    parts = second.split()
    if len(parts) != 2 or parts[0] != "identity" or not parts[1].isdigit():
        raise fail(lineno, f"expected 'identity i', got {second!r}")
    e = int(parts[1])
    if not 0 <= e < n:
        raise fail(lineno, f"identity {e} out of range for order {n}")
    if len(lines) < 2 + n:
        raise InputError(f"{path}: expected {n} table rows, found {len(lines) - 2}")
    table = np.empty((n, n), dtype=np.int32)
    for r in range(n):
        lineno, row = lines[2 + r]
        toks = row.split()
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
    rest = lines[2 + n:]
    if rest:
        lineno, line = rest[0]
        toks = line.split()
        if toks[0] != "labels":
            raise fail(lineno, f"unexpected line {line!r}")
        if len(toks) != n + 1:
            raise fail(lineno, f"labels line has {len(toks) - 1} tokens, expected {n}")
        labels = toks[1:]
        rest = rest[1:]
    if rest:
        raise fail(rest[0][0], f"unexpected trailing line {rest[0][1]!r}")
    return GroupTable(n, e, table=table, name=path.stem, labels=labels)


def write_cayley(g: GroupTable, sink: str | Path | IO[str]) -> None:
    """Write g in the Cayley-table file format."""
    own = isinstance(sink, (str, Path))
    fh = open(sink, "w") if own else sink
    try:
        fh.write(f"# {g.name}\n")
        fh.write(f"order {g.size}\n")
        fh.write(f"identity {g.identity}\n")
        for row in g.table:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
        if g.labels is not None:
            for lab in g.labels:
                if not lab or any(ch.isspace() for ch in lab):
                    raise InputError(f"label {lab!r} is not a whitespace-free token")
            fh.write("labels " + " ".join(g.labels) + "\n")
    finally:
        if own:
            fh.close()
