"""Finite racks and quandles as operation tables, 2-cocycles, group rings.

Elements are 0..n-1 and table[x][y] = x |> y.  The abelian coefficient
group A is a product of cyclic groups, written additively internally; group
ring elements are sparse multiplicity maps keyed by A-elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import NamedTuple

from .core import SelfIndexedGraph, _require_int, graph_from_injections
from .laurent import _monomial_sum


class RackCheck(NamedTuple):
    kind: str                 # "not_rack" | "rack" | "quandle"
    witness: str | None = None


def check_rack(table) -> RackCheck:
    """Check the rack axioms; the witness names the first failing instance.
    An entry that is not an integer is a ``TypeError``."""
    n = len(table)
    for x, row in enumerate(table):
        if len(row) != n:
            return RackCheck("not_rack", f"row {x} has length {len(row)}, expected {n}")
        for y, v in enumerate(row):
            _require_int(v, f"rack table entry ({x}, {y})")
        if any(not 0 <= v < n for v in row):
            return RackCheck("not_rack", f"row {x} contains an out-of-range value")
        if len(set(row)) != n:
            return RackCheck("not_rack", f"row {x} (the map {x} |> ?) is not a bijection")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[x][table[y][z]] != table[table[x][y]][table[x][z]]:
                    return RackCheck(
                        "not_rack",
                        f"self-distributivity fails at ({x},{y},{z})",
                    )
    if all(table[x][x] == x for x in range(n)):
        return RackCheck("quandle")
    return RackCheck("rack")


class FiniteRack(NamedTuple):
    n: int
    table: tuple[tuple[int, ...], ...]
    quandle: bool

    @staticmethod
    def from_table(table) -> "FiniteRack":
        chk = check_rack(table)
        if chk.kind == "not_rack":
            raise ValueError(f"not a rack: {chk.witness}")
        return FiniteRack(len(table), tuple(tuple(r) for r in table), chk.kind == "quandle")

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]


def trivial_quandle(n: int) -> FiniteRack:
    """x |> y = y, on n >= 0 elements."""
    _require_int(n, "element count", 0)
    return FiniteRack.from_table([[y for y in range(n)] for _ in range(n)])


def dihedral_quandle(n: int) -> FiniteRack:
    """x |> y = 2x - y mod n, on n >= 1 elements."""
    _require_int(n, "element count", 1)
    return FiniteRack.from_table([[(2 * x - y) % n for y in range(n)] for x in range(n)])


# The 4-element quandle on the vertices of a tetrahedron: each element acts
# by the rotation fixing it.  Concretely it is the affine quandle over the
# field with four elements, x |> y = (1 + w) x + w y, where element i is
# the bit pair (i & 1) + (i >> 1) w, with w^2 = w + 1; addition is XOR.


def _f4_mul(a: int, b: int) -> int:
    p, q = a & 1, a >> 1
    r, s = b & 1, b >> 1
    return (p * r ^ q * s) | (p * s ^ q * r ^ q * s) << 1


def tetrahedron_quandle() -> FiniteRack:
    return FiniteRack.from_table([[_f4_mul(3, x) ^ _f4_mul(2, y) for y in range(4)] for x in range(4)])


BUILTIN_RACKS = {
    "trivial1": trivial_quandle(1),
    "trivial2": trivial_quandle(2),
    "trivial3": trivial_quandle(3),
    "dihedral3": dihedral_quandle(3),
    "tetrahedron": tetrahedron_quandle(),
}


def builtin_rack(name: str) -> FiniteRack:
    try:
        return BUILTIN_RACKS[name]
    except KeyError:
        raise ValueError(f"unknown builtin rack {name!r}") from None


def graph_of_rack(x: FiniteRack) -> SelfIndexedGraph:
    """The self-indexed graph of a rack: one vertex per element, and for
    every pair (a, b) an arrow b --a--> a|>b.  Vertices are the decimal
    element names; arrows are ordered by (a, b).  Each row of the table is
    a bijection, so this is the r-graph of the rows as injections."""
    return graph_from_injections(x.table)


def rack_arrow_index(x: FiniteRack, a: int, b: int) -> int:
    """Index in graph_of_rack(x).arrows of the arrow with label a, source b."""
    return a * x.n + b


# ---------------------------------------------------------------------------
# Abelian coefficient groups and group rings


@dataclass(frozen=True)
class AbelianGroup:
    """Product of cyclic groups Z/m1 x ... x Z/mk, elements are residue
    tuples.  Written multiplicatively in formulas, additively in code."""

    orders: tuple[int, ...]

    def __post_init__(self):
        for m in self.orders:
            _require_int(m, "cyclic order", 1)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def _residues(self, a):
        """``a`` itself, once it has one residue per cyclic factor."""
        if len(a) != len(self.orders):
            raise ValueError(f"residue tuple {a!r} does not have {len(self.orders)} entries")
        return a

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(self._residues(a), self._residues(b), self.orders))

    def neg(self, a):
        return tuple((-x) % m for x, m in zip(self._residues(a), self.orders))

    def scale(self, a, k: int):
        _require_int(k, "scale factor")
        return tuple((x * k) % m for x, m in zip(self._residues(a), self.orders))

    def order(self) -> int:
        return prod(self.orders)


C2 = AbelianGroup((2,))


def epsilon(r: dict) -> int:
    """Augmentation: the sum of multiplicities (= number of contributing
    colorings for the state-sum invariants)."""
    return sum(r.values())


def format_group_ring(r: dict, group: AbelianGroup) -> str:
    """Render e.g. {identity: 4, (1,): 12} over C2 as ``4 + 12*s``.

    Generators of the cyclic factors are named s for a single factor and
    s1, s2, ... otherwise; a zero multiplicity is no term.
    """
    k = len(group.orders)
    names = ["s"] if k == 1 else [f"s{i + 1}" for i in range(k)]
    return _monomial_sum(((r[g], g) for g in sorted(r) if r[g]), names)


# ---------------------------------------------------------------------------
# 2-cocycles


class Cocycle2(NamedTuple):
    """A quandle 2-cocycle with values in A: f(x|>y, x|>z) + f(x, z) =
    f(x, y|>z) + f(y, z) and f(x, x) = 0 (written additively)."""

    group: AbelianGroup
    values: tuple[tuple[tuple[int, ...], ...], ...]  # values[x][y] in A

    def value(self, x: int, y: int):
        return self.values[x][y]

    @property
    def n(self) -> int:
        return len(self.values)


def check_cocycle(rack: FiniteRack, f: Cocycle2) -> str | None:
    """None when f is a quandle 2-cocycle, else a witness description; a
    ragged table's witness names its first short or long row.  Raises
    ValueError when f and the rack differ in size."""
    n = rack.n
    if f.n != n:
        raise ValueError(f"cocycle size {f.n} does not match the rack size {n}")
    for x, row in enumerate(f.values):
        if len(row) != n:
            return f"row {x} has length {len(row)}, expected {n}"
    g = f.group
    for x in range(n):
        if f.value(x, x) != g.identity:
            return f"f({x},{x}) is not the identity"
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = g.add(f.value(rack.op(x, y), rack.op(x, z)), f.value(x, z))
                rhs = g.add(f.value(x, rack.op(y, z)), f.value(y, z))
                if lhs != rhs:
                    return f"cocycle condition fails at ({x},{y},{z})"
    return None


def tetrahedron_cocycle() -> Cocycle2:
    """The nontrivial 2-cocycle of the tetrahedron quandle with values in
    C2: f(x, y) = s unless x = 0, y = 0 or x = y (there x*y*(x - y)
    vanishes in GF(4)), where it is 1."""
    vals = []
    for x in range(4):
        row = []
        for y in range(4):
            trivial = x == 0 or y == 0 or x == y
            row.append((0,) if trivial else (1,))
        vals.append(tuple(row))
    return Cocycle2(C2, tuple(vals))


# ---------------------------------------------------------------------------
# Text formats


def parse_rack_table(text: str) -> FiniteRack:
    """First line a non-negative n, then n rows of n integers."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty rack table")
    n = _require_int(int(tokens[0]), "element count", 0)
    if len(tokens) != 1 + n * n:
        raise ValueError(f"expected {n * n} table entries, got {len(tokens) - 1}")
    vals = [int(v) for v in tokens[1:]]
    table = [vals[i * n : (i + 1) * n] for i in range(n)]
    return FiniteRack.from_table(table)


def parse_cocycle(text: str, n: int) -> Cocycle2:
    """Header ``A: m1,m2,...`` then lines ``x y -> a`` with the A-element as
    comma-separated residues, for a cocycle on ``n`` elements.  Missing
    pairs default to the identity.  An index at or above ``n`` is an error,
    raised before any table is built."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("A:"):
        raise ValueError("cocycle file must start with an 'A: m1,m2,...' line")
    try:
        orders = tuple(int(v) for v in lines[0][2:].split(","))
    except ValueError:
        raise ValueError(f"bad cyclic orders in line {lines[0]!r}") from None
    group = AbelianGroup(orders)
    entries = {}
    for ln in lines[1:]:
        lhs, _, rhs = ln.partition("->")
        try:
            x, y = (int(v) for v in lhs.split())
            residues = [int(v) for v in rhs.split(",")]
        except ValueError:
            raise ValueError(f"line {ln!r} is not of the form 'x y -> r1,r2,...'") from None
        if x < 0 or y < 0:
            raise ValueError(f"negative element index in line {ln!r}")
        if max(x, y) >= n:
            raise ValueError(f"element index {max(x, y)} out of range for {n} elements in line {ln!r}")
        if len(residues) != len(orders):
            raise ValueError(f"bad A-element in line {ln!r}")
        entries[(x, y)] = tuple(r % m for r, m in zip(residues, orders))
    vals = tuple(
        tuple(entries.get((x, y), group.identity) for y in range(n)) for x in range(n)
    )
    return Cocycle2(group, vals)
