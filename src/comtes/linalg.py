"""Exact integer matrix kernels: Smith normal form, kernels, ranks.

Everything runs on Python integers, so there is no overflow.  A matrix is
a list of sparse rows, each a ``{column: value}`` dict of ``int`` values
keyed by ``int`` columns (a row of another type, a dense list included,
or a float or a ``bool`` is a ``TypeError``, a negative column a
``ValueError``); zero entries are ignored and the rows are never
changed.  Every matrix a caller passes is checked so; the boundary rows
that ``comtes.homology`` builds come as ``_BuiltRows`` and are taken as
built.  One sparse elimination serves every routine.  Its
pivot is the least (|entry|, column length, column, row length, row).  The
columns are kept in buckets by length, so a unit pick reads the shortest
unit-holding bucket's columns in index order up to the first that holds a
unit, not every nonzero.  A unit pivot is retired by row
operations alone: its column is cleared, then its row is dropped.  A
non-unit pivot reduces its column and row by floor division, and the least
remainder left becomes the next pivot.  The elimination records the column
transform Q only for the kernel routines, which read their kernel vectors
(the basis this pivot order yields) off Q.  They take the column count,
which sizes Q, and reject a column outside it with a ``ValueError``; the
routines mod m reject a modulus that is not an ``int``, or is a ``bool``,
with a ``TypeError`` and one below 1 with a ``ValueError`` ("modulus must
be positive").
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .core import _require_int


class SNFResult(NamedTuple):
    """Invariant factors and rank, plus the unit-pivot columns.

    ``unit_columns`` are the columns of the leading pivots that were picked
    as a unit (±1), before the first pivot picked as a non-unit, in pick
    order.  Each such pivot is cleared by row operations, and by column
    operations that touch its own row alone, so on the kernel every
    coordinate in ``unit_columns`` is an integer combination of the others:
    leaving those coordinates out is injective on ker M and maps it onto a
    saturated sublattice.  Homology uses this to leave the matching rows
    out of the next boundary matrix ("clearing").  A unit left by column
    steps after a non-unit pick does not count: M = [2 3] picks 2 and ends
    with the pivot 1 at column 1, but ker M is spanned by (3, -2), and
    leaving coordinate 1 out maps it onto 3Z, which is not saturated.
    With the next boundary (3, -2)^T, H = 0 would read Z/3.
    """

    factors: tuple[int, ...]  # invariant factors d1 | d2 | ..., all > 0
    rank: int
    unit_columns: tuple[int, ...] = ()


def _divisibility_chain(ds: list[int]) -> tuple[int, ...]:
    """The invariant factors d_1 | d_2 | ... with the prime powers of the
    nonzero ``ds``.  Once step i has replaced each later d_j by lcm(d_i, d_j)
    and d_i by their gcd, d_i divides every later entry, and later steps
    keep that, since gcds and lcms of multiples of d_i are multiples of it."""
    ds = [abs(d) for d in ds]
    for i in range(len(ds)):
        if ds[i] == 1:
            continue  # a unit divides every entry
        for j in range(i + 1, len(ds)):
            if ds[j] % ds[i]:
                g = gcd(ds[i], ds[j])
                ds[i], ds[j] = g, ds[i] * ds[j] // g
    return tuple(ds)


class _BuiltRows(list):
    """A matrix whose rows the package built: dicts of nonzero ``int``
    entries keyed by non-negative ``int`` columns in rising order, with
    no column outside the matrix.  ``_eliminate`` copies them without
    checking them again."""


def smith_normal_form(matrix) -> SNFResult:
    """Invariant factors, rank and unit-pivot columns of an integer matrix."""
    pivots, _, units = _eliminate(matrix)
    factors = _divisibility_chain([d for _, d in pivots])
    return SNFResult(factors, len(factors), tuple(c for c, _ in pivots[:units]))


def _eliminate(matrix, ncols=None):
    """Diagonalize M by unimodular row and column operations.

    Returns the pivots as (column, d) pairs in pick order; when ``ncols``
    is given, the ``ncols`` x ``ncols`` column transform Q as the list of
    its columns (None otherwise); and the number of leading pivots that
    were picked as a unit.  P M Q is zero except for the entry d of each
    pivot column, for a unimodular P that is not recorded.  With
    ``ncols``, a column index outside ``range(ncols)`` is a ``ValueError``.

    A pivot picked as a unit is retired by row operations alone: they
    clear its column, and the column operations that would then clear its
    row change that row only, so the row is dropped and only Q records
    them.  So while every pick so far was a unit, ker M is the kernel of
    the remaining rows and columns with each pivot coordinate a fixed
    integer combination of the rest.  A non-unit pivot p reduces each
    other entry e of its column by a row operation, and of its row by a
    column operation, by e // p.  The least (|entry|, column, row) of the
    remainders left, each smaller than |p|, is the next pivot, a unit or
    not; with none left, p is recorded.  The count stops at the first
    non-unit pick: M = [2 3] ends as the unit pivot (1, 1), and clearing
    on it is wrong (see ``SNFResult``).  Least-remainder pivoting kept the
    entries small on the random matrices measured (Havas & Majewski, J.
    Symb. Comput. 24, 1997), but has no general polynomial bound.

    Each row is copied in column order, without its zero entries; a row
    that is not a ``dict``, or a column or an entry that is not an
    ``int`` (or is a ``bool``), is a ``TypeError``, and a negative column
    a ``ValueError``.  The rows of a ``_BuiltRows`` matrix are copied as
    they stand, without that check.  Each pick from the matrix is the
    least (|entry|, column length, column, row length, row), so units in
    short columns go first and fill stays low on sparse boundary
    matrices.  The columns are kept in buckets by length, and a
    pick reads the buckets in rising length and each bucket's columns in
    rising index up to the first column that holds a unit, whose unit of
    least (row length, row) is the pivot.  It skips the columns an earlier
    pick found without a unit until an operation writes into them; only
    when no unit is left does it read every entry.
    """
    q = None if ncols is None else [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    built = isinstance(matrix, _BuiltRows)
    for r, row in enumerate(matrix):
        if built:
            d = dict(row)
        else:
            if not isinstance(row, dict):
                raise TypeError(f"row {r} is not a {{column: value}} dict: {type(row).__name__}")
            d = {}
            for c in row:
                if isinstance(c, bool) or not isinstance(c, int):
                    raise TypeError(f"row {r} has a column that is not an integer: {c!r}")
            for c in sorted(row):
                v = row[c]
                if isinstance(v, bool) or not isinstance(v, int):
                    raise TypeError(f"entry ({r}, {c}) is not an integer: {v!r}")
                if v:
                    d[c] = v
            if d and ncols is not None and not (0 <= min(d) and max(d) < ncols):
                raise ValueError(f"row {r} has a column outside range({ncols})")
            if d and min(d) < 0:
                raise ValueError(f"row {r} has a negative column: {min(d)}")
        if d:
            rows[r] = d
            for c in d:
                cols.setdefault(c, set()).add(r)
    # The column-length index: by_length[n] holds the columns of length n
    # as of the last rebucket(); each column that gains or loses a row is
    # noted in resized and moved once before the next pick.  unitless holds
    # the columns a pick found without a unit; only a write can put a unit
    # in one, so each row or column operation takes out the columns it writes.
    by_length: dict[int, set[int]] = {}
    length_of: dict[int, int] = {}
    resized = set(cols)
    unitless: set[int] = set()

    def rebucket():
        for c in resized:
            old, new = length_of.get(c, 0), len(cols.get(c, ()))
            if old != new:
                if old:
                    by_length[old].discard(c)
                if new:
                    by_length.setdefault(new, set()).add(c)
                length_of[c] = new
        resized.clear()

    def drop(r, c):
        # row r leaves column c
        cs = cols[c]
        cs.discard(r)
        resized.add(c)
        if not cs:
            del cols[c]

    def row_axpy(dst, src, k):
        # row[dst] -= k * row[src], for two rows that hold entries; the
        # columns of src hold src, so none of them empties
        rd = rows[dst]
        unitless.difference_update(rows[src])
        for c, v in rows[src].items():
            w = rd.get(c, 0) - k * v
            if w:
                if c not in rd:
                    cols[c].add(dst)
                    resized.add(c)
                rd[c] = w
            elif c in rd:
                del rd[c]
                drop(dst, c)
        if not rd:
            del rows[dst]

    def col_axpy(dst, src, k):
        # column[dst] -= k * column[src]; the rows of src hold src, so
        # none of them empties
        unitless.discard(dst)
        for r in cols[src]:
            rd = rows[r]
            w = rd.get(dst, 0) - k * rd[src]
            if w:
                if dst not in rd:
                    cols.setdefault(dst, set()).add(r)
                    resized.add(dst)
                rd[dst] = w
            elif dst in rd:
                del rd[dst]
                drop(r, dst)
        if q is not None:
            q[dst] = [a - k * b for a, b in zip(q[dst], q[src])]

    def pick_pivot():
        # The least (|entry|, column length, column, row length, row): a
        # unit beats every larger entry, so it is the unit of least (row
        # length, row) in the first column, by length and then index, that
        # holds one, and the least entry overall only when no unit is left.
        rebucket()
        for n in sorted(by_length):
            for c in sorted(by_length[n] - unitless):
                best = None
                for r in cols[c]:
                    rd = rows[r]
                    v = rd[c]
                    if (v == 1 or v == -1) and (best is None or (len(rd), r) < best):
                        best = (len(rd), r)
                if best:
                    return best[1], c
                unitless.add(c)
        _, _, c, _, r = min((abs(rows[r][c]), len(cs), c, len(rows[r]), r) for c, cs in cols.items() for r in cs)
        return r, c

    pivots = []
    units = 0
    counting = True  # until the first non-unit pick
    while rows:
        pr, pc = pick_pivot()
        while True:
            p = rows[pr][pc]
            if p == 1 or p == -1:
                if counting:
                    units += 1
                for r in list(cols[pc]):
                    if r != pr:
                        row_axpy(r, pr, rows[r][pc] * p)
                break
            counting = False
            for r in list(cols[pc]):
                if r != pr and (k := rows[r][pc] // p):
                    row_axpy(r, pr, k)
            for c in list(rows[pr]):
                if c != pc and (k := rows[pr][c] // p):
                    col_axpy(c, pc, k)
            rest = [(abs(rows[r][pc]), pc, r) for r in cols[pc] if r != pr]
            rest += [(abs(e), c, pr) for c, e in rows[pr].items() if c != pc]
            if not rest:
                break
            _, pc, pr = min(rest)
        # The column of p is cleared.  A non-unit p is alone in its row; the
        # column operations that would clear a unit's row change no other
        # row.  So the row is dropped and Q alone records them.
        row = rows.pop(pr)
        for c, e in row.items():
            drop(pr, c)
            if q is not None and c != pc:
                k = e * p
                q[c] = [a - k * b for a, b in zip(q[c], q[pc])]
        pivots.append((pc, p))
    return pivots, q, units


def integer_kernel_basis(matrix, ncols) -> list[list[int]]:
    """Basis of the integer kernel {x : M x = 0}: the columns of Q at the
    non-pivot columns."""
    pivots, q, _ = _eliminate(matrix, _require_int(ncols, "ncols", 0))
    pivot_cols = {c for c, _ in pivots}
    return [q[j] for j in range(ncols) if j not in pivot_cols]


def kernel_mod(matrix, ncols, modulus) -> list[tuple[list[int], int]]:
    """Generators (vector, order) of {x in (Z/m)^n : M x = 0 mod m}.

    The generators are independent: the kernel is the direct sum of the
    cyclic groups they span.  A pivot (j, d) gives m / gcd(d, m) times
    column j of Q, of order gcd(d, m); a non-pivot column j gives column j
    of Q, of order m.  Generators of order 1 are left out.
    """
    _require_int(modulus, "modulus", 1)
    pivots, q, _ = _eliminate(matrix, _require_int(ncols, "ncols", 0))
    pivot_of = dict(pivots)
    gens = []
    for j in range(ncols):
        order = gcd(pivot_of.get(j, 0), modulus)
        if order > 1:
            scale = modulus // order
            gens.append(([(scale * v) % modulus for v in q[j]], order))
    return gens


def image_size_mod(matrix, modulus) -> int:
    """Order of the column span of M inside (Z/m)^rows."""
    _require_int(modulus, "modulus", 1)
    snf = smith_normal_form(matrix)
    size = 1
    for d in snf.factors:
        size *= modulus // gcd(d, modulus)
    return size
