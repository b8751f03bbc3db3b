"""Exact integer matrix kernels: Smith normal form, kernels, ranks.

Everything runs on Python integers, so there is no overflow.  A matrix is
a list of sparse rows, each a ``{column: value}`` dict of ``int`` values
(a float or a ``bool`` is a ``TypeError``); zero entries are ignored and
the rows are never changed.  One sparse elimination serves every routine.
Its pivot is a smallest entry, from the shortest column.  The columns are
kept in buckets by length, so a pick reads the entries of the shortest
columns that hold a unit, not every nonzero.  A unit pivot is retired by
row operations alone: its column is cleared, then its row is dropped.  The
elimination records the column transform Q only for the kernel routines,
which read their kernel vectors (the basis this pivot order yields) off Q.
They take the column count, which sizes Q, and reject a column outside it
with a ``ValueError``; the routines mod m reject m < 1 the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors and rank, plus the unit-pivot columns.

    ``unit_columns`` are the columns of the leading pivots that were picked
    as a unit (±1), before the first pivot picked as a non-unit, in pick
    order.  Each such pivot is cleared by row operations, and by column
    operations that touch its own row alone, so on the kernel every
    coordinate in ``unit_columns`` is an integer combination of the others:
    leaving those coordinates out is injective on ker M and maps it onto a
    saturated sublattice.  Homology uses this to leave the matching rows
    out of the next boundary matrix ("clearing").  A pivot that gcd column
    operations turn into a unit after a non-unit pick does not count: M =
    [2 3] ends with the pivot 1 at column 0, but ker M is spanned by (3,
    -2), and leaving coordinate 0 out maps it onto 2Z, which is not
    saturated.  With the next boundary (3, -2)^T, H = 0 would read Z/2.
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
    integer combination of the rest.  The count records the pick, not the
    final value d: gcd combinations can turn a non-unit pick into 1 (M =
    [2 3] ends as the pivot (0, 1)), and clearing on such a pivot is wrong
    (see ``SNFResult``).  A non-unit pick is cleared by gcd row and column
    combinations until its row and column hold it alone.

    Each row is copied in column order, without its zero entries; an entry
    that is not an ``int`` (or is a ``bool``) is a ``TypeError``.  Each
    pivot is the least (|entry|, column length, row length, column, row),
    so units in short columns go first and fill stays low on sparse
    boundary matrices.  The columns are kept in buckets by length, and a
    pick reads the buckets in rising length up to the first that holds a
    unit; only when no unit is left does it read every entry.
    """
    q = None if ncols is None else [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, row in enumerate(matrix):
        d = {}
        for c in sorted(row):
            v = row[c]
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"entry ({r}, {c}) is not an integer: {v!r}")
            if v:
                d[c] = v
        if d:
            if ncols is not None and not (0 <= min(d) and max(d) < ncols):
                raise ValueError(f"row {r} has a column outside range({ncols})")
            rows[r] = d
            for c in d:
                cols.setdefault(c, set()).add(r)
    # The column-length index: by_length[n] holds the columns of length n
    # as of the last rebucket(); each column that gains or loses a row is
    # noted in resized and moved once before the next pick.
    by_length: dict[int, set[int]] = {}
    length_of: dict[int, int] = {}
    resized = set(cols)

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

    def set_entry(r, c, v):
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
            resized.add(c)
        else:
            rd = rows.get(r)
            if rd and c in rd:
                del rd[c]
                if not rd:
                    del rows[r]
                drop(r, c)

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

    def row_combine(r1, r2, x, y, z, w):
        # (row r1, row r2) <- (x*r1 + y*r2, z*r1 + w*r2), det must be +-1
        r1d = dict(rows.get(r1, {}))
        r2d = dict(rows.get(r2, {}))
        for c in set(r1d) | set(r2d):
            a, b = r1d.get(c, 0), r2d.get(c, 0)
            set_entry(r1, c, x * a + y * b)
            set_entry(r2, c, z * a + w * b)

    def col_axpy(dst, src, k):
        for r in list(cols.get(src, set())):
            set_entry(r, dst, rows[r].get(dst, 0) - k * rows[r][src])
        if q is not None:
            q[dst] = [a - k * b for a, b in zip(q[dst], q[src])]

    def col_combine(c1, c2, x, y, z, w):
        for r in set(cols.get(c1, set())) | set(cols.get(c2, set())):
            a, b = rows[r].get(c1, 0), rows[r].get(c2, 0)
            set_entry(r, c1, x * a + y * b)
            set_entry(r, c2, z * a + w * b)
        if q is not None:
            q1, q2 = q[c1], q[c2]
            q[c1] = [x * a + y * b for a, b in zip(q1, q2)]
            q[c2] = [z * a + w * b for a, b in zip(q1, q2)]

    def pick_pivot():
        # The least (|entry|, column length, row length, column, row): a
        # unit beats every larger entry, so it is the unit of least (row
        # length, column, row) in the shortest columns that hold one, and
        # the least entry overall only when no unit is left.
        rebucket()
        for n in sorted(by_length):
            best = None
            for c in by_length[n]:
                for r in cols[c]:
                    rd = rows[r]
                    v = rd[c]
                    if (v == 1 or v == -1) and (best is None or (len(rd), c, r) < best):
                        best = (len(rd), c, r)
            if best:
                return best[2], best[1]
        _, _, _, c, r = min((abs(rows[r][c]), len(cs), len(rows[r]), c, r) for c, cs in cols.items() for r in cs)
        return r, c

    pivots = []
    units = 0
    while rows:
        pr, pc = pick_pivot()
        p = rows[pr][pc]
        if p == 1 or p == -1:
            if units == len(pivots):
                units += 1
            # Row operations clear the column.  The column operations that
            # would then clear the row change no other row, so the row is
            # dropped and Q alone records them.
            for r in list(cols[pc]):
                if r != pr:
                    row_axpy(r, pr, rows[r][pc] * p)
            row = rows.pop(pr)
            for c, e in row.items():
                drop(pr, c)
                if q is not None and c != pc:
                    k = e * p
                    q[c] = [a - k * b for a, b in zip(q[c], q[pc])]
            pivots.append((pc, p))
            continue
        while True:
            # clear the pivot column
            for r in list(cols.get(pc, set())):
                if r == pr:
                    continue
                p = rows[pr][pc]
                e = rows[r][pc]
                if e % p == 0:
                    row_axpy(r, pr, e // p)
                else:
                    g, x, y = _xgcd(p, e)
                    row_combine(pr, r, x, y, -(e // g), p // g)
            # clear the pivot row
            for c in list(rows.get(pr, {})):
                if c == pc:
                    continue
                p = rows[pr][pc]
                e = rows[pr][c]
                if e % p == 0:
                    col_axpy(c, pc, e // p)
                else:
                    g, x, y = _xgcd(p, e)
                    col_combine(pc, c, x, y, -(e // g), p // g)
            if len(cols.get(pc, set())) == 1 and len(rows.get(pr, {})) == 1:
                break
        pivots.append((pc, rows[pr][pc]))
        set_entry(pr, pc, 0)
    return pivots, q, units


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_kernel_basis(matrix, ncols) -> list[list[int]]:
    """Basis of the integer kernel {x : M x = 0}: the columns of Q at the
    non-pivot columns."""
    pivots, q, _ = _eliminate(matrix, ncols)
    pivot_cols = {c for c, _ in pivots}
    return [q[j] for j in range(ncols) if j not in pivot_cols]


def kernel_mod(matrix, ncols, modulus) -> list[tuple[list[int], int]]:
    """Generators (vector, order) of {x in (Z/m)^n : M x = 0 mod m}.

    The generators are independent: the kernel is the direct sum of the
    cyclic groups they span.  A pivot (j, d) gives m / gcd(d, m) times
    column j of Q, of order gcd(d, m); a non-pivot column j gives column j
    of Q, of order m.  Generators of order 1 are left out.
    """
    _check_modulus(modulus)
    pivots, q, _ = _eliminate(matrix, ncols)
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
    _check_modulus(modulus)
    snf = smith_normal_form(matrix)
    size = 1
    for d in snf.factors:
        size *= modulus // gcd(d, modulus)
    return size


def _check_modulus(modulus):
    if modulus < 1:
        raise ValueError(f"modulus must be at least 1, got {modulus}")
