"""Exact integer matrix kernels: Smith normal form, kernels, ranks.

Everything runs on Python integers, so there is no overflow; matrices are
lists of row lists.  One sparse elimination serves every routine.  It is
tuned for boundary matrices (lots of unit entries), and it records the
column transform Q only for the kernel routines, which read their kernel
vectors off the columns of Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class SNFResult:
    factors: tuple[int, ...]  # invariant factors d1 | d2 | ..., all > 0
    rank: int
    nrows: int
    ncols: int


def _divisibility_chain(ds: list[int]) -> tuple[int, ...]:
    ds = sorted(abs(d) for d in ds)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i] != 0:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds.sort()
    return tuple(ds)


def smith_normal_form(matrix) -> SNFResult:
    """Invariant factors and rank of an integer matrix."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    pivots, _ = _eliminate(matrix, ncols)
    factors = _divisibility_chain([d for _, d in pivots])
    return SNFResult(factors, len(factors), nrows, ncols)


def _eliminate(matrix, ncols, track_q=False):
    """Diagonalize M by unimodular row and column operations.

    Returns the pivots as (column, d) pairs and, when ``track_q`` is set, the
    column transform Q as the list of its columns (None otherwise): P M Q is
    zero except for the entry d of each pivot column, for a unimodular P
    that is not recorded.

    Elimination picks unit pivots first (Markowitz-style fill estimate) and
    falls back to gcd row/column combinations, so entries stay small on the
    sparse boundary matrices this library produces.
    """
    q = [[int(i == j) for i in range(ncols)] for j in range(ncols)] if track_q else None
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, row in enumerate(matrix):
        d = {c: v for c, v in enumerate(row) if v}
        if d:
            rows[r] = d
            for c in d:
                cols.setdefault(c, set()).add(r)

    def set_entry(r, c, v):
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
        else:
            rd = rows.get(r)
            if rd and c in rd:
                del rd[c]
                if not rd:
                    del rows[r]
                cs = cols[c]
                cs.discard(r)
                if not cs:
                    del cols[c]

    def row_axpy(dst, src, k):
        # row[dst] -= k * row[src]
        for c, v in list(rows.get(src, {}).items()):
            set_entry(dst, c, rows.get(dst, {}).get(c, 0) - k * v)

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
        best = None
        best_score = None
        for r, rowd in rows.items():
            rfill = len(rowd) - 1
            for c, v in rowd.items():
                av = abs(v)
                score = (av != 1, av, rfill * (len(cols[c]) - 1), r, c)
                if best_score is None or score < best_score:
                    best_score = score
                    best = (r, c)
        return best

    pivots = []
    while rows:
        pr, pc = pick_pivot()
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
    return pivots, q


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


def rank(matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    return smith_normal_form(matrix).rank


def integer_kernel_basis(matrix, ncols) -> list[list[int]]:
    """Basis of the integer kernel {x : M x = 0}: the columns of Q at the
    non-pivot columns."""
    pivots, q = _eliminate(matrix, ncols, track_q=True)
    pivot_cols = {c for c, _ in pivots}
    return [q[j] for j in range(ncols) if j not in pivot_cols]


def kernel_mod(matrix, ncols, modulus) -> list[tuple[list[int], int]]:
    """Generators (vector, order) of {x in (Z/m)^n : M x = 0 mod m}.

    The generators are independent: the kernel is the direct sum of the
    cyclic groups they span.  A pivot (j, d) gives m / gcd(d, m) times
    column j of Q, of order gcd(d, m); a non-pivot column j gives column j
    of Q, of order m.  Generators of order 1 are left out.
    """
    pivots, q = _eliminate(matrix, ncols, track_q=True)
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
    if not matrix or not matrix[0]:
        return 1
    snf = smith_normal_form(matrix)
    size = 1
    for d in snf.factors:
        size *= modulus // gcd(d, modulus)
    return size


def kernel_size_mod(matrix, ncols, modulus) -> int:
    total = 1
    for _, order in kernel_mod(matrix, ncols, modulus):
        total *= order
    return total
