"""Alexander relation matrices and polynomials of a self-indexed graph.

The module over Z[t, t^-1] is generated by the vertices with one relation
per arrow b --a--> c, namely c = t*b + (1-t)*a.  Delta_i is the gcd of all
minors of rank #V - i of the relation matrix, unit-normalized.
"""

from __future__ import annotations

from itertools import combinations

from .core import Comte, SelfIndexedGraph, _index_form, _require_int, component_index
from .laurent import Laurent, MultiLaurent, divexact, laurent_gcd


def relation_matrix(g: SelfIndexedGraph) -> list[list[Laurent]]:
    """One row per arrow, one column per vertex (in vertex order): the
    specialization t_k := t of ``multivariable_relation_matrix``."""
    return [[p.specialize() for p in row] for row in multivariable_relation_matrix(g)]


def _det(matrix: list[list[Laurent]]) -> Laurent:
    """Fraction-free (Bareiss) determinant over the Laurent ring."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    sign = 1
    prev = Laurent.one()
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Laurent.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = divexact(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = Laurent.zero()
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def _is_unit(p: Laurent) -> bool:
    """Whether p is +-t^k, a unit of Z[t, t^-1]."""
    return len(p.coeffs) == 1 and abs(next(iter(p.coeffs.values()))) == 1


def _eliminate_units(matrix: list[list[Laurent]], r: int) -> tuple[list[list[Laurent]], int]:
    """Remove unit pivots while r > 0: the residual matrix and minor size.

    The pivot is the unit whose row has the fewest nonzeros, ties broken by
    (row, column).  Clearing its column by row operations and dropping its
    row and column turns M into M' with I_r(M) = I_{r-1}(M'), because
    I_r(diag(u, M')) = I_{r-1}(M') for a unit u.
    """
    m = [row[:] for row in matrix]
    while r > 0:
        units = [
            (sum(1 for x in row if x), i, j)
            for i, row in enumerate(m)
            for j, x in enumerate(row)
            if _is_unit(x)
        ]
        if not units:
            break
        _, i, j = min(units)
        pivot = m.pop(i)
        ((e, c),) = pivot.pop(j).coeffs.items()
        inverse = Laurent.t(-e, c)
        for row in m:
            f = row.pop(j) * inverse
            if f:
                for k, x in enumerate(pivot):
                    if x:
                        row[k] = row[k] - f * x
        r -= 1
    return m, r


def minors_gcd(matrix: list[list[Laurent]], r: int) -> Laurent:
    """Unit-normalized gcd of all r x r minors; zero when all minors vanish.
    The empty minor makes it 1 at r = 0, and it is 0 when r exceeds the
    rows or the columns, so that no r x r minor exists.

    Unit pivots are eliminated first, which leaves the gcd unchanged and
    shrinks both the matrix and r.  Over the residual, the running gcd
    short-circuits to 1 as soon as it normalizes to 1.
    """
    one = Laurent.one()
    matrix, r = _eliminate_units(matrix, r)
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if r == 0:
        return one
    if r > nrows or r > ncols:
        return Laurent.zero()
    acc = Laurent.zero()
    for rows in combinations(range(nrows), r):
        for cols in combinations(range(ncols), r):
            d = _det([[matrix[i][j] for j in cols] for i in rows])
            acc = laurent_gcd(acc, d)
            if acc == one:
                return one
    return acc.unit_normalize()


def alexander_polynomial(g: Comte | SelfIndexedGraph, i: int) -> Laurent:
    """Delta_i: ``minors_gcd`` of the relation matrix at rank #V - i, so 1
    when #V - i <= 0 and 0 when #V - i exceeds the arrow count.  The result
    is unit-normalized, so equality is exact.  A comte's Delta_i is that
    of its graph; the flows do not enter.
    """
    if isinstance(g, Comte):
        g = g.graph
    _require_int(i, "index", 0)
    return minors_gcd(relation_matrix(g), max(len(g.vertices) - i, 0))


def multivariable_relation_matrix(g: SelfIndexedGraph) -> list[list[MultiLaurent]]:
    """Relation matrix over Z[t_1^+-, ..., t_n^+-], n = number of components.

    An arrow b --a--> c, with the label a in component i and the source and
    target in component j, contributes t_i at b, -1 at c and 1 - t_j at a;
    entries accumulate when those vertices coincide.
    """
    cidx = component_index(g)
    n = len(set(cidx.values()))
    comp = [cidx[v] for v in g.vertices]
    rows = []
    for s, t, l in _index_form(g)[1]:
        row = [MultiLaurent.zero(n)] * len(g.vertices)
        for v, entry in (
            (s, MultiLaurent.var(n, comp[l])),
            (t, MultiLaurent.const(n, -1)),
            (l, MultiLaurent.const(n, 1) - MultiLaurent.var(n, comp[s])),
        ):
            row[v] = row[v] + entry
        rows.append(row)
    return rows
