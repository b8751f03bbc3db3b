"""Cubical homology of self-indexed graphs, with the quandle quotient.

The degree-n chain group of G is free abelian on the homomorphisms
Y_n -> G, with boundary taken by alternating sums over the faces D_s^0,
D_s^1.  The homology routines take any G in which every arrow has a
distinct (label, source) pair; this domain holds the r-graphs, which
also need distinct (label, target) pairs, and a graph outside it raises
``NotRGraphError``.  On this domain a homomorphism is determined by the
images (a_1, ..., a_n) of the cube origins, and the boundary becomes

  d<a_1..a_n> = sum_s (-1)^s (<..drop a_s..> - <.., a_s.a_{s+1}, .., a_s.a_n>)

where a.b is the target of the arrow with label a and source b.  The
q-quotient needs a q-graph and kills tuples with equal adjacent entries.

The complex works on integer codes: the tuple (a_1, ..., a_n) is the
base-V number with digits a_1 .. a_n, a_1 most significant, for V
vertices, so numeric order is lexicographic order.  A tuple is valid when
its F table, F(S) = a_min(S) . F(S - min(S)) on the vertex sets S of Y_n,
is defined and satisfies every cube relation.  Prepending a to a valid
tuple gives a valid tuple exactly when a is defined on D, the vertices of
the F table, and distributes over P, the pairs (x, y) that the relations
read as x.y.  So the graph gets two masks per label a: ``nodom`` (the
vertices that a is not defined on) and ``bad`` (the pairs x.y, as bit
x*V + y, over which a does not distribute), and a extends a tuple with
masks (D, P) iff D & nodom and P & bad are both zero.  Each code also
records its acted tail, the code of (a_1.a_2, ..., a_1.a_n); with it each
boundary face of a code is one arithmetic step.

This module owns the tuple complex, the homomorphisms Y_n -> G and the
degree-2 q-cocycles.  The chain layer (chains and cochains on
homomorphisms, the cycle of a flow, the cochain of a quandle 2-cocycle
and the state sums) lives in ``comtes.coloring``.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .coloring import graph_homomorphisms
from .core import GraphHomomorphism, SelfIndexedGraph, _index_form, _require_int, _UnionFind, classify
from .cubes import build_Yn
from .linalg import _BuiltRows, _divisibility_chain, image_size_mod, kernel_mod, smith_normal_form
from .racks import AbelianGroup


class NotRGraphError(ValueError):
    pass


def dot_table(g: SelfIndexedGraph) -> list[list[int]]:
    """dot[label][source] = target vertex index, or -1 when there is no such
    arrow.  Only graphs of the module's domain admit this table."""
    nv = len(g.vertices)
    dot = [[-1] * nv for _ in range(nv)]
    for a, (si, ti, li) in zip(g.arrows, _index_form(g)[1]):
        if dot[li][si] != -1:
            raise NotRGraphError(
                f"two arrows share source {a.source!r} and label {a.label!r}"
            )
        dot[li][si] = ti
    return dot


def _distributivity_masks(dot) -> list[tuple[int, int]]:
    """Per label a, the pair (nodom, bad): nodom has bit x for each vertex
    x that a is not defined on, and bad has bit x*V + y for each defined
    x.y over which a does not distribute, a.(x.y) != (a.x).(a.y).  The
    defined x.y are the arrows, so this takes O(V E)."""
    nv = len(dot)
    arrows = [(x, y, xy) for x, row in enumerate(dot) for y, xy in enumerate(row) if xy != -1]
    masks = []
    for row in dot:
        nodom = sum(1 << x for x, ax in enumerate(row) if ax == -1)
        bad = 0
        for x, y, xy in arrows:
            ax, ay = row[x], row[y]
            if ax == -1 or ay == -1 or row[xy] == -1 or dot[ax][ay] != row[xy]:
                bad |= 1 << (x * nv + y)
        masks.append((nodom, bad))
    return masks


def _image(mask: int, step) -> int:
    """The mask of the bits step(k) over the set bits k of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << step(low.bit_length() - 1)
        mask ^= low
    return out


def _extend(states, n: int, dot, masks, memo, acted: dict[int, int], q_quotient: bool):
    """The degree-n states (code, D, P) from the degree-(n-1) ones by
    prepending a_1, in numeric order of their codes, and the acted tail of
    each new code.

    Dropping a_1 from a valid tuple leaves a valid tuple, so only the
    relations that involve element 1 need checking.  Those whose source
    lacks 1 read a_1 . F(S) = F({1} + S), which defines the odd half once
    a_1 is defined on D (the cross relations, with pairs {a_1} x D).  The
    others are the old relations on the odd half, (a_1.x).(a_1.y) =
    a_1.(x.y) for (x, y) in P.  So the new D is D + {a_1} + a_1(D) and the
    new P is P + (a_1 x a_1)(P) + {a_1} x D.  The acted tail of (a_1, t)
    is that of its prefix (a valid tuple of degree n-1) followed by
    a_1 . (the last entry of t)."""
    nv = len(dot)
    place = nv ** (n - 1)
    # under the quotient, the place of the old first entry, which a_1 may not equal
    first = place // nv if q_quotient and n > 1 else 0
    out = []
    tails = {}
    for a, row in enumerate(dot):
        nodom, bad = masks[a]
        images, pair_images = memo[a]
        lead = a * place
        cross = a * nv
        for code, d, p in states:
            if d & nodom or p & bad or (first and code // first == a):
                continue
            ad = images.get(d)
            if ad is None:
                ad = images[d] = _image(d, row.__getitem__)
            ap = pair_images.get(p)
            if ap is None:
                ap = pair_images[p] = _image(p, lambda k: row[k // nv] * nv + row[k % nv])
            new = lead + code
            out.append((new, d | 1 << a | ad, p | ap | d << cross))
            tails[new] = acted[new // nv] * nv + row[code % nv] if n > 1 else 0
    return out, tails


def _tuple_codes(dot, top: int, q_quotient: bool):
    """The bases of C_0 .. C_top (C^Q under the quotient) as lists of codes
    in numeric order, and per degree the dict from each code to its acted
    tail, built in one pass: each degree extends the one below it exactly
    once."""
    masks = _distributivity_masks(dot)
    memo = [({}, {}) for _ in dot]
    states = [(0, 0, 0)]
    codes = [[0]]
    acted = [{0: 0}]
    for n in range(1, top + 1):
        states, tails = _extend(states, n, dot, masks, memo, acted[-1], q_quotient)
        codes.append([code for code, _, _ in states])
        acted.append(tails)
    return codes, acted


def _decode(code: int, n: int, nv: int) -> tuple[int, ...]:
    return tuple(code // nv**k % nv for k in reversed(range(n)))


def hom_tuples(n: int, g: SelfIndexedGraph) -> list[tuple[int, ...]]:
    """Tuples (a_1..a_n) of vertex indices that define homomorphisms
    Y_n -> g, in lexicographic order.  Degree n is built from degree n-1
    by prepending a_1, under the two mask tests of ``_extend``."""
    return chain_basis(n, g)


def chain_basis(n: int, g: SelfIndexedGraph, q_quotient: bool = False) -> list[tuple[int, ...]]:
    """Ordered basis of C_n (or C_n^Q)."""
    nv, codes, _ = _bases_of(g, n, q_quotient)
    return [_decode(code, n, nv) for code in codes[n]]


def _bases_of(g: SelfIndexedGraph, top: int, q_quotient: bool):
    """The vertex count of g, its code bases of C_0 .. C_top and their
    acted tails."""
    _require_int(top, "degree", 0)
    dot = dot_table(g)
    if q_quotient:
        _require_q_graph(g)
    return (len(dot), *_tuple_codes(dot, top, q_quotient))


def _require_q_graph(g: SelfIndexedGraph):
    if classify(g) != "q":
        raise ValueError("the quandle quotient needs a q-graph (self-labeled loop at every vertex)")


def boundary_matrix(n: int, g: SelfIndexedGraph, q_quotient: bool = False) -> list[list[int]]:
    """Integer matrix of the boundary C_n -> C_{n-1} over the tuple bases,
    rows indexed by C_{n-1}, columns by C_n, as a dense list of lists.
    C_{-1} = 0, so the matrix of d_0 has no rows.  The dense rows are not
    an input for ``smith_normal_form``, which takes ``{column: value}``
    dicts and rejects a list row with a ``TypeError``."""
    nv, codes, acted = _bases_of(g, n, q_quotient)
    if n == 0:
        return []
    cols = range(len(codes[n]))
    return [[row.get(c, 0) for c in cols] for row in _boundary(nv, codes, acted, n)]


def _boundary(nv: int, codes, acted, n: int, cleared=frozenset()) -> _BuiltRows:
    """The sparse rows of the boundary C_n -> C_{n-1}: one per code of
    degree n-1, as {column in degree n: coefficient} in rising column
    order, without zero entries.  The rows whose positions are in
    ``cleared`` are left empty.

    With L = n - s entries after a_s and prefix = t // V^(L+1), the faces
    of the code t at s are prefix V^L + t mod V^L (drop a_s) and
    prefix V^L + the acted tail of t mod V^(L+1) (act by a_s).  When the
    two are one code they cancel, and the pair is skipped.  Under the
    quotient the faces missing from the basis are exactly the degenerate
    ones, and they are left out."""
    pos = {code: i for i, code in enumerate(codes[n - 1]) if i not in cleared}
    rows = _BuiltRows([{} for _ in codes[n - 1]])
    faces = [(-1 if s % 2 else 1, nv ** (n - s), nv ** (n - s + 1), acted[n - s + 1]) for s in range(1, n)]
    for col, t in enumerate(codes[n]):
        # each entry of column col is written while col is the row's last
        # column, so the rows keep rising column order
        for sign, low, high, tails in faces:
            prefix = t // high * low
            d0 = prefix + t % low
            acts = prefix + tails[t % high]
            if d0 == acts:
                continue
            for face, coeff in ((d0, sign), (acts, -sign)):
                r = pos.get(face)
                if r is not None:
                    row = rows[r]
                    v = row.get(col, 0) + coeff
                    if v:
                        row[col] = v
                    else:
                        del row[col]
    return rows


class HomologyGroup(NamedTuple):
    betti: int
    torsion: tuple[int, ...]

    def format(self) -> str:
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti:
            parts.append(f"Z^{self.betti}")
        parts += [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.format()


def homology_range(
    g: SelfIndexedGraph, max_degree: int, q_quotient: bool = False
) -> tuple[HomologyGroup, ...]:
    """H_1 .. H_max_degree with integer coefficients (H_0 is Z on every
    graph under the convention that C_0 is spanned by the unique empty
    homomorphism, with zero boundary into it).

    The bases of C_0 .. C_{max_degree+1} are built once, in one pass.  d_2
    is never eliminated: the column of (a, x) is -e_x + e_{a.x}, so d_2 is
    the incidence matrix of the arrows x -> a.x, whose rank is the size of
    a spanning forest and which has no torsion (``_spanning_forest``).
    d_3, d_4, ... are taken in rising degree with clearing: the rows of
    d_{k+1} at a clearing set of d_k are left out, the forest's columns for
    k = 2 and the ``unit_columns`` of d_k (its leading pivots picked as a
    unit) above.  This is exact over Z.  Leaving those coordinates out is
    injective on Z_k = ker d_k and maps it onto a saturated sublattice, and
    B_k lies in Z_k, so the cleared d_{k+1} has the rank of d_{k+1} and its
    cokernel the same torsion.  For the forest, a cycle is fixed by its
    coordinates off the forest, and each vector on them extends to a cycle
    (a sum of fundamental cycles), so Z_2 maps onto all of Z^{off forest};
    the q-quotient only drops the degenerate (a, a), zero columns.  For
    the units, see ``SNFResult``.  Only pivots picked as a unit may clear:
    d_k = [2 3] picks 2 and ends with the unit pivot 1 at column 1, and
    with d_{k+1} = (3, -2)^T clearing row 1 would give H_k = Z/3 instead of
    0.  Persistent homology calls this step clearing, or the twist (Chen &
    Kerber, EuroCG 2011), over a field.

    A quandle graph, one whose table is total, with a.a = a and no ``bad``
    pair, eliminates only its quotient complex: its plain groups are
    H_m = H^Q_m + sum_(p=1..m-1) [H^Q_p (x) H_(m-1-p) + Tor(H^Q_p, H_(m-2-p))]
    with H_0 = Z.  The rack complex splits into the degenerate and the
    normalized subcomplex (Litherland & Nelson, J. Pure Appl. Algebra 178,
    2003), and the degenerate part follows from the normalized homology by
    this Kunneth-type formula (Przytycki & Putyra, J. Eur. Math. Soc. 18,
    2016)."""
    _require_int(max_degree, "max_degree", 0)
    dot = dot_table(g)
    if q_quotient:
        _require_q_graph(g)
    elif _is_quandle(dot):
        return _quandle_fold(_elimination_range(dot, max_degree, True))
    return _elimination_range(dot, max_degree, q_quotient)


def _is_quandle(dot) -> bool:
    """Whether the table ``dot`` is total, with a.a = a and no ``bad``
    pair: the precondition of the fold in ``homology_range``."""
    return all(-1 not in row and row[a] == a for a, row in enumerate(dot)) and not any(
        bad for _, bad in _distributivity_masks(dot)
    )


def _elimination_range(dot, max_degree: int, q_quotient: bool) -> tuple[HomologyGroup, ...]:
    """``homology_range`` by eliminating the boundary matrices of the
    graph with table ``dot``."""
    nv = len(dot)
    codes, acted = _tuple_codes(dot, max_degree + 1, q_quotient)
    sizes = [len(b) for b in codes]
    ranks = [0] * (max_degree + 2)
    torsions = [()] * (max_degree + 2)
    cleared = frozenset()
    if max_degree:
        cleared = _spanning_forest(nv, codes[2], acted[2])
        ranks[2] = len(cleared)
    for k in range(3, max_degree + 2):
        rows = _boundary(nv, codes, acted, k, cleared) if sizes[k] else ()
        if not any(rows):
            # the Smith form of a zero matrix: rank 0, no torsion, no units
            cleared = frozenset()
            continue
        snf = smith_normal_form(rows)
        ranks[k] = snf.rank
        torsions[k] = tuple(d for d in snf.factors if d > 1)
        cleared = frozenset(snf.unit_columns)
    out = []
    for k in range(1, max_degree + 1):
        betti = sizes[k] - ranks[k] - ranks[k + 1]
        out.append(HomologyGroup(betti, torsions[k + 1]))
    return tuple(out)


def _quandle_fold(quotient) -> tuple[HomologyGroup, ...]:
    """The plain H_1 .. H_n of a quandle graph from its quotient range
    H^Q_1 .. H^Q_n by the formula of ``homology_range``.  A group is the
    list of the orders of its cyclic summands, 0 for Z: Z/a (x) Z/b and
    Tor(Z/a, Z/b) are Z/gcd(a, b), and Tor with Z is 0."""
    quot = [[0] * h.betti + list(h.torsion) for h in quotient]
    plain = [[0]]
    out = []
    for m in range(1, len(quot) + 1):
        orders = list(quot[m - 1])
        for p in range(1, m):
            orders += [gcd(a, b) for a in quot[p - 1] for b in plain[m - 1 - p]]
            if p <= m - 2:
                orders += [gcd(a, b) for a in quot[p - 1] if a for b in plain[m - 2 - p] if b]
        plain.append(orders)
        torsion = _divisibility_chain([d for d in orders if d])
        out.append(HomologyGroup(orders.count(0), tuple(d for d in torsion if d > 1)))
    return tuple(out)


def _spanning_forest(nv: int, codes2: list[int], tails2: dict[int, int]) -> frozenset[int]:
    """The positions in ``codes2`` of a spanning forest of the arrows
    x -> a.x, one per code (a, x), taken greedily in basis order: the
    columns of a basis of the column space of d_2.  A loop, a.x = x, gives
    a zero column and is never taken."""
    uf = _UnionFind(range(nv))
    return frozenset([col for col, code in enumerate(codes2) if uf.union(code % nv, tails2[code])])


def homology(g: SelfIndexedGraph, n: int, q_quotient: bool = False) -> HomologyGroup:
    """H_n; H_0 is Z, by the convention of ``homology_range``."""
    groups = homology_range(g, n, q_quotient)
    return groups[n - 1] if n else HomologyGroup(1, ())


def enumerate_homs(n: int, g: SelfIndexedGraph) -> list[GraphHomomorphism]:
    """All homomorphisms Y_n -> g in a deterministic order: on the module's
    domain, in lexicographic order of the origin tuples (the images of the
    Y_n vertices "1".."n"), each with its F table rebuilt from the tuple as
    F(S) = a_min(S) . F(S - min(S)); a full constraint search otherwise."""
    cube = build_Yn(n)
    try:
        dot = dot_table(g)
    except NotRGraphError:
        return graph_homomorphisms(cube.graph, g)
    codes, _ = _tuple_codes(dot, n, False)
    words = sorted(cube.vertex_words, key=len)  # S - min(S) before S
    by_sl = {(l, s): j for j, (s, _, l) in enumerate(_index_form(g)[1])}
    homs = []
    for code in codes[n]:
        t = _decode(code, n, len(dot))
        f: dict[tuple[int, ...], int] = {}
        for w in words:
            f[w] = dot[t[w[0] - 1]][f[w[1:]]] if w[1:] else t[w[0] - 1]
        vertex_images = tuple(g.vertices[f[w]] for w in cube.vertex_words)
        arrow_map = tuple(by_sl[f[lab], f[src]] for (src, _), lab in zip(cube.arrow_data, cube.arrow_words))
        homs.append(GraphHomomorphism(vertex_images, arrow_map))
    return homs


# ---------------------------------------------------------------------------
# Quandle 2-cocycles by linear algebra


class Q2Cocycles(NamedTuple):
    basis: tuple[tuple[int, ...], ...]  # C_2^Q basis tuples (vertex indices)
    group: AbelianGroup
    # per cyclic factor: independent generators (vector over basis, order)
    generators: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]
    cocycle_space_size: int
    coboundary_space_size: int


def q2_cocycles(g: SelfIndexedGraph, group: AbelianGroup) -> Q2Cocycles:
    """Solve for the degree-2 q-cocycles of a q-graph with values in the
    given finite abelian group: the kernel of the transposed boundary
    C_3^Q -> C_2^Q over each cyclic factor.  Also measures the coboundary
    subspace (image of the transposed C_1 boundary)."""
    nv, codes, acted = _bases_of(g, 3, True)
    basis2 = [_decode(code, 2, nv) for code in codes[2]]
    # the transposed boundaries, one row per generator of C_3 or C_2
    bt3 = _transpose(_boundary(nv, codes, acted, 3), len(codes[3]))
    bt2 = _transpose(_boundary(nv, codes, acted, 2), len(codes[2]))
    gens = []
    csize = 1
    bsize = 1
    for m in group.orders:
        ker = kernel_mod(bt3, len(basis2), m)
        gens.append(tuple((tuple(v), order) for v, order in ker))
        for _, order in ker:
            csize *= order
        bsize *= image_size_mod(bt2, m)
    return Q2Cocycles(tuple(basis2), group, tuple(gens), csize, bsize)


def _transpose(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    out: list[dict[int, int]] = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            out[c][r] = v
    return out
