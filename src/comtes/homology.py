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

This module owns the tuple complex, the homomorphisms Y_n -> G and the
degree-2 q-cocycles.  The chain layer (chains and cochains on
homomorphisms, the cycle of a flow, the cochain of a quandle 2-cocycle,
the chain boundary and the state sums) lives in ``comtes.coloring``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coloring import graph_homomorphisms
from .core import GraphHomomorphism, SelfIndexedGraph, classify
from .cubes import build_Yn
from .linalg import kernel_mod, image_size_mod, smith_normal_form
from .racks import AbelianGroup, Cocycle2, FiniteRack, graph_of_rack


class NotRGraphError(ValueError):
    pass


def dot_table(g: SelfIndexedGraph) -> list[list[int]]:
    """dot[label][source] = target vertex index, or -1 when there is no such
    arrow.  Only graphs of the module's domain admit this table."""
    idx = g.vertex_index()
    nv = len(g.vertices)
    dot = [[-1] * nv for _ in range(nv)]
    for a in g.arrows:
        li, si, ti = idx[a.label], idx[a.source], idx[a.target]
        if dot[li][si] != -1:
            raise NotRGraphError(
                f"two arrows share source {a.source!r} and label {a.label!r}"
            )
        dot[li][si] = ti
    return dot


def _mask(word) -> int:
    """The bitmask of a cube word: bit k encodes element k+1."""
    return sum(1 << (k - 1) for k in word)


@lru_cache(maxsize=None)
def _cube_relations(n: int) -> tuple[tuple[int, int, int], ...]:
    """The cube relations F(lam).F(t) = F(t + d) of Y_n, as mask triples
    (lam, t, t + d) sorted by (t, t + d): one for each arrow of Y_n, with
    source t, direction d below the largest element of t and label lam,
    the elements of t below d, then d."""
    return tuple(
        ((t & (1 << d) - 1) | 1 << d, t, t | 1 << d)
        for t in range(1, 1 << n)
        for d in range(t.bit_length() - 1)
        if not t >> d & 1
    )


def _extend(tables: list[list[int]], n: int, dot, q_quotient: bool) -> list[list[int]]:
    """Degree-n F tables from the degree-(n-1) ones by prepending a_1.

    Dropping a_1 from a valid tuple leaves a valid tuple (and a
    non-degenerate one stays non-degenerate), so only the relations that
    involve element 1 need checking.  The old element k is element k+1, so
    its mask doubles; the odd masks are the new sets {1} + S, with value
    a_1 . F(S).  A relation whose source lacks 1 but whose target has it
    reads a_1 . F(S) = F({1} + S), which holds by that construction.  The
    others have 1 in their label, source and target: they are the
    relations of Y_(n-1) read on the odd half, so only those are checked.
    Tables come out in lexicographic order of their tuples."""
    relations = _cube_relations(n - 1)
    out = []
    for a, row in enumerate(dot):
        for f in tables:
            if q_quotient and n > 1 and f[1] == a:
                continue
            odd = [a] + [row[x] for x in f[1:]]
            if -1 in odd or not all(dot[odd[lam]][odd[t]] == odd[td] for lam, t, td in relations):
                continue
            new = [0] * (2 * len(f))
            new[0::2] = f
            new[1::2] = odd
            out.append(new)
    return out


def _tuple_bases(dot, top: int, q_quotient: bool):
    """The tuple bases of C_0 .. C_top (C^Q under the quotient), built in one
    pass: each degree extends the one below it exactly once.  Also returns
    the degree-top F tables, aligned with the top basis: F[_mask(S)] =
    a_min(S) . F(S - min(S)) is the image of the Y_top vertex with element
    set S."""
    tables = [[0]]
    bases = [[()]]
    for n in range(1, top + 1):
        tables = _extend(tables, n, dot, q_quotient)
        bases.append([tuple(f[1 << k] for k in range(n)) for f in tables])
    return bases, tables


def hom_tuples(n: int, g: SelfIndexedGraph) -> list[tuple[int, ...]]:
    """Tuples (a_1..a_n) of vertex indices that define homomorphisms
    Y_n -> g, in lexicographic order.  Degree n is built
    from degree n-1 by prepending a_1 and checking only the cube relations
    that involve element 1."""
    return _bases_of(g, n, False)[1][n]


def _degenerate(t: tuple[int, ...]) -> bool:
    return any(t[i] == t[i + 1] for i in range(len(t) - 1))


def chain_basis(n: int, g: SelfIndexedGraph, q_quotient: bool = False) -> list[tuple[int, ...]]:
    """Ordered basis of C_n (or C_n^Q)."""
    return _bases_of(g, n, q_quotient)[1][n]


def _bases_of(g: SelfIndexedGraph, top: int, q_quotient: bool):
    """The dot table of g and its tuple bases of C_0 .. C_top."""
    dot = dot_table(g)
    if q_quotient:
        _require_q_graph(g)
    # drop the F tables here, so that homology_range does not hold the
    # largest ones through its eliminations
    return dot, _tuple_bases(dot, top, q_quotient)[0]


def _require_q_graph(g: SelfIndexedGraph):
    if classify(g) != "q":
        raise ValueError("the quandle quotient needs a q-graph (self-labeled loop at every vertex)")


def boundary_terms(t: tuple[int, ...], dot, q_quotient: bool) -> dict[tuple[int, ...], int]:
    """The boundary of one generator as {face tuple: coefficient}, without
    zero coefficients; under the quotient, degenerate faces are left out."""
    terms: dict[tuple[int, ...], int] = {}
    for s in range(1, len(t)):
        sign = -1 if s % 2 else 1
        act = dot[t[s - 1]]
        d0 = t[: s - 1] + t[s:]
        acts = t[: s - 1] + tuple([act[x] for x in t[s:]])
        terms[d0] = terms.get(d0, 0) + sign
        terms[acts] = terms.get(acts, 0) - sign
    return {face: coeff for face, coeff in terms.items() if coeff and not (q_quotient and _degenerate(face))}


def boundary_matrix(n: int, g: SelfIndexedGraph, q_quotient: bool = False) -> list[list[int]]:
    """Integer matrix of the boundary C_n -> C_{n-1} over the tuple bases,
    rows indexed by C_{n-1}, columns by C_n, as a dense list of lists."""
    dot, bases = _bases_of(g, n, q_quotient)
    cols = range(len(bases[n]))
    return [[row.get(c, 0) for c in cols] for row in _boundary(dot, bases[n], bases[n - 1], q_quotient)]


def _boundary(dot, bas_n, bas_p, q_quotient: bool, cleared=frozenset()) -> list[dict[int, int]]:
    """The sparse rows of the boundary C_n -> C_{n-1}: one per element of
    bas_p, as {column in bas_n: coefficient}.  The rows whose positions are
    in ``cleared`` are left empty."""
    pos = {t: i for i, t in enumerate(bas_p)}
    rows: list[dict[int, int]] = [{} for _ in bas_p]
    for col, t in enumerate(bas_n):
        for face, coeff in boundary_terms(t, dot, q_quotient).items():
            r = pos[face]
            if r not in cleared:
                rows[r][col] = coeff
    return rows


@dataclass(frozen=True)
class HomologyGroup:
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

    The bases of C_0 .. C_{max_degree+1} are built once, in one pass, and
    every boundary matrix is taken over them, in rising degree, with
    clearing: the rows of d_{k+1} at the ``unit_columns`` of d_k (its
    leading pivots picked as a unit) are left out.  This is exact over Z.
    Leaving those coordinates out is injective on Z_k = ker d_k and maps
    it onto a saturated sublattice (see ``SNFResult``), and B_k lies in
    Z_k, so the cleared d_{k+1} has the rank of d_{k+1} and its cokernel
    the same torsion.  Only pivots picked as a unit may clear: d_k = [2 3]
    ends with the unit pivot 1 at column 0 after a gcd step, and with
    d_{k+1} = (3, -2)^T clearing row 0 would give H_k = Z/2 instead of 0.
    Persistent homology calls this step clearing, or the twist (Chen &
    Kerber, EuroCG 2011), over a field."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")
    dot, bases = _bases_of(g, max_degree + 1, q_quotient)
    sizes = [len(b) for b in bases]
    ranks = [0] * (max_degree + 2)
    torsions = [()] * (max_degree + 2)
    cleared = frozenset()
    for k in range(2, max_degree + 2):
        if sizes[k] == 0 or sizes[k - 1] == 0:
            cleared = frozenset()
            continue
        snf = smith_normal_form(_boundary(dot, bases[k], bases[k - 1], q_quotient, cleared))
        ranks[k] = snf.rank
        torsions[k] = tuple(d for d in snf.factors if d > 1)
        cleared = frozenset(snf.unit_columns)
    out = []
    for k in range(1, max_degree + 1):
        betti = sizes[k] - ranks[k] - ranks[k + 1]
        out.append(HomologyGroup(betti, torsions[k + 1]))
    return tuple(out)


def homology(g: SelfIndexedGraph, n: int, q_quotient: bool = False) -> HomologyGroup:
    """H_n; H_0 is Z, by the convention of ``homology_range``."""
    groups = homology_range(g, n, q_quotient)
    return groups[n - 1] if n else HomologyGroup(1, ())


def enumerate_homs(n: int, g: SelfIndexedGraph) -> list[GraphHomomorphism]:
    """All homomorphisms Y_n -> g in a deterministic order: read off the F
    tables on the module's domain, in lexicographic order of the origin
    tuples (the images of the Y_n vertices "1".."n"); a full constraint
    search otherwise."""
    cube = build_Yn(n)
    try:
        dot = dot_table(g)
    except NotRGraphError:
        return graph_homomorphisms(cube.graph, g)
    _, tables = _tuple_bases(dot, n, False)
    idx = g.vertex_index()
    by_sl = {(idx[a.label], idx[a.source]): j for j, a in enumerate(g.arrows)}
    vertex_masks = [_mask(w) for w in cube.vertex_words]
    arrow_masks = [(_mask(lab), _mask(src)) for (src, _), lab in zip(cube.arrow_data, cube.arrow_words)]
    return [
        GraphHomomorphism(
            tuple(g.vertices[f[m]] for m in vertex_masks), tuple(by_sl[f[lam], f[src]] for lam, src in arrow_masks)
        )
        for f in tables
    ]


# ---------------------------------------------------------------------------
# Quandle 2-cocycles by linear algebra


@dataclass(frozen=True)
class Q2Cocycles:
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
    dot, (_, basis1, basis2, basis3) = _bases_of(g, 3, True)
    pos1 = {t: i for i, t in enumerate(basis1)}
    pos2 = {t: i for i, t in enumerate(basis2)}
    # the transposed boundaries, one row per generator of C_3 or C_2
    bt3 = [{pos2[f]: c for f, c in boundary_terms(t, dot, True).items()} for t in basis3]
    bt2 = [{pos1[f]: c for f, c in boundary_terms(t, dot, True).items()} for t in basis2]
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


def q2_cocycles_of_quandle(x: FiniteRack, group: AbelianGroup):
    """Cocycle solve on the graph of a quandle, also reshaped into Cocycle2
    objects (one per generator, embedded in its cyclic factor)."""
    g = graph_of_rack(x)
    res = q2_cocycles(g, group)
    k = len(group.orders)
    cocycles = []
    for fi, factor_gens in enumerate(res.generators):
        for vec, _order in factor_gens:
            vals = [[group.identity] * x.n for _ in range(x.n)]
            for pos, (a, b) in enumerate(res.basis):
                elt = [0] * k
                elt[fi] = vec[pos] % group.orders[fi]
                vals[a][b] = tuple(elt)
            cocycles.append(Cocycle2(group, tuple(tuple(r) for r in vals)))
    return res, cocycles


def cocycle_vector(f: Cocycle2, basis, factor: int) -> list[int]:
    """Project a Cocycle2 to its vector over a C_2^Q basis in one factor."""
    return [f.value(a, b)[factor] for a, b in basis]
