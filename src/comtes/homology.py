"""Cubical homology of self-indexed graphs, with the quandle quotient.

The degree-n chain group of G is free abelian on the homomorphisms
Y_n -> G, with boundary taken by alternating sums over the faces D_s^0,
D_s^1.  For an r-graph target a homomorphism is determined by the images
(a_1, ..., a_n) of the cube origins, and the boundary becomes

  d<a_1..a_n> = sum_s (-1)^s (<..drop a_s..> - <.., a_s.a_{s+1}, .., a_s.a_n>)

where a.b is the target of the arrow with label a and source b.  The
q-quotient (for q-graphs) kills tuples with equal adjacent entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coloring import Chain, Cochain, compose_signature, graph_homomorphisms
from .core import Comte, GraphHomomorphism, SelfIndexedGraph
from .cubes import build_Yn, face_signature
from .linalg import kernel_mod, image_size_mod, smith_normal_form
from .racks import AbelianGroup, Cocycle2, FiniteRack


class NotRGraphError(ValueError):
    pass


def dot_table(g: SelfIndexedGraph) -> list[list[int]]:
    """dot[label][source] = target vertex index, or -1 when there is no such
    arrow.  Only r-graphs admit this table."""
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


@lru_cache(maxsize=None)
def _new_relations(n: int) -> tuple[tuple[int, int, int], ...]:
    """The cube relations F(lam).F(t) = F(t + d) of Y_n that involve element
    1, as mask triples (lam, t, t + d).  Bit k encodes element k+1, F of a
    set S is a_min(S) . F(S - min(S)), and for each d outside t below
    max(t), lam is d together with the elements of t below d."""
    out = []
    for t in range(1, 1 << n):
        for d in range(t.bit_length() - 1):
            dbit = 1 << d
            if not t & dbit and (t | dbit) & 1:
                out.append(((t & (dbit - 1)) | dbit, t, t | dbit))
    return tuple(out)


def _extend(tables: list[list[int]], n: int, dot, q_quotient: bool) -> list[list[int]]:
    """Degree-n F tables from the degree-(n-1) ones by prepending a_1.

    Dropping a_1 from a valid tuple leaves a valid tuple (and a
    non-degenerate one stays non-degenerate), so only the relations that
    involve element 1 need checking.  The old element k is element k+1, so
    its mask doubles; the odd masks are the new sets {1} + S, with value
    a_1 . F(S).  Tables come out in lexicographic order of their tuples."""
    relations = _new_relations(n)
    out = []
    for a, row in enumerate(dot):
        for f in tables:
            if q_quotient and n > 1 and f[1] == a:
                continue
            odd = [a] + [row[x] for x in f[1:]]
            if -1 in odd:
                continue
            new = [0] * (2 * len(f))
            new[0::2] = f
            new[1::2] = odd
            if all(dot[new[lam]][new[t]] == new[td] for lam, t, td in relations):
                out.append(new)
    return out


def _tuple_bases(dot, top: int, q_quotient: bool) -> list[list[tuple[int, ...]]]:
    """The tuple bases of C_0 .. C_top (C^Q under the quotient), built in one
    pass: each degree extends the one below it exactly once."""
    tables = [[0]]
    bases = [[()]]
    for n in range(1, top + 1):
        tables = _extend(tables, n, dot, q_quotient)
        bases.append([tuple(f[1 << k] for k in range(n)) for f in tables])
    return bases


def hom_tuples(n: int, g: SelfIndexedGraph) -> list[tuple[int, ...]]:
    """Tuples (a_1..a_n) of vertex indices that define homomorphisms
    Y_n -> g, for an r-graph g, in lexicographic order.  Degree n is built
    from degree n-1 by prepending a_1 and checking only the cube relations
    that involve element 1."""
    return _bases_of(g, n, False)[1][n]


def _degenerate(t: tuple[int, ...]) -> bool:
    return any(t[i] == t[i + 1] for i in range(len(t) - 1))


def chain_basis(n: int, g: SelfIndexedGraph, q_quotient: bool = False) -> list[tuple[int, ...]]:
    """Ordered basis of C_n (or C_n^Q) for an r-graph."""
    return _bases_of(g, n, q_quotient)[1][n]


def _bases_of(g: SelfIndexedGraph, top: int, q_quotient: bool):
    """The dot table of g and its tuple bases of C_0 .. C_top."""
    dot = dot_table(g)
    if q_quotient:
        _require_q_graph(g)
    return dot, _tuple_bases(dot, top, q_quotient)


def _require_q_graph(g: SelfIndexedGraph):
    from .core import classify

    if classify(g) != "q":
        raise ValueError("the quandle quotient needs a q-graph (self-labeled loop at every vertex)")


def boundary_image(t: tuple[int, ...], dot) -> list[tuple[int, tuple[int, ...]]]:
    """List of (coefficient, tuple) terms of the boundary of one generator."""
    n = len(t)
    terms = []
    for s in range(1, n):
        sign = -1 if s % 2 else 1
        d0 = t[: s - 1] + t[s:]
        acts = t[: s - 1] + tuple(dot[t[s - 1]][x] for x in t[s:])
        terms.append((sign, d0))
        terms.append((-sign, acts))
    return terms


def boundary_matrix(n: int, g: SelfIndexedGraph, q_quotient: bool = False) -> list[list[int]]:
    """Integer matrix of the boundary C_n -> C_{n-1} over the tuple bases,
    rows indexed by C_{n-1}, columns by C_n."""
    dot, bases = _bases_of(g, n, q_quotient)
    return _boundary(dot, bases[n], bases[n - 1], q_quotient)


def _boundary(dot, bas_n, bas_p, q_quotient: bool) -> list[list[int]]:
    pos = {t: i for i, t in enumerate(bas_p)}
    m = [[0] * len(bas_n) for _ in range(len(bas_p))]
    for col, t in enumerate(bas_n):
        for coeff, img in boundary_image(t, dot):
            if q_quotient and _degenerate(img):
                continue
            m[pos[img]][col] += coeff
    return m


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
    every boundary matrix is taken over them."""
    dot, bases = _bases_of(g, max_degree + 1, q_quotient)
    sizes = [len(b) for b in bases]
    ranks = [0] * (max_degree + 2)
    torsions = [()] * (max_degree + 2)
    for k in range(2, max_degree + 2):
        if sizes[k] == 0 or sizes[k - 1] == 0:
            continue
        snf = smith_normal_form(_boundary(dot, bases[k], bases[k - 1], q_quotient))
        ranks[k] = snf.rank
        torsions[k] = tuple(d for d in snf.factors if d > 1)
    out = []
    for k in range(1, max_degree + 1):
        betti = sizes[k] - ranks[k] - ranks[k + 1]
        out.append(HomologyGroup(betti, torsions[k + 1]))
    return tuple(out)


def homology(g: SelfIndexedGraph, n: int, q_quotient: bool = False) -> HomologyGroup:
    return homology_range(g, n, q_quotient)[n - 1]


@dataclass(frozen=True)
class CubeHom:
    """A homomorphism Y_n -> g; for r-graph targets the origin-image tuple
    determines it and is carried alongside the full assignment."""

    degree: int
    tuple_form: tuple[str, ...] | None
    hom: GraphHomomorphism


def _hom_from_tuple(n: int, g: SelfIndexedGraph, t: tuple[int, ...]) -> GraphHomomorphism:
    cube = build_Yn(n)
    dot = dot_table(g)
    by_sl = {}
    for j, a in enumerate(g.arrows):
        by_sl[(a.label, a.source)] = j
    values: dict[tuple[int, ...], int] = {}

    # F(j1..jr) = a_{j1} . F(j2..jr), innermost first
    def val(word) -> int:
        if word in values:
            return values[word]
        if len(word) == 1:
            v = t[word[0] - 1]
        else:
            v = dot[t[word[0] - 1]][val(word[1:])]
        values[word] = v
        return v

    vm = tuple(
        (name, g.vertices[val(w)]) for name, w in zip(cube.graph.vertices, cube.vertex_words)
    )
    am = []
    for (src, d), lab in zip(cube.arrow_data, cube.arrow_words):
        am.append(by_sl[(g.vertices[val(lab)], g.vertices[val(src)])])
    return GraphHomomorphism(tuple(sorted(vm)), tuple(am))


def enumerate_homs(n: int, g: SelfIndexedGraph) -> list[CubeHom]:
    """All homomorphisms Y_n -> g in a deterministic order: the fast
    origin-tuple path for r-graphs, a full constraint search otherwise."""
    try:
        tuples = hom_tuples(n, g)
    except NotRGraphError:
        cube = build_Yn(n)
        return [CubeHom(n, None, h) for h in graph_homomorphisms(cube.graph, g)]
    return [
        CubeHom(n, tuple(g.vertices[i] for i in t), _hom_from_tuple(n, g, t))
        for t in tuples
    ]


# ---------------------------------------------------------------------------
# Chains from flows, general boundaries, signatures


def degree2_signature(g: SelfIndexedGraph, e: int):
    """Signature of the degree-2 basis homomorphism attached to arrow e:
    Y_2's single arrow maps to e, the lone y_1 vertex to the label, the
    y_2 origin to the source and the far y_2 vertex to the target."""
    a = g.arrows[e]
    cube = build_Yn(2)
    img = {(1,): a.label, (2,): a.source, (1, 2): a.target}
    return (tuple(img[w] for w in cube.vertex_words), (e,))


def flow_to_cycle(c: Comte) -> Chain:
    """A flow is the same thing as a degree-2 chain assigning I(e) to the
    basis homomorphism of arrow e; it is a cycle exactly when the flow is
    conserved."""
    coeffs = {}
    for e, f in enumerate(c.flows):
        if f:
            coeffs[degree2_signature(c.graph, e)] = f
    return Chain.from_dict(2, coeffs)


def chain_boundary(chain: Chain, g: SelfIndexedGraph) -> Chain:
    """Boundary of a chain on any graph, computed by composing each
    homomorphism with the face embeddings of Y_{degree}."""
    n = chain.degree
    cube = build_Yn(n)
    out: dict = {}
    for sig, coeff in chain.coeffs:
        vs, ars = sig
        vm = tuple(sorted(zip(cube.graph.vertices, vs)))
        sigma = GraphHomomorphism(vm, ars)
        for s in range(1, n):
            sign = -1 if s % 2 else 1
            for eps, fsign in ((0, sign), (1, -sign)):
                fsig = face_signature(n, s, eps)
                key = compose_signature(fsig, sigma)
                out[key] = out.get(key, 0) + fsign * coeff
    return Chain.from_dict(n - 1, out)


def cochain_from_cocycle2_on(x: FiniteRack, f: Cocycle2) -> Cochain:
    from .coloring import cochain_from_cocycle2

    return cochain_from_cocycle2(x, f, degree2_signature)


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
    m3 = _boundary(dot, basis3, basis2, True)
    m2 = _boundary(dot, basis2, basis1, True)
    n2 = len(basis2)
    bt3 = [list(col) for col in zip(*m3)] if (m3 and m3[0]) else []
    bt2 = [list(col) for col in zip(*m2)] if (m2 and m2[0]) else []
    gens = []
    csize = 1
    bsize = 1
    for m in group.orders:
        ker = kernel_mod(bt3, n2, m)
        gens.append(tuple((tuple(v), order) for v, order in ker))
        for _, order in ker:
            csize *= order
        bsize *= image_size_mod(bt2, m) if bt2 else 1
    return Q2Cocycles(tuple(basis2), group, tuple(gens), csize, bsize)


def q2_cocycles_of_quandle(x: FiniteRack, group: AbelianGroup):
    """Cocycle solve on the graph of a quandle, also reshaped into Cocycle2
    objects (one per generator, embedded in its cyclic factor)."""
    from .racks import graph_of_rack

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
