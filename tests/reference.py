"""Reference implementations that the tests compare the package against.

Each one is an independent or inverse computation: a class count by
Burnside's lemma, a homomorphism check, the boundary of a chain by face
composition, the cocycle solve reshaped into ``Cocycle2`` objects, exact
divisibility of Laurent polynomials, and the writers that match
``parse_rack_table`` and ``parse_cocycle``.  The package does not need
them, so they live with the tests.
"""

from itertools import permutations
from math import prod

from comtes.census import _conjugate, _label_choices
from comtes.coloring import Chain, _after
from comtes.core import GraphHomomorphism, SelfIndexedGraph
from comtes.cubes import build_Yn, face_map
from comtes.homology import q2_cocycles
from comtes.laurent import Laurent, divexact
from comtes.racks import AbelianGroup, Cocycle2, FiniteRack, graph_of_rack


def count_labeled_structures(n_vertices: int, q_only: bool = False) -> int:
    return prod(len(c) for c in _label_choices(n_vertices, q_only))


def burnside_class_count(n_vertices: int, q_only: bool = False) -> int:
    """Isomorphism class count by Burnside's lemma, an independent check of
    the canonical-form enumeration.

    A permutation fixes a labeled structure iff along each of its cycles
    the injection at the starting label determines the rest and returns to
    itself after conjugating around the cycle.
    """
    n = n_vertices
    choices = _label_choices(n, q_only)
    total = 0
    perms = list(permutations(range(n)))
    for perm in perms:
        seen = set()
        fixed = 1
        for start in range(n):
            if start in seen:
                continue
            cyc = [start]
            x = perm[start]
            while x != start:
                cyc.append(x)
                x = perm[x]
            seen.update(cyc)
            cnt = 0
            for f in choices[start]:
                g = f
                for _ in cyc:
                    g = _conjugate(g, perm)
                if g == f:
                    cnt += 1
            fixed *= cnt
        total += fixed
    return total // len(perms)


def is_homomorphism(h: GraphHomomorphism, src: SelfIndexedGraph, dst: SelfIndexedGraph) -> bool:
    """Check that ``h`` commutes with source, target and label maps."""
    if len(h.vertex_images) != len(src.vertices) or len(h.arrow_map) != len(src.arrows):
        return False
    if not set(dst.vertices).issuperset(h.vertex_images):
        return False
    vm = dict(zip(src.vertices, h.vertex_images))
    for a, j in zip(src.arrows, h.arrow_map):
        if not 0 <= j < len(dst.arrows):
            return False
        b = dst.arrows[j]
        if vm[a.source] != b.source or vm[a.target] != b.target or vm[a.label] != b.label:
            return False
    return True


def chain_boundary(chain: Chain, g: SelfIndexedGraph) -> Chain:
    """Boundary of a chain on any graph, computed by composing each
    homomorphism with the face embeddings of Y_{degree}."""
    n = chain.degree
    cube = build_Yn(n).graph
    out: dict = {}
    for sigma, coeff in chain.coeffs:
        after_sigma = _after(sigma, cube)
        for s in range(1, n):
            sign = -1 if s % 2 else 1
            for eps, fsign in ((0, sign), (1, -sign)):
                key = after_sigma(face_map(n, s, eps))
                out[key] = out.get(key, 0) + fsign * coeff
    return Chain.from_dict(n - 1, out)


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


def divides(d: Laurent, p: Laurent) -> bool:
    if not d:
        return not p
    if not p:
        return True
    try:
        divexact(p, d)
        return True
    except ArithmeticError:
        return False


def format_rack_table(x: FiniteRack) -> str:
    lines = [str(x.n)]
    lines += [" ".join(str(v) for v in row) for row in x.table]
    return "\n".join(lines) + "\n"


def format_cocycle(f: Cocycle2) -> str:
    lines = ["A: " + ",".join(str(m) for m in f.group.orders)]
    for x in range(f.n):
        for y in range(f.n):
            lines.append(f"{x} {y} -> " + ",".join(str(v) for v in f.value(x, y)))
    return "\n".join(lines) + "\n"
