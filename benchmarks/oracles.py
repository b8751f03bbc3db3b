"""Answers computed apart from comtes, against which the workloads are checked.

Nothing here imports the package: graphs and comtes are read through their
plain fields (``vertices``, ``arrows`` with ``source``/``target``/``label``,
``flows``), and every value is either brute force on small inputs or a
closed form from the literature.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product
from math import gcd


def _arrow_triples(c):
    return [(a.source, a.target, a.label) for a in c.arrows]


def comtes_isomorphic(c1, c2) -> bool:
    """Brute force over vertex bijections: some bijection carries the
    multiset of (source, target, label, flow) of ``c1`` onto that of ``c2``."""
    v1, v2 = list(c1.vertices), list(c2.vertices)
    if len(v1) != len(v2) or len(c1.arrows) != len(c2.arrows):
        return False
    want = Counter((s, t, l, f) for (s, t, l), f in zip(_arrow_triples(c2), c2.flows))
    if Counter(c1.flows) != Counter(c2.flows):
        return False
    arrows1 = list(zip(_arrow_triples(c1), c1.flows))
    for image in permutations(v2):
        f = dict(zip(v1, image))
        if Counter((f[s], f[t], f[l], fl) for (s, t, l), fl in arrows1) == want:
            return True
    return False


def is_isomorphism_onto(c, cf) -> bool:
    """Whether a canonical form's vertex map and arrow permutation carry the
    comte ``c`` arrow by arrow (flows included) onto the canonical graph."""
    vmap, perm, g = cf.vertex_map, cf.arrow_perm, cf.graph
    if sorted(vmap) != sorted(c.vertices) or sorted(vmap.values()) != sorted(g.vertices):
        return False
    if sorted(perm) != list(range(len(c.arrows))) or len(g.arrows) != len(c.arrows):
        return False
    for i, (s, t, l) in enumerate(_arrow_triples(c)):
        b = g.arrows[perm[i]]
        if (b.source, b.target, b.label) != (vmap[s], vmap[t], vmap[l]):
            return False
        if cf.flows is not None and cf.flows[perm[i]] != c.flows[i]:
            return False
    return True


def fox_colorings(c, p: int = 3) -> int:
    """Brute-force count of Fox p-colorings: vertex colours in Z/p with
    2*colour(label) - colour(source) = colour(target) at every arrow."""
    verts = list(c.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    arrows = [(idx[s], idx[t], idx[l]) for s, t, l in _arrow_triples(c)]
    count = 0
    for col in product(range(p), repeat=len(verts)):
        if all((2 * col[l] - col[s] - col[t]) % p == 0 for s, t, l in arrows):
            count += 1
    return count


def torus_knot_gauss(n: int, numbering=None, start: int = 0) -> str:
    """Gauss code of the closed 2-braid T(2,n), n odd: the 2n passages
    alternate over/under and visit crossings 1..n cyclically.  ``numbering``
    renames the crossings and ``start`` rotates the starting passage; both
    give the same diagram."""
    numbering = numbering or list(range(1, n + 1))
    tokens = [("O" if k % 2 == 0 else "U") + str(numbering[k % n]) + "+" for k in range(2 * n)]
    return "".join(tokens[start:] + tokens[:start])


def torus_alexander(n: int) -> dict[int, int]:
    """Delta_1(T(2,n)) = sum_{k<n} (-t)^k, as exponent -> coefficient."""
    return {k: (-1) ** k for k in range(n)}


def normalize_up_to_unit(coeffs: dict[int, int]) -> dict[int, int]:
    """Shift to lowest exponent 0 and make the lowest coefficient positive,
    so that polynomials equal up to a unit +-t^k compare equal."""
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        return {}
    lo = min(coeffs)
    sign = 1 if coeffs[lo] > 0 else -1
    return {e - lo: sign * c for e, c in coeffs.items()}


def dihedral_count_torus(n: int, p: int) -> int:
    """Colourings of T(2,n) by the dihedral quandle R_p, p prime: p*gcd(n,p)."""
    return p * gcd(n, p)


def braid_transfer_count(table, n: int) -> int:
    """Colourings of the closed 2-braid sigma_1^n by a quandle: the seed
    pairs (x, y) that return to themselves after n crossings, each crossing
    sending (x, y) to (y, y |> x)."""
    m = len(table)
    count = 0
    for x, y in product(range(m), repeat=2):
        a, b = x, y
        for _ in range(n):
            a, b = b, table[b][a]
        count += (a, b) == (x, y)
    return count


def rack_orbits(table) -> int:
    """Number of orbits of a rack: classes of y ~ x |> y."""
    m = len(table)
    parent = list(range(m))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x in range(m):
        for y in range(m):
            parent[find(y)] = find(table[x][y])
    return len({find(v) for v in range(m)})


def rack_betti(orbits: int, n: int) -> int:
    """Free rank of rack homology H_n (Etingof-Grana 2003): |orbits|^n."""
    return orbits ** n


def quandle_betti(orbits: int, n: int) -> int:
    """Free rank of quandle homology H^Q_n (Etingof-Grana 2003): o(o-1)^(n-1)."""
    return orbits * (orbits - 1) ** (n - 1)


def _partial_injections(n: int):
    out = []
    for images in product(range(-1, n), repeat=n):
        used = [v for v in images if v >= 0]
        if len(used) == len(set(used)):
            out.append(images)
    return out


def burnside_classes(n: int, q_only: bool = False) -> int:
    """Isomorphism classes of r-graphs (q-graphs with ``q_only``) on n
    vertices, arrowless class included: the average over vertex
    permutations of the labeled structures each one fixes.  A structure is
    one partial injection source -> target per label vertex."""
    inj = _partial_injections(n)
    per_label = [[f for f in inj if not q_only or f[lab] == lab] for lab in range(n)]
    perms = list(permutations(range(n)))
    total = 0
    for sigma in perms:
        inverse = [0] * n
        for i, s in enumerate(sigma):
            inverse[s] = i
        for maps in product(*per_label):
            # sigma fixes the structure iff maps[sigma(l)] = sigma o maps[l] o sigma^-1
            if all(
                maps[sigma[lab]][b] == (-1 if maps[lab][inverse[b]] < 0 else sigma[maps[lab][inverse[b]]])
                for lab in range(n)
                for b in range(n)
            ):
                total += 1
    return total // len(perms)


def small_canonical(g) -> tuple:
    """Canonical form of a small graph by brute force: the least sorted
    arrow list over all vertex orderings."""
    verts = list(g.vertices)
    triples = _arrow_triples(g)
    best = None
    for order in permutations(range(len(verts))):
        pos = dict(zip(verts, order))
        enc = tuple(sorted((pos[s], pos[t], pos[l]) for s, t, l in triples))
        if best is None or enc < best:
            best = enc
    return (len(verts), best)


def is_r_graph(g) -> bool:
    """No two arrows share (source, label) or (target, label)."""
    triples = _arrow_triples(g)
    return len({(s, l) for s, t, l in triples}) == len(triples) == len({(t, l) for s, t, l in triples})


def is_q_graph(g) -> bool:
    """An r-graph with the loop a -> a labeled a at every vertex."""
    loops = {s for s, t, l in _arrow_triples(g) if s == t == l}
    return is_r_graph(g) and loops == set(g.vertices)


def valid_coloring(g, table, coloring) -> bool:
    """Whether colour(label) |> colour(source) = colour(target) at every arrow."""
    return all(table[coloring[l]][coloring[s]] == coloring[t] for s, t, l in _arrow_triples(g))
