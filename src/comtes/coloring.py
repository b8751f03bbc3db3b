"""Colorings, graph homomorphisms, the chain layer and the state sums.

A coloring of a self-indexed graph by a quandle X sends vertices to
elements so that C(label) |> C(source) = C(target) at every arrow; it is
the same thing as a graph homomorphism into the self-indexed graph of X.

This module owns the chain layer: chains and cochains on homomorphisms
Y_n -> G, the cycle of a flow, the cochain of a quandle 2-cocycle, and
the state sum, which weights homomorphisms by chain coefficients and
pulled-back cochain values in the group ring Z[A].  The quandle cocycle
invariant Phi is its degree-2 specialization.
``comtes.homology`` owns the tuple complex and the cocycle solve.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .core import Comte, GraphHomomorphism, SelfIndexedGraph, _index_form, _require_int
from .cubes import build_Yn
from .racks import AbelianGroup, Cocycle2, FiniteRack, graph_of_rack, rack_arrow_index


def _vertex_maps(src: SelfIndexedGraph, dst: SelfIndexedGraph):
    """All vertex maps f with: every src arrow has at least one dst arrow
    over (f(source), f(target), f(label)).  Yields (f, cands), where f is
    the tuple of dst vertex indices in src vertex order and cands[k] lists
    the indices of those dst arrows for src arrow k.

    Both graphs are read once through ``_index_form``, dst first, and the
    search sees vertex indices alone.  It backtracks over the src vertices
    in a greedy order fixed before the search.  The next vertex is the
    least by: minus the arrows it completes (all their other ends placed),
    minus the arrows it shares with a placed vertex, minus its touch count
    (the arrow ends at it), then its position in src.vertices.  An arrow
    is checked as soon as its last end is placed, so into a rack graph,
    where c = b |> a fixes one vertex from the two others, only the free
    vertices branch.  The order of the yields is not part of the
    contract."""
    dst_by_stl: dict[tuple[int, int, int], list[int]] = {}
    for j, triple in enumerate(_index_form(dst)[1]):
        dst_by_stl.setdefault(triple, []).append(j)
    arrows = _index_form(src)[1]
    n = len(src.vertices)
    touch = [0] * n
    completes = [0] * n
    shares = [0] * n
    ends = []  # the distinct vertex indices of each src arrow
    incident: list[list[int]] = [[] for _ in range(n)]  # arrows at each vertex, once each
    for k, triple in enumerate(arrows):
        e = set(triple)
        for j in triple:
            touch[j] += 1
        for j in e:
            incident[j].append(k)
            completes[j] += len(e) == 1
        ends.append(e)

    def key(i):
        return (-completes[i], -shares[i], -touch[i], i)

    order: list[int] = []
    arrows_ready: list[list[tuple[int, int, int, int]]] = []
    unplaced = set(range(n))
    while unplaced:
        i = min(unplaced, key=key)
        unplaced.remove(i)
        order.append(i)
        ready = []
        for k in incident[i]:
            open_ends = [j for j in ends[k] if j in unplaced]
            if not open_ends:
                ready.append((k, *arrows[k]))
            first_end = len(open_ends) == len(ends[k]) - 1
            for j in open_ends:
                shares[j] += first_end
                completes[j] += len(open_ends) == 1
        arrows_ready.append(ready)
    f = [0] * n  # read only at placed vertices
    cands: list[list[int] | None] = [None] * len(arrows)
    images = range(len(dst.vertices))
    # one iterator over the dst indices per depth, on an explicit stack, so
    # the depth is not bounded by the recursion limit
    stack = [iter(images)]
    while stack:
        i = len(stack) - 1
        if i == n:
            yield tuple(f), tuple(cands)
            stack.pop()
            continue
        w = next(stack[i], None)
        if w is None:
            stack.pop()
            continue
        f[order[i]] = w
        for k, s, t, l in arrows_ready[i]:
            found = dst_by_stl.get((f[s], f[t], f[l]))
            if not found:
                break
            cands[k] = found
        else:
            stack.append(iter(images))


def graph_homomorphisms(src: SelfIndexedGraph, dst: SelfIndexedGraph) -> list[GraphHomomorphism]:
    """All homomorphisms src -> dst, in sorted order: by their vertex
    images and then their arrow images."""
    names = dst.vertices
    named = ((tuple(names[w] for w in f), cands) for f, cands in _vertex_maps(src, dst))
    return sorted(GraphHomomorphism(images, am) for images, cands in named for am in product(*cands))


def colorings(g: SelfIndexedGraph, x: FiniteRack) -> list[dict[str, int]]:
    """All colorings of g by the rack x, as vertex -> element maps with
    their keys in vertex order, sorted by the tuple of element values."""
    # vertex j of the rack graph is element j, and its arrow images are
    # determined by the vertices, so every vertex map is a coloring
    found = sorted(f for f, _ in _vertex_maps(g, graph_of_rack(x)))
    return [dict(zip(g.vertices, f)) for f in found]


def coloring_count(g: SelfIndexedGraph, x: FiniteRack) -> int:
    return sum(1 for _ in _vertex_maps(g, graph_of_rack(x)))


# ---------------------------------------------------------------------------
# Chains, cochains, their constructors and the state sums
#
# A degree-n chain on G assigns integers to homomorphisms Y_n -> G; a
# degree-n cochain on G assigns A-elements to them.


class Chain(NamedTuple):
    degree: int
    coeffs: tuple[tuple[GraphHomomorphism, int], ...]

    @staticmethod
    def from_dict(degree: int, d: dict) -> "Chain":
        return Chain(degree, tuple(sorted((k, v) for k, v in d.items() if v)))


class Cochain(NamedTuple):
    degree: int
    values: dict  # GraphHomomorphism -> A element; missing keys read as identity


def _after(k: GraphHomomorphism, mid: SelfIndexedGraph):
    """The map h -> k after h on homomorphisms h into mid, with the vertex
    images of k looked up in one dict built once."""
    img = dict(zip(mid.vertices, k.vertex_images))
    arrows = k.arrow_map
    return lambda h: GraphHomomorphism(tuple(img[v] for v in h.vertex_images), tuple(arrows[j] for j in h.arrow_map))


def degree2_signature(g: SelfIndexedGraph, e: int) -> GraphHomomorphism:
    """The degree-2 basis homomorphism Y_2 -> g attached to arrow e:
    Y_2's single arrow maps to e, the lone y_1 vertex to the label, the
    y_2 origin to the source and the far y_2 vertex to the target."""
    a = g.arrows[e]
    cube = build_Yn(2)
    img = {(1,): a.label, (2,): a.source, (1, 2): a.target}
    return GraphHomomorphism(tuple(img[w] for w in cube.vertex_words), (e,))


def flow_to_cycle(c: Comte) -> Chain:
    """A flow is the same thing as a degree-2 chain assigning I(e) to the
    basis homomorphism of arrow e; it is a cycle exactly when the flow is
    conserved."""
    _index_form(c.graph)  # which rejects a dangling arrow or a repeated name
    coeffs = {}
    for e, f in enumerate(c.flows):
        if f:
            coeffs[degree2_signature(c.graph, e)] = f
    return Chain.from_dict(2, coeffs)


def cochain_from_cocycle2_on(x: FiniteRack, f: Cocycle2) -> Cochain:
    """Reshape a quandle 2-cocycle into a degree-2 cochain on the graph of
    the quandle: f(a, b) sits on the basis homomorphism of the arrow with
    label a and source b.  A table that is not x.n by x.n is a
    ``ValueError``."""
    if f.n != x.n or any(len(row) != x.n for row in f.values):
        raise ValueError(f"cocycle table is not {x.n} by {x.n}, the size of the rack")
    g = graph_of_rack(x)
    return Cochain(
        2, {degree2_signature(g, rack_arrow_index(x, a, b)): f.value(a, b) for a in range(x.n) for b in range(x.n)}
    )


def state_sum(
    gsrc: SelfIndexedGraph,
    chain: Chain,
    gtgt: SelfIndexedGraph,
    cochain: Cochain,
    group: AbelianGroup,
) -> dict:
    """Sum over homomorphisms sigma: gsrc -> gtgt of the integral of the
    chain against the pulled-back cochain, as an element of Z[A].

    For the cycle of a comte's flow, a quandle-graph target and the
    cochain of a quandle 2-cocycle, this is ``phi_invariant``.  The two
    degrees and every chain coefficient must be integers, the degrees
    non-negative, and every chain term must map into gsrc: a vertex image
    that is not a vertex of gsrc, or an arrow image out of range, is a
    ``ValueError`` that names the term.
    """
    _require_int(chain.degree, "chain degree", 0)
    _require_int(cochain.degree, "cochain degree", 0)
    vertices = set(gsrc.vertices)
    for h, coeff in chain.coeffs:
        _require_int(coeff, "chain coefficient")
        if not vertices.issuperset(h.vertex_images) or not all(0 <= j < len(gsrc.arrows) for j in h.arrow_map):
            raise ValueError(f"chain term {h} does not map into the source graph")
    if chain.degree != cochain.degree:
        raise ValueError(
            f"degree mismatch: chain has degree {chain.degree}, cochain {cochain.degree}"
        )
    result: dict = {}
    for sigma in graph_homomorphisms(gsrc, gtgt):
        total = group.identity
        after_sigma = _after(sigma, gsrc)
        for h, coeff in chain.coeffs:
            val = cochain.values.get(after_sigma(h))
            if val is not None:
                total = group.add(total, group.scale(val, coeff))
        result[total] = result.get(total, 0) + 1
    return result


def phi_invariant(c: Comte, x: FiniteRack, f: Cocycle2) -> dict:
    """The cocycle state sum over colorings, in the group ring Z[A]:
    each coloring C contributes the product over arrows b --a,I--> c of
    f(C(a), C(b))^I.  Requires a quandle; the augmentation of the result
    is the number of colorings.

    Any table f of the quandle's size is taken, cocycle or not, and the
    sum is computed all the same.  It is an invariant of the comte only
    when f is a 2-cocycle, so a caller with a table of unknown standing
    checks it first with ``check_cocycle``, as ``comtes statesum`` does.

    This is the degree-2 specialization of ``state_sum``: the colorings
    are the homomorphisms into the graph of x, and pairing the flow cycle
    with the pulled-back cochain of f gives each coloring its weight.
    """
    if not x.quandle:
        raise ValueError("phi_invariant requires a quandle")
    if f.n != x.n:
        raise ValueError("cocycle size does not match the quandle")
    return state_sum(c.graph, flow_to_cycle(c), graph_of_rack(x), cochain_from_cocycle2_on(x, f), f.group)
