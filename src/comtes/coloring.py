"""Colorings, graph homomorphisms, and the cocycle state sums.

A coloring of a self-indexed graph by a quandle X sends vertices to
elements so that C(label) |> C(source) = C(target) at every arrow; it is
the same thing as a graph homomorphism into the self-indexed graph of X.
The state sums below weight colorings (or general homomorphisms) by
cocycle values and flows (or chain coefficients) in the group ring Z[A].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import Comte, GraphHomomorphism, SelfIndexedGraph
from .racks import AbelianGroup, Cocycle2, FiniteRack, graph_of_rack, ring_add


def _vertex_maps(src: SelfIndexedGraph, dst: SelfIndexedGraph):
    """All vertex maps f with: every src arrow has at least one dst arrow
    over (f(source), f(label), f(target)).  Yields (f, cands), where
    cands[k] lists the indices of those dst arrows for src arrow k.
    Backtracks most-constrained vertices first; no particular order."""
    sv = list(src.vertices)
    dst_by_slt: dict[tuple[str, str, str], list[int]] = {}
    for j, b in enumerate(dst.arrows):
        dst_by_slt.setdefault((b.source, b.label, b.target), []).append(j)
    touch = {v: 0 for v in sv}
    for a in src.arrows:
        for v in (a.source, a.target, a.label):
            touch[v] += 1
    order = sorted(sv, key=lambda v: (-touch[v], sv.index(v)))
    pos = {v: i for i, v in enumerate(order)}
    arrows_ready = [[] for _ in sv]
    for k, a in enumerate(src.arrows):
        stage = max(pos[a.source], pos[a.target], pos[a.label])
        arrows_ready[stage].append((k, a.source, a.label, a.target))
    assignment: dict[str, str] = {}
    cands: list[list[int] | None] = [None] * len(src.arrows)

    def rec(i):
        if i == len(order):
            yield dict(assignment), tuple(cands)
            return
        v = order[i]
        for w in dst.vertices:
            assignment[v] = w
            for k, s, l, t in arrows_ready[i]:
                found = dst_by_slt.get((assignment[s], assignment[l], assignment[t]))
                if not found:
                    break
                cands[k] = found
            else:
                yield from rec(i + 1)
        assignment.pop(v, None)

    yield from rec(0)


def graph_homomorphisms(src: SelfIndexedGraph, dst: SelfIndexedGraph) -> list[GraphHomomorphism]:
    """All homomorphisms src -> dst, in sorted order: by their vertex
    images and then their arrow images."""
    return sorted(
        GraphHomomorphism(tuple(vm[v] for v in src.vertices), am)
        for vm, cands in _vertex_maps(src, dst)
        for am in product(*cands)
    )


def colorings(g: SelfIndexedGraph, x: FiniteRack) -> list[dict[str, int]]:
    """All colorings of g by the rack x, as vertex -> element maps, sorted
    by the tuple of element values in vertex order."""
    target = graph_of_rack(x)
    out = []
    for vm, _ in _vertex_maps(g, target):
        # in a rack graph the arrow images are determined by the vertices,
        # so every surviving vertex map is a coloring
        out.append({v: int(w) for v, w in vm.items()})
    out.sort(key=lambda c: tuple(c[v] for v in g.vertices))
    return out


def coloring_count(g: SelfIndexedGraph, x: FiniteRack) -> int:
    return len(colorings(g, x))


def phi_invariant(c: Comte, x: FiniteRack, f: Cocycle2) -> dict:
    """The cocycle state sum over colorings, in the group ring Z[A]:
    each coloring C contributes the product over arrows b --a,I--> c of
    f(C(a), C(b))^I.  Requires a quandle and a 2-cocycle on it; the
    augmentation of the result is the number of colorings.
    """
    if not x.quandle:
        raise ValueError("phi_invariant requires a quandle")
    if f.n != x.n:
        raise ValueError("cocycle size does not match the quandle")
    group = f.group
    result: dict = {}
    for col in colorings(c.graph, x):
        total = group.identity
        for a, flow in zip(c.graph.arrows, c.flows):
            total = group.add(total, group.scale(f.value(col[a.label], col[a.source]), flow))
        result = ring_add(result, {total: 1})
    return result


# ---------------------------------------------------------------------------
# Chains, cochains and the general state sum
#
# A degree-n chain on G assigns integers to homomorphisms Y_n -> G; a
# degree-n cochain on G assigns A-elements to them.


@dataclass(frozen=True)
class Chain:
    degree: int
    coeffs: tuple[tuple[GraphHomomorphism, int], ...]

    @staticmethod
    def from_dict(degree: int, d: dict) -> "Chain":
        return Chain(degree, tuple(sorted((k, v) for k, v in d.items() if v)))

    def as_dict(self) -> dict:
        return dict(self.coeffs)


@dataclass(frozen=True)
class Cochain:
    degree: int
    values: dict  # GraphHomomorphism -> A element; missing keys read as identity


def compose(h: GraphHomomorphism, k: GraphHomomorphism, mid: SelfIndexedGraph) -> GraphHomomorphism:
    """k after h, for h into mid and k out of mid."""
    img = dict(zip(mid.vertices, k.vertex_images))
    return GraphHomomorphism(
        tuple(img[v] for v in h.vertex_images), tuple(k.arrow_map[j] for j in h.arrow_map)
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

    For a degree-2 chain coming from a comte's flow, a quandle-graph target
    and a quandle 2-cocycle, this equals ``phi_invariant``.
    """
    if chain.degree != cochain.degree:
        raise ValueError(
            f"degree mismatch: chain has degree {chain.degree}, cochain {cochain.degree}"
        )
    result: dict = {}
    for sigma in graph_homomorphisms(gsrc, gtgt):
        total = group.identity
        for h, coeff in chain.coeffs:
            val = cochain.values.get(compose(h, sigma, gsrc))
            if val is not None:
                total = group.add(total, group.scale(val, coeff))
        result = ring_add(result, {total: 1})
    return result
