"""Group and quandle presentations, abelianization, linking numbers.

Word problems in the presented group/quandle are not decided here; the
presentations are exported as data and compared through computable proxies
(abelianization rank, finite colorings).
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Comte, SelfIndexedGraph, _index_form, component_index, components
from .linalg import smith_normal_form


class GroupPresentation(NamedTuple):
    generators: tuple[str, ...]
    # one relation per arrow b --a--> c, as the word pair (a*b, c*a)
    relations: tuple[tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]], ...]

    def format(self) -> str:
        def word(w):
            return "*".join(g if e == 1 else f"{g}^{e}" for g, e in w)

        lines = ["gens: " + " ".join(self.generators)]
        lines += [f"{word(l)} = {word(r)}" for l, r in self.relations]
        return "\n".join(lines) + "\n"


class QuandlePresentation(NamedTuple):
    generators: tuple[str, ...]
    # one relation per arrow b --a--> c: a |> b = c
    relations: tuple[tuple[tuple[str, str], str], ...]

    def format(self) -> str:
        lines = ["gens: " + " ".join(self.generators)]
        lines += [f"{a} |> {b} = {c}" for (a, b), c in self.relations]
        return "\n".join(lines) + "\n"


def group_presentation(g: SelfIndexedGraph) -> GroupPresentation:
    """Generators are the vertices; each arrow b --a--> c imposes a*b = c*a."""
    rels = tuple((((l, 1), (s, 1)), ((t, 1), (l, 1))) for s, t, l in g.arrows)
    return GroupPresentation(g.vertices, rels)


def quandle_presentation(g: SelfIndexedGraph) -> QuandlePresentation:
    """Free quandle on the vertices modulo a |> b = c per arrow b --a--> c."""
    rels = tuple(((l, s), t) for s, t, l in g.arrows)
    return QuandlePresentation(g.vertices, rels)


def abelianization_rank(g: SelfIndexedGraph) -> int:
    """Rank of the abelianized group: the relation a*b = c*a abelianizes to
    b = c, so the rank equals the number of components.  Computed honestly
    by integer reduction of the relation matrix, not by counting components.
    """
    rows = [{s: 1, t: -1} for s, t, _ in _index_form(g)[1] if s != t]
    return len(g.vertices) - smith_normal_form(rows).rank


class LinkingMatrix(NamedTuple):
    components: tuple[tuple[str, ...], ...]
    entries: dict[tuple[int, int], int]  # (i, j) -> lk_ij for i != j, 0-based

    @property
    def size(self) -> int:
        return len(self.components)

    def format(self) -> str:
        if self.size < 2:
            return "(no off-diagonal pairs)\n"
        lines = []
        for i in range(self.size):
            for j in range(self.size):
                if i != j:
                    lines.append(f"lk[{i + 1}][{j + 1}] = {self.entries[(i, j)]}")
        return "\n".join(lines) + "\n"


def linking_matrix(c: Comte) -> LinkingMatrix:
    """lk_ij = sum of flows of arrows with source in component j and label in
    component i, for i != j.  Components are ordered by their earliest
    vertex, which makes the matrix reproducible; it need not be symmetric.
    """
    comps = components(c.graph)
    cidx = component_index(c.graph)
    entries = {
        (i, j): 0 for i in range(len(comps)) for j in range(len(comps)) if i != j
    }
    for (s, _, l), f in zip(c.graph.arrows, c.flows):
        i, j = cidx[l], cidx[s]
        if i != j:
            entries[(i, j)] += f
    return LinkingMatrix(comps, entries)
