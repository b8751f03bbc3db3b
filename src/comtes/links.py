"""Gauss and PD codes, and the comtes of classical and virtual link diagrams.

Gauss code grammar: a component is a sequence of tokens ("O"|"U") <int>
("+"|"-"); components are separated by "/".  O marks the overpass (chord
tail), U the underpass (chord head); both occurrences of a chord carry its
sign.

PD grammar: whitespace-separated crossings X[a,b,c,d] listing the edges
counterclockwise from the incoming under-edge (a in, c out; b and d are
the over-edge ends), plus optional "L" tokens for crossing-free unknot
components.  Edges are numbered 1..2n along each component.  Crossing
sign and over-direction are decoded from the numbering alone: with N the
total edge count, (b - d) % N == 1 means the over-strand runs d -> b and
the crossing is positive; (d - b) % N == 1 means it runs b -> d and the
crossing is negative; if neither holds (a component whose numbering wraps
at an over-passage), the smaller of b, d is taken as the over-exit, i.e.
positive iff b < d.

Both constructions produce one comte vertex per Wirtinger arc (the pieces
between consecutive underpasses) and, at each crossing, one arrow between
the two under-arcs at the head, labeled by the over arc, with flow equal
to the crossing sign; the arrow runs with the under-orientation at a
positive crossing and against it at a negative one.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .core import Comte, _UnionFind, _require_int, comte


class ChordEnd(NamedTuple):
    chord: int
    end: str  # "head" (underpass) or "tail" (overpass)
    sign: int


class GaussDiagram(NamedTuple):
    circles: tuple[tuple[ChordEnd, ...], ...]


class PDCrossing(NamedTuple):
    a: int  # incoming under-edge
    b: int
    c: int  # outgoing under-edge
    d: int


class PlanarDiagram(NamedTuple):
    crossings: tuple[PDCrossing, ...]
    free_loops: int = 0


class LinkCodeError(ValueError):
    pass


_GAUSS_TOKEN = re.compile(r"([OU])(\d+)([+-])")


def parse_gauss_code(text: str) -> GaussDiagram:
    """Parse a Gauss code; validates that every chord occurs exactly once as
    O and once as U, with one shared sign."""
    circles = []
    for comp_idx, comp in enumerate(text.split("/")):
        comp = comp.strip()
        if not comp:
            raise LinkCodeError(f"empty component at position {comp_idx}")
        ends = []
        pos = 0
        for m in _GAUSS_TOKEN.finditer(comp):
            if m.start() != pos:
                raise LinkCodeError(f"bad token at {comp[pos:]!r}")
            kind, num, sgn = m.groups()
            ends.append(
                ChordEnd(int(num), "tail" if kind == "O" else "head", 1 if sgn == "+" else -1)
            )
            pos = m.end()
        if pos != len(comp):
            raise LinkCodeError(f"bad token at {comp[pos:]!r}")
        circles.append(tuple(ends))
    seen: dict[int, ChordEnd] = {}
    done = set()
    for circle in circles:
        for e in circle:
            if e.chord in done:
                raise LinkCodeError(f"chord {e.chord} occurs more than twice")
            if e.chord in seen:
                first = seen[e.chord]
                if first.end == e.end:
                    raise LinkCodeError(f"chord {e.chord} has two {e.end} endpoints")
                if first.sign != e.sign:
                    raise LinkCodeError(f"sign mismatch on chord {e.chord}")
                done.add(e.chord)
            else:
                seen[e.chord] = e
    unmatched = set(seen) - done
    if unmatched:
        raise LinkCodeError(f"unmatched chord id {min(unmatched)}")
    return GaussDiagram(tuple(circles))


def _arc_names():
    k = 0
    while True:
        name = ""
        v = k
        while True:
            name = chr(ord("a") + v % 26) + name
            v = v // 26 - 1
            if v < 0:
                break
        yield name
        k += 1


def comte_of_gauss(d: GaussDiagram) -> Comte:
    """Cut the circles at the arrowheads; arcs become vertices and every
    chord becomes an arrow between the under-arcs at its head, labeled by
    its tail's arc, with flow the chord sign (direction reversed at
    negative chords).  Circles without heads become isolated vertices."""
    names = _arc_names()
    vertices: list[str] = []
    head_in: dict[int, str] = {}
    head_out: dict[int, str] = {}
    tail_arc: dict[int, str] = {}
    signs: dict[int, int] = {}
    for circle in d.circles:
        arcs = [next(names) for _ in range(max(1, sum(e.end == "head" for e in circle)))]
        vertices.extend(arcs)
        # arcs[j] starts at the last head passed; before the first head the
        # circle is still on the arc that ends there, arcs[-1]
        j = -1
        for e in circle:
            if e.end == "head":
                j += 1
                head_in[e.chord], head_out[e.chord] = arcs[j - 1], arcs[j]
            else:
                tail_arc[e.chord] = arcs[j]
            signs[e.chord] = e.sign
    arrows = []
    for chord in sorted(head_in):
        b_in, c_out, lab = head_in[chord], head_out[chord], tail_arc[chord]
        arrows.append((b_in, c_out, lab, 1) if signs[chord] > 0 else (c_out, b_in, lab, -1))
    return comte(vertices, arrows)


def swap_arrowtails(d: GaussDiagram, circle: int, position: int) -> GaussDiagram:
    """Exchange two adjacent tail endpoints (positions ``position`` and
    ``position + 1`` cyclically on the given circle).  The comte of the
    result coincides with the comte of the input."""
    if not 0 <= _require_int(circle, "circle") < len(d.circles):
        raise LinkCodeError(f"no circle {circle}")
    circ = d.circles[circle]
    if not circ:
        raise LinkCodeError("empty circle")
    i = _require_int(position, "position") % len(circ)
    j = (position + 1) % len(circ)
    if circ[i].end != "tail" or circ[j].end != "tail":
        raise LinkCodeError(
            f"positions {i} and {j} on circle {circle} are not two adjacent tails"
        )
    new = list(circ)
    new[i], new[j] = new[j], new[i]
    circles = list(d.circles)
    circles[circle] = tuple(new)
    return GaussDiagram(tuple(circles))


# ---------------------------------------------------------------------------
# PD codes

_PD_TOKEN = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]$")


def parse_pd_code(text: str) -> PlanarDiagram:
    crossings = []
    loops = 0
    for tok in text.split():
        if tok == "L":
            loops += 1
            continue
        m = _PD_TOKEN.match(tok)
        if not m:
            raise LinkCodeError(f"ill-formed PD tuple {tok!r}")
        crossings.append(PDCrossing(*(int(v) for v in m.groups())))
    d = PlanarDiagram(tuple(crossings), loops)
    _check_pd(d)
    return d


def _check_pd(d: PlanarDiagram):
    n = len(d.crossings)
    if n == 0:
        return
    counts: dict[int, int] = {}
    for x in d.crossings:
        for e in (x.a, x.b, x.c, x.d):
            counts[e] = counts.get(e, 0) + 1
    expected = set(range(1, 2 * n + 1))
    if set(counts) != expected or any(v != 2 for v in counts.values()):
        raise LinkCodeError(
            "ill-formed PD tuple: edges must be 1..2n, each appearing twice"
        )


def _pd_sign(x: PDCrossing, n_edges: int) -> int:
    """+1 when the over-strand runs d -> b, -1 when it runs b -> d."""
    if (x.b - x.d) % n_edges == 1:
        return 1
    if (x.d - x.b) % n_edges == 1:
        return -1
    return 1 if x.b < x.d else -1


def comte_of_diagram(d: PlanarDiagram) -> Comte:
    """Comte of a planar diagram: Wirtinger arcs (edges glued along
    over-passages) are the vertices, crossings give the arrows.  Arc names
    a, b, c, ... are assigned by smallest member edge."""
    n_edges = 2 * len(d.crossings)
    uf = _UnionFind(range(1, n_edges + 1))
    for x in d.crossings:
        uf.union(x.b, x.d)
    classes = uf.classes()
    names = _arc_names()
    vertices = [next(names) for _ in classes]
    arc_name = {e: v for v, members in zip(vertices, classes) for e in members}
    arrows = []
    for x in d.crossings:
        s = _pd_sign(x, n_edges)
        a, c, over = arc_name[x.a], arc_name[x.c], arc_name[x.b]
        arrows.append((a, c, over, s) if s > 0 else (c, a, over, s))
    vertices += [next(names) for _ in range(d.free_loops)]
    return comte(vertices, arrows)


# ---------------------------------------------------------------------------
# Bundled diagram corpus


class LinkCode(NamedTuple):
    name: str
    gauss: str
    pd: str


CORPUS = (
    LinkCode("trefoil_right", "O1+U2+O3+U1+O2+U3+", "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"),
    LinkCode("trefoil_left", "O1-U2-O3-U1-O2-U3-", "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"),
    LinkCode(
        "figure_eight",
        "U4-O2+U3+O4-U1-O3+U2+O1-",
        "X[4,7,5,8] X[8,3,1,4] X[2,6,3,5] X[6,2,7,1]",
    ),
    LinkCode("hopf_negative", "U1-O2-/O1-U2-", "X[2,3,1,4] X[4,1,3,2]"),
    LinkCode(
        "three_components",
        "O4+U1-O3-U2+/O5-U4+O6+U3-/O1-U6+O2+U5-",
        "X[2,9,3,10] X[4,12,1,11] X[8,3,5,4] X[6,2,7,1] X[12,5,9,6] X[10,8,11,7]",
    ),
)


# Pairs of Gauss codes related by a single oriented Reidemeister move: the
# comtes should be related by short move traces (first move: R1; second:
# R2 + R0; third: R3 + R0).
REIDEMEISTER_PAIRS = (
    ("r1", "O1+U2+O3+U1+O2+U3+O4+U4+", "O1+U2+O3+U1+O2+U3+"),
    ("r2", "O1+O4+O5-U2+O3+U1+U4+U5-O2+U3+", "O1+U2+O3+U1+O2+U3+"),
    ("r3", "O1+O2+U2+U3+/U1+O3+", "O2+O3+U1+U2+/O1+U3+"),
)
