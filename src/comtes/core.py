"""Self-indexed graphs and comtes: data model, validation, canonical forms.

A self-indexed graph is a finite directed multigraph whose arrows carry a
third incidence, the *label*, which is again a vertex.  A comte is a
self-indexed graph together with an integer flow on each arrow that is
conserved at every vertex (outgoing flow sum equals incoming flow sum; a
loop contributes the same amount to both sides).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple


class Arrow(NamedTuple):
    source: str
    target: str
    label: str


@dataclass(frozen=True, slots=True)
class SelfIndexedGraph:
    """Vertex names and the arrows among them."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    # the bare-graph canonical key, set only on a canonical graph that
    # ``_shared_graph`` builds, so that ``canonical_key`` need not label it
    # again; not compared, hashed or shown, and not a constructor argument
    _key: bytes | None = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Comte:
    """A graph with one integer flow per arrow; ``validate`` checks conservation."""

    graph: SelfIndexedGraph
    flows: tuple[int, ...]

    def __post_init__(self):
        if len(self.flows) != len(self.graph.arrows):
            raise ValueError("flow list length does not match arrow count")
        for i, f in enumerate(self.flows):
            _require_int(f, f"arrows[{i}].flow")

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        return self.graph.arrows


def _require_int(value, what: str, low: int | None = None) -> int:
    """``value`` itself, once it is an ``int`` and not a ``bool`` (else a
    ``TypeError``) and, when ``low`` is 0 or 1, at least ``low`` (else a
    ``ValueError``).  ``what`` names the argument in the message."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be {'positive' if low else 'non-negative'}, got {value}")
    return value


def _require_hashable(values, what: str) -> None:
    """A ``TypeError`` naming ``what[i]`` for the first entry of ``values`` that does not hash."""
    for i, v in enumerate(values):
        try:
            hash(v)
        except TypeError:
            raise TypeError(f"{what}[{i}] must be hashable, got {v!r}") from None


def _iterate(values, what: str, kind: str):
    """``iter(values)``, or a ``TypeError`` saying that ``what`` must be ``kind``."""
    try:
        return iter(values)
    except TypeError:
        raise TypeError(f"{what} must be {kind}, got {values!r}") from None


def _vertex_names(vertices) -> tuple[str, ...]:
    names = tuple(_iterate(vertices.split() if isinstance(vertices, str) else vertices, "vertices", "a string or an iterable of names"))
    _require_hashable(names, "vertices")
    if len(set(names)) != len(names):
        raise ValueError("'vertices' contains a duplicate")
    return names


def _arrow_rows(arrows, fields: tuple[str, ...]) -> list[tuple]:
    """``arrows`` read once as tuples of the ``fields``, (source, target,
    label) and for a comte the flow.  A row of another length is a
    ``ValueError``; ``arrows`` or a row that are not iterable, or an unhashable
    end, a ``TypeError`` naming them; an end that is not a vertex is left to ``validate``."""
    rows, shape = [], f"a ({', '.join(fields)}) tuple"
    for i, arrow in enumerate(_iterate(arrows, "arrows", "an iterable of arrows")):
        row = tuple(_iterate(arrow, f"arrows[{i}]", shape))
        if len(row) != len(fields):
            raise ValueError(f"arrows[{i}] must be {shape}, got {arrow!r}")
        for field_name, end in zip(fields[:3], row):
            try:
                hash(end)
            except TypeError:
                raise TypeError(f"arrows[{i}].{field_name} must be hashable, got {end!r}") from None
        rows.append(row)
    return rows


def graph(vertices, arrows=()) -> SelfIndexedGraph:
    """Build a graph from vertex names and (source, target, label) triples.

    ``vertices`` may be an iterable of names or a whitespace-separated
    string; a repeated name is a ``ValueError``.
    """
    vertices = _vertex_names(vertices)
    return SelfIndexedGraph(vertices, tuple(map(Arrow._make, _arrow_rows(arrows, Arrow._fields))))


def comte(vertices, arrows=()) -> Comte:
    """Build a comte from vertex names, as ``graph`` takes them, and
    (source, target, label, flow) tuples."""
    vertices = _vertex_names(vertices)
    rows = _arrow_rows(arrows, (*Arrow._fields, "flow"))
    return Comte(SelfIndexedGraph(vertices, tuple([Arrow._make(r[:3]) for r in rows])), tuple([r[3] for r in rows]))


def graph_from_injections(maps) -> SelfIndexedGraph:
    """Build the r-graph with an arrow b --label--> maps[label][b] for every
    defined value (-1 marks an undefined one).  Vertices are 0..n-1 as
    strings; arrows ordered by (label, source).

    ``maps`` is a square table: n lists or tuples of n ``int`` values
    (not ``bool``) in -1..n-1, with the defined values of each row
    distinct.  A row of another type or a value that is not such an
    ``int`` is a ``TypeError``; a row of another length or a value out of
    range or repeated a ``ValueError``.  The message names the label and,
    for a value, the source."""
    n = len(maps)
    triples = []
    for lab, row in enumerate(maps):
        if not isinstance(row, (list, tuple)):
            raise TypeError(f"label {lab}: row must be a list or tuple of targets, got {row!r}")
        if len(row) != n:
            raise ValueError(f"label {lab}: row has length {len(row)}, not {n}")
        seen = set()
        for src, tgt in enumerate(row):
            if type(tgt) is not int:
                _require_int(tgt, f"label {lab}, source {src}: target")
            if tgt != -1:
                if not 0 <= tgt < n or tgt in seen:
                    what = "is repeated" if tgt in seen else f"is outside -1..{n - 1}"
                    raise ValueError(f"label {lab}, source {src}: target {tgt} {what}")
                seen.add(tgt)
                triples.append((src, tgt, lab))
    return _shared_graph(n, triples, {})


def as_comte(obj: Comte | SelfIndexedGraph) -> Comte:
    """View a bare graph as a comte with zero flows; comtes pass through."""
    if isinstance(obj, Comte):
        return obj
    return Comte(obj, (0,) * len(obj.arrows))


# ---------------------------------------------------------------------------
# Validation


class ValidationReport(NamedTuple):
    dangling: tuple[tuple[int, str, str], ...]      # (arrow index, field, offending name)
    conservation: tuple[tuple[str, int, int], ...]  # (vertex, outgoing sum, incoming sum)
    duplicate: bool = False  # a vertex name occurs twice

    @property
    def ok(self) -> bool:
        return not self.dangling and not self.conservation and not self.duplicate

    def describe(self) -> str:
        if self.ok:
            return "valid"
        lines = ["'vertices' contains a duplicate"] if self.duplicate else []
        for i, fld, name in self.dangling:
            lines.append(f"arrow {i}: {fld} {name!r} is not a vertex")
        for v, out, inc in self.conservation:
            lines.append(f"vertex {v!r}: outgoing {out} != incoming {inc}")
        return "\n".join(lines)


def validate_graph(g: SelfIndexedGraph) -> ValidationReport:
    """Report a repeated vertex name and the dangling arrow references
    (structure only, no flows)."""
    vs = set(g.vertices)
    dangling = []
    for i, a in enumerate(g.arrows):
        for fld, name in zip(Arrow._fields, a):
            if name not in vs:
                dangling.append((i, fld, name))
    return ValidationReport(tuple(dangling), (), duplicate=len(vs) != len(g.vertices))


def validate(c: Comte) -> ValidationReport:
    """Report a repeated vertex name, every dangling arrow reference and
    every conservation violation (once per name).

    An empty report means the comte is valid.  A loop adds its flow to both
    sides of the balance at its vertex, so it never violates conservation.
    """
    base = validate_graph(c.graph)
    out: dict[str, int] = {v: 0 for v in c.graph.vertices}
    inc: dict[str, int] = {v: 0 for v in c.graph.vertices}
    for (s, t, _), f in zip(c.graph.arrows, c.flows):
        if s in out:
            out[s] += f
        if t in inc:
            inc[t] += f
    bad = tuple((v, out[v], inc[v]) for v in out if out[v] != inc[v])
    return base._replace(conservation=bad)


# ---------------------------------------------------------------------------
# Classification and components

GENERAL = "general"
R_GRAPH = "r"
Q_GRAPH = "q"


def classify(g: SelfIndexedGraph) -> str:
    """Classify as ``general``, ``r`` or ``q``.

    In an r-graph no two distinct arrows share (source, label) and no two
    share (target, label).  A q-graph additionally carries, at every vertex
    a, a loop a -> a labeled a.
    """
    by_sl, by_tl = set(), set()
    for s, t, l in g.arrows:
        if (s, l) in by_sl or (t, l) in by_tl:
            return GENERAL
        by_sl.add((s, l))
        by_tl.add((t, l))
    self_loops = {s for s, t, l in g.arrows if s == t == l}
    return Q_GRAPH if self_loops.issuperset(g.vertices) else R_GRAPH


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y) -> bool:
        """Merge the classes of x and y; True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx
        return rx != ry

    def classes(self) -> list[list]:
        """The classes, each listing its members in item order, ordered by
        their first member."""
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def components(g: SelfIndexedGraph) -> tuple[tuple[str, ...], ...]:
    """Partition of the vertices generated by source ~ target per arrow.

    Labels do not merge classes.  Components are ordered by the position of
    their earliest vertex in the graph's vertex order; each class lists its
    members in vertex order.
    """
    names = g.vertices
    uf = _UnionFind(names)
    for s, t, _ in _index_form(g)[1]:
        uf.union(names[s], names[t])
    return tuple(tuple(c) for c in uf.classes())


def component_index(g: SelfIndexedGraph) -> dict[str, int]:
    """Map each vertex to the index of its component in ``components(g)``."""
    out = {}
    for i, comp in enumerate(components(g)):
        for v in comp:
            out[v] = i
    return out


# ---------------------------------------------------------------------------
# Quotients and contraction


def quotient(g: SelfIndexedGraph, pairs) -> tuple[SelfIndexedGraph, dict[str, str]]:
    """Identify vertices pairwise (transitively); return graph and vertex map.

    The representative of each class is its earliest member in vertex order.
    Arrow order is preserved; labels are rewritten through the map.
    """
    arrs = _index_form(g)[1]
    uf = _UnionFind(g.vertices)
    try:
        for i, pair in enumerate(_iterate(pairs, "pairs", "an iterable of vertex pairs")):
            ends = tuple(_iterate(pair, f"pairs[{i}]", "a pair of vertices"))
            if isinstance(pair, str) or len(ends) != 2:
                raise ValueError(f"{pair!r} is not a pair of vertices")
            _require_hashable(ends, f"pairs[{i}]")
            uf.union(*ends)
    except KeyError as e:
        raise ValueError(f"{e.args[0]!r} is not a vertex") from e
    vmap = {v: group[0] for group in uf.classes() for v in group}
    rep = [vmap[v] for v in g.vertices]
    new_arrows = tuple(Arrow(rep[s], rep[t], rep[l]) for s, t, l in arrs)
    new_vertices = tuple(v for v in g.vertices if vmap[v] == v)
    return SelfIndexedGraph(new_vertices, new_arrows), vmap


def contract(g: SelfIndexedGraph, T) -> SelfIndexedGraph:
    """Contract the arrows with indices in ``T``: identify each one's source
    and target and delete the arrow.  Contracting a loop deletes it without
    merging anything.  The result does not depend on the contraction order.
    """
    T = {_require_int(i, f"T[{k}]") for k, i in enumerate(_iterate(T, "T", "an iterable of arrow indices"))}
    for i in T:
        if not 0 <= i < len(g.arrows):
            raise IndexError(f"arrow index {i} out of range")
    q, _ = quotient(g, [(g.arrows[i].source, g.arrows[i].target) for i in T])
    return SelfIndexedGraph(q.vertices, tuple(a for i, a in enumerate(q.arrows) if i not in T))


# ---------------------------------------------------------------------------
# Canonical forms
#
# The canonical form of a graph (or comte) minimizes, over vertex bijections
# onto 0..n-1, the sorted list of arrow tuples (source, target, label[, flow]).
# Only the bijections at the leaves of an individualization-refinement tree
# are tried: colour refinement splits the vertices by an isomorphism-invariant
# ordered partition; while a cell has several vertices, each of them in turn
# is given its own colour ahead of the rest of the cell and the colouring is
# refined again.  A vertex is skipped when swapping it with one already tried
# in that cell fixes the arrow multiset, as the two subtrees then agree.
# Refinement stops as soon as every vertex has its own colour, since a
# discrete colouring cannot split further.
#
# Canonicalization has two steps.  The labeling step (``canonical_labeling``)
# runs the tree search (``_canonical_leaf``) for the best leaf's arrows and
# bijection, and ``_key_bytes`` alone writes the byte key from those arrows;
# the build step turns that labeling into named vertices, arrows, flows and
# the maps from the input.  ``canonical_key`` runs the first step only,
# ``canonical_form`` both.  The move search runs the tree search alone: a
# state's vertex count and canonical arrows stand one-to-one for its key, so
# it writes byte keys only for its two ends and the steps of a found trace.
# The census labels the index triples of its injections and builds only the
# canonical graph, holding its key.


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical comte or graph, its key and the maps from the input."""

    key: bytes
    vertex_map: dict[str, str] = field(compare=False)
    arrow_perm: tuple[int, ...] = field(compare=False)  # old index -> new index
    graph: SelfIndexedGraph = field(compare=False)
    flows: tuple[int, ...] | None = field(compare=False, default=None)

    @property
    def comte(self) -> Comte:
        if self.flows is None:
            raise ValueError("canonical form was computed without flows")
        return Comte(self.graph, self.flows)


class CanonicalLabeling(NamedTuple):
    """The outcome of the labeling step, in vertex and arrow indices."""

    key: bytes
    vertex_ranks: list[int]           # input vertex index -> canonical index
    arrow_order: tuple[int, ...]      # canonical arrow index -> input index
    arrows: tuple[tuple[int, int, int, int], ...]  # canonical (source, target, label, flow)

    def arrow_perm(self) -> list[int]:
        """Input arrow index -> canonical index."""
        perm = [0] * len(self.arrow_order)
        for new_i, old_i in enumerate(self.arrow_order):
            perm[old_i] = new_i
        return perm


def _refine_colors(n, arrs, colors):
    """Iterated refinement of an ordered colouring; returns colour ranks per
    vertex.  A vertex's new colour sorts first by its old one, so the new ranks
    keep the old order.  A discrete colouring is returned as its ranks.

    Each arrow gives each of its ends one entry (role, cs, ct, cl, f): the
    role has bit 4 when the vertex is the source, 2 the target, 1 the label,
    and cs, ct, cl are the colours of the three ends."""
    ncolors = len(set(colors))
    if ncolors == n:
        rank = {c: i for i, c in enumerate(sorted(colors))}
        return [rank[c] for c in colors]
    while True:
        local = [[] for _ in range(n)]
        for s, t, l, f in arrs:
            cs, ct, cl = colors[s], colors[t], colors[l]
            if s == t:
                if s == l:
                    local[s].append((7, cs, ct, cl, f))
                else:
                    local[s].append((6, cs, ct, cl, f))
                    local[l].append((1, cs, ct, cl, f))
            elif s == l:
                local[s].append((5, cs, ct, cl, f))
                local[t].append((2, cs, ct, cl, f))
            elif t == l:
                local[s].append((4, cs, ct, cl, f))
                local[t].append((3, cs, ct, cl, f))
            else:
                local[s].append((4, cs, ct, cl, f))
                local[t].append((2, cs, ct, cl, f))
                local[l].append((1, cs, ct, cl, f))
        sigs = [(colors[v], *sorted(loc)) for v, loc in enumerate(local)]
        order = sorted(set(sigs))
        rank = {sig: i for i, sig in enumerate(order)}
        new = [rank[sig] for sig in sigs]
        if len(order) == ncolors or len(order) == n:
            return new
        colors, ncolors = new, len(order)


def _twins(arrs, u, v):
    """True if swapping vertices u and v maps the arrow multiset to itself."""
    swap = {u: v, v: u}
    near = [a for a in arrs if a[0] in swap or a[1] in swap or a[2] in swap]
    return sorted(near) == sorted((swap.get(s, s), swap.get(t, t), swap.get(l, l), f) for s, t, l, f in near)


def _index_form(g: SelfIndexedGraph) -> tuple[dict[str, int], tuple[tuple[int, int, int], ...]]:
    """The vertex index of ``g`` and its arrows as (source, target, label)
    index triples.  This is the one place that turns names into indices
    and checks them: a repeated vertex name or an arrow to a missing
    vertex is a ``ValueError`` worded by ``validate_graph``."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    if len(idx) == len(g.vertices):
        try:
            return idx, tuple([(idx[s], idx[t], idx[l]) for s, t, l in g.arrows])
        except KeyError:
            pass
    raise ValueError(validate_graph(g).describe())


def canonical_labeling(obj: Comte | SelfIndexedGraph) -> CanonicalLabeling:
    """The labeling step of canonicalization: the key and the bijection
    that yields it, without building any named object.  Flows count for a
    comte and are read as 0 for a bare graph."""
    if isinstance(obj, Comte):
        g, flows, tag = obj.graph, obj.flows, b"c"
    else:
        g, flows, tag = obj, (0,) * len(obj.arrows), b"g"
    leaf = _canonical_leaf(len(g.vertices), _index_form(g)[1], flows)
    return CanonicalLabeling(_key_bytes(tag, (len(g.vertices), leaf[-1])), *leaf)


def _canonical_leaf(n: int, triples, flows):
    """The tree search of ``canonical_labeling`` on vertices 0..n-1, the index ``triples``
    and their ``flows``: the best leaf's vertex ranks, arrow order and canonical arrows."""
    arrs = [(s, t, l, f) for (s, t, l), f in zip(triples, flows, strict=True)]
    best = best_assign = None
    stack = [[0] * n]
    while stack:
        colors = _refine_colors(n, arrs, stack.pop())
        sizes = [0] * n
        for c in colors:
            sizes[c] += 1
        cell = next((c for c in range(n) if sizes[c] > 1), None)
        if cell is None:
            # a stable sort, so equal arrows keep their input order
            enc = [(colors[s], colors[t], colors[l], f) for s, t, l, f in arrs]
            order = sorted(range(len(arrs)), key=enc.__getitem__)
            enc_key = tuple([enc[i] for i in order])
            if best is None or enc_key < best:
                best, best_assign = enc_key, (colors, tuple(order))
            continue
        tried = []
        for v in range(n):
            if colors[v] == cell and not any(_twins(arrs, u, v) for u in tried):
                tried.append(v)
                stack.append([2 * c + (c == cell and u != v) for u, c in enumerate(colors)])
    return *best_assign, best


def _key_bytes(tag: bytes, state) -> bytes:
    """The byte key of ``state``, (vertex count, canonical arrows), after ``tag``: b"c" comte, b"g" graph."""
    return tag + repr(state).encode()


def _shared_graph(n: int, triples, shared: dict, key: bytes | None = None) -> SelfIndexedGraph:
    """The graph on vertices "0".."n-1" with one arrow per (source, target,
    label) index triple, in order, holding ``key`` as its canonical key.
    Graphs built with one ``shared`` dict share their equal parts: the dict
    keeps the names tuple under the vertex count and one ``Arrow`` per triple."""
    names = shared.get(n)
    if names is None:
        names = shared[n] = tuple(str(i) for i in range(n))
    arrows = []
    for st in triples:
        a = shared.get(st)
        if a is None:
            s, t, l = st
            a = shared[st] = Arrow(names[s], names[t], names[l])
        arrows.append(a)
    g = SelfIndexedGraph(names, tuple(arrows))
    object.__setattr__(g, "_key", key)
    return g


def canonical_form(obj: Comte | SelfIndexedGraph) -> CanonicalForm:
    """Canonical form of a graph or comte, exact under isomorphism: the
    labeling step, then the build step.

    Isomorphisms of comtes preserve flows; pass ``c.graph`` to canonicalize
    the underlying graph alone.  The canonical graph of a bare graph holds
    its key, which ``canonical_key`` then returns.
    """
    lab = canonical_labeling(obj)
    is_comte = isinstance(obj, Comte)
    new_graph = _shared_graph(len(lab.vertex_ranks), [a[:3] for a in lab.arrows], {}, None if is_comte else lab.key)
    g, new_flows = (obj.graph, tuple(e[3] for e in lab.arrows)) if is_comte else (obj, None)
    vmap = {v: new_graph.vertices[r] for v, r in zip(g.vertices, lab.vertex_ranks)}
    return CanonicalForm(lab.key, vmap, tuple(lab.arrow_perm()), new_graph, new_flows)


def canonical_key(obj: Comte | SelfIndexedGraph) -> bytes:
    """Deterministic byte key, equal for two objects iff they are isomorphic.
    Runs the labeling step alone, unless ``obj`` is a canonical graph that
    already holds its key."""
    if isinstance(obj, SelfIndexedGraph) and obj._key is not None:
        return obj._key
    return canonical_labeling(obj).key


# ---------------------------------------------------------------------------
# Homomorphisms


class GraphHomomorphism(NamedTuple):
    """A homomorphism src -> dst, positional on both sides: it equals,
    hashes and sorts as the plain tuple (vertex images, arrow images)."""

    vertex_images: tuple[str, ...]  # image of src.vertices[i]
    arrow_map: tuple[int, ...]      # image of src.arrows[k], as a dst arrow index


# ---------------------------------------------------------------------------
# Text documents (JSON shaped)


class DecodeError(ValueError):
    """Raised when a comte document is malformed; the message locates the
    first violation."""


def encode(obj: Comte | SelfIndexedGraph) -> str:
    """Serialize to the canonical document form (fixed field order)."""
    if isinstance(obj, Comte):
        arrows = [{**a._asdict(), "flow": f} for a, f in zip(obj.graph.arrows, obj.flows)]
        vertices = list(obj.graph.vertices)
    else:
        arrows = [a._asdict() for a in obj.arrows]
        vertices = list(obj.vertices)
    return json.dumps({"vertices": vertices, "arrows": arrows}, indent=2) + "\n"


def decode(text: str) -> Comte | SelfIndexedGraph:
    """Parse a document; returns a Comte when every arrow carries a flow
    (including the zero-arrow case) and a bare graph when none does.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DecodeError(f"line {e.lineno}: {e.msg}") from None
    except RecursionError:
        raise DecodeError("nesting too deep") from None
    if not isinstance(doc, dict):
        raise DecodeError("top level must be an object")
    if "vertices" not in doc:
        raise DecodeError("missing field 'vertices'")
    if "arrows" not in doc:
        raise DecodeError("missing field 'arrows'")
    verts = doc["vertices"]
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise DecodeError("'vertices' must be a list of strings")
    if len(set(verts)) != len(verts):
        raise DecodeError("'vertices' contains a duplicate")
    vset = set(verts)
    if not isinstance(doc["arrows"], list):
        raise DecodeError("'arrows' must be a list")
    arrows = []
    flows = []
    has_flow = None
    for i, rec in enumerate(doc["arrows"]):
        if not isinstance(rec, dict):
            raise DecodeError(f"arrows[{i}]: must be an object")
        for fld in ("source", "target", "label"):
            if fld not in rec:
                raise DecodeError(f"arrows[{i}]: missing field '{fld}'")
            if not isinstance(rec[fld], str) or rec[fld] not in vset:
                raise DecodeError(f"arrows[{i}].{fld}: unknown vertex {rec[fld]!r}")
        this_has = "flow" in rec
        if has_flow is None:
            has_flow = this_has
        elif has_flow != this_has:
            raise DecodeError(f"arrows[{i}]: flow present on some arrows but not all")
        if this_has:
            f = rec["flow"]
            if isinstance(f, bool) or not isinstance(f, int):
                raise DecodeError(f"arrows[{i}].flow: not an integer: {f!r}")
            flows.append(f)
        arrows.append(Arrow(rec["source"], rec["target"], rec["label"]))
    g = SelfIndexedGraph(tuple(verts), tuple(arrows))
    if has_flow is False:
        return g
    return Comte(g, tuple(flows))
