"""Reference implementations that the tests compare the package against.

Each one is an independent or inverse computation: a class count by
Burnside's lemma, a homomorphism check, the boundary of a chain by face
composition, the cocycle solve reshaped into ``Cocycle2`` objects, exact
divisibility of Laurent polynomials, the writers that match
``parse_rack_table`` and ``parse_cocycle``, and the move rules written on
vertex names and ``Arrow`` objects, as ``comtes.moves`` applied them before
its rules moved to index states, and the Smith elimination as it picked
pivots before the pick took the first unit column of the shortest bucket.
The package does not need them, so they live with the tests.
"""

from functools import partial
from itertools import permutations
from math import prod

from comtes.census import _conjugate, _label_choices
from comtes.coloring import Chain, _after
from comtes.core import Arrow, Comte, GraphHomomorphism, SelfIndexedGraph, quotient
from comtes.cubes import build_Yn, face_map
from comtes.homology import q2_cocycles
from comtes.laurent import Laurent, divexact
from comtes.linalg import SNFResult, _divisibility_chain
from comtes.moves import _R2, _SIDES, ApplyResult, MoveError, MoveInstance
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


# ---------------------------------------------------------------------------
# The move rules on named comtes.  ``named_apply_move_detailed`` is the
# named ``apply_move_detailed``; the side and role tables are the package's.


def _fresh_name(vertices, stem: str) -> str:
    used = set(vertices)
    cand = stem + "'"
    while cand in used:
        cand += "'"
    return cand


def _slot(a: Arrow, role: str) -> str:
    return a.source if role == "s" else a.target if role == "t" else a.label


def _with_slot(a: Arrow, role: str, value: str) -> Arrow:
    if role == "s":
        return Arrow(value, a.target, a.label)
    if role == "t":
        return Arrow(a.source, value, a.label)
    return Arrow(a.source, a.target, value)


def _check_arrow(c: Comte, i: int) -> Arrow:
    if not 0 <= i < len(c.graph.arrows):
        raise MoveError(f"stale site: arrow index {i} not present")
    return c.graph.arrows[i]


def _check_vertex(c: Comte, v: str) -> str:
    if v not in c.graph.vertices:
        raise MoveError(f"stale site: vertex {v!r} not present")
    return v


def _corners(w: Arrow, sides: dict[int, Arrow]) -> dict[str, str] | None:
    """The corner vertices fixed by the sides ``{position: arrow}`` of a
    square on the witness ``w``, or None when a side has the wrong label or
    two sides disagree on a corner."""
    corners: dict[str, str] = {}
    for pos, side in sides.items():
        src, tgt, role = _SIDES[pos]
        if side.label != _slot(w, role):
            return None
        for corner, v in ((src, side.source), (tgt, side.target)):
            if corners.setdefault(corner, v) != v:
                return None
    return corners


def _check_full_square(c: Comte, idxs) -> None:
    if len(set(idxs)) != 5:
        raise MoveError("square arrows must be distinct")
    w, *sides = (_check_arrow(c, i) for i in idxs)
    if _corners(w, dict(enumerate(sides))) is None:
        raise MoveError("stale site: square relations do not hold")


def _drop_arrow(g: SelfIndexedGraph, flows: tuple[int, ...], ei: int) -> Comte:
    """``g`` with its flows, less arrow ``ei`` and its flow."""
    arrows = g.arrows[:ei] + g.arrows[ei + 1 :]
    return Comte(SelfIndexedGraph(g.vertices, arrows), flows[:ei] + flows[ei + 1 :])


def _incident_slots(g: SelfIndexedGraph, v: str) -> list[tuple[int, str]]:
    slots = []
    for j, a in enumerate(g.arrows):
        for role in ("s", "t", "l"):
            if _slot(a, role) == v:
                slots.append((j, role))
    return slots


def _slots_after_drop(g: SelfIndexedGraph, v: str, dropped: int, skip=None) -> frozenset:
    """The slots at ``v`` of the arrows other than ``dropped``, indexed as
    after ``dropped`` is deleted; the slot ``skip`` is left out."""
    return frozenset(
        (j - (j > dropped), role) for j, role in _incident_slots(g, v) if j != dropped and (j, role) != skip
    )


def _moved_flow(c: Comte, moved) -> int:
    """The net flow F that the ``moved`` slots carry off their vertex (see
    the module docstring)."""
    return sum(c.flows[j] * ((role == "s") - (role == "t")) for j, role in moved)


def _r2_split_flow(c: Comte, moved, merge_role: str) -> int:
    """The flow that conservation forces on the new arrow of a fresh R2
    split, whose ``merge_role`` slot is the fresh vertex."""
    flow = _moved_flow(c, moved)
    return flow if merge_role == "t" else -flow


def _r0_site_error(c: Comte, ei: int, p: str) -> str | None:
    """Why arrow ``ei`` and vertex ``p`` are not an R0 site, or None when
    they are."""
    a = c.graph.arrows[ei]
    if (a.source == p) + (a.target == p) != 1 or a.label == p:
        return "R0: arrow is not a pendant arrow at the vertex"
    if any(x.label == p for x in c.graph.arrows):
        return "R0: vertex labels an arrow"
    if any(j != ei and p in (x.source, x.target) for j, x in enumerate(c.graph.arrows)):
        return "R0: vertex has valence > 1"
    if c.flows[ei] != 0:
        return "R0: pendant arrow flow is nonzero"
    return None


def _r1_kind(a: Arrow) -> str | None:
    """The R1 move that removes ``a``, if any: a self-labeled loop is
    deleted, an arrow between two vertices labeled by one of them is
    contracted."""
    if a.source == a.target == a.label:
        return "R1loopdel"
    if a.source != a.target and a.label in (a.source, a.target):
        return "R1contract"
    return None


def _split_off(c: Comte, v: str, moved, kind: str) -> tuple[str, list[Arrow]]:
    """A fresh vertex and the arrows of ``c`` with the ``moved`` slots, each
    of which must be at ``v``, sent to it.  An error names the least
    offending slot, so its text does not follow the set's iteration order."""
    arrows = list(c.graph.arrows)
    bad = [(j, role) for j, role in moved if not 0 <= j < len(arrows) or _slot(arrows[j], role) != v]
    if bad:
        j, role = min(bad)
        _check_arrow(c, j)  # a missing arrow is a stale site
        raise MoveError(f"{kind}: slot ({j},{role}) is not attached to {v!r}")
    w = _fresh_name(c.graph.vertices, v)
    for j, role in moved:
        arrows[j] = _with_slot(arrows[j], role, w)
    return w, arrows


def named_apply_move_detailed(c: Comte, m: MoveInstance) -> ApplyResult:
    handler = _APPLY.get(m.kind)
    if handler is None:
        raise MoveError(f"unknown move kind {m.kind!r}")
    return handler(c, m)


def _identity_vmap(g: SelfIndexedGraph) -> dict[str, str | None]:
    return {v: v for v in g.vertices}


def _apply_r0(c: Comte, m: MoveInstance) -> ApplyResult:
    (ei,) = m.arrows
    (p,) = m.vertices
    a = _check_arrow(c, ei)
    _check_vertex(c, p)
    error = _r0_site_error(c, ei, p)
    if error:
        raise MoveError(error)
    attach = a.target if a.source == p else a.source
    verts = tuple(v for v in c.graph.vertices if v != p)
    vmap = {v: (None if v == p else v) for v in c.graph.vertices}
    out = _drop_arrow(SelfIndexedGraph(verts, c.graph.arrows), c.flows, ei)
    inverse = MoveInstance(
        "R0inv",
        vertices=(attach, a.label),
        flags=("target" if a.target == p else "source",),
    )
    return ApplyResult(out, vmap, inverse)


def _apply_r0inv(c: Comte, m: MoveInstance) -> ApplyResult:
    attach, labelv = m.vertices
    _check_vertex(c, attach)
    _check_vertex(c, labelv)
    (flag,) = m.flags
    p = _fresh_name(c.graph.vertices, "w")
    if flag == "target":
        new = Arrow(attach, p, labelv)
    elif flag == "source":
        new = Arrow(p, attach, labelv)
    else:
        raise MoveError(f"R0inv: bad direction flag {flag!r}")
    g = SelfIndexedGraph(c.graph.vertices + (p,), c.graph.arrows + (new,))
    out = Comte(g, c.flows + (0,))
    inverse = MoveInstance("R0", arrows=(len(c.graph.arrows),), vertices=(p,))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _apply_r1contract(c: Comte, m: MoveInstance) -> ApplyResult:
    (ei,) = m.arrows
    a = _check_arrow(c, ei)
    if _r1_kind(a) != "R1contract":
        raise MoveError("R1: arrow is not contractible")
    q, vmap = quotient(c.graph, [(a.source, a.target)])
    kept = vmap[a.source]
    vanished = a.source if kept != a.source else a.target
    out = _drop_arrow(q, c.flows, ei)
    direction = "old_new" if a.target == vanished else "new_old"
    label_half = "new" if a.label == vanished else "old"
    inverse = MoveInstance(
        "R1split",
        vertices=(kept,),
        moved=_slots_after_drop(c.graph, vanished, ei),
        flags=(direction, label_half),
    )
    return ApplyResult(out, dict(vmap), inverse)


def _apply_r1split(c: Comte, m: MoveInstance) -> ApplyResult:
    (v,) = m.vertices
    _check_vertex(c, v)
    direction, label_half = m.flags
    w, arrows = _split_off(c, v, m.moved, "R1split")
    flow = _moved_flow(c, m.moved)
    if direction == "old_new":
        new = Arrow(v, w, v if label_half == "old" else w)
    elif direction == "new_old":
        new = Arrow(w, v, v if label_half == "old" else w)
        flow = -flow
    else:
        raise MoveError(f"R1split: bad direction flag {direction!r}")
    g = SelfIndexedGraph(c.graph.vertices + (w,), tuple(arrows) + (new,))
    out = Comte(g, c.flows + (flow,))
    inverse = MoveInstance("R1contract", arrows=(len(c.graph.arrows),))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _apply_r1loopdel(c: Comte, m: MoveInstance) -> ApplyResult:
    (ei,) = m.arrows
    a = _check_arrow(c, ei)
    if _r1_kind(a) != "R1loopdel":
        raise MoveError("R1: arrow is not a self-labeled loop")
    out = _drop_arrow(c.graph, c.flows, ei)
    inverse = MoveInstance("R1loopadd", vertices=(a.source,), params=(c.flows[ei],))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _apply_r1loopadd(c: Comte, m: MoveInstance) -> ApplyResult:
    (v,) = m.vertices
    _check_vertex(c, v)
    (flow,) = m.params
    g = SelfIndexedGraph(c.graph.vertices, c.graph.arrows + (Arrow(v, v, v),))
    out = Comte(g, c.flows + (flow,))
    inverse = MoveInstance("R1loopdel", arrows=(len(c.graph.arrows),))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _apply_r2(c: Comte, m: MoveInstance, merge_role: str) -> ApplyResult:
    e1, e2 = m.arrows
    a1 = _check_arrow(c, e1)
    a2 = _check_arrow(c, e2)
    if e1 == e2:
        raise MoveError("R2: arrows must be distinct")
    _, split_kind, shared = _R2[merge_role]
    if _slot(a1, shared) != _slot(a2, shared) or a1.label != a2.label:
        raise MoveError("R2: arrows do not share the required source/target and label")
    m1, m2 = _slot(a1, merge_role), _slot(a2, merge_role)
    q, vmap = quotient(c.graph, [(m1, m2)])
    flows = list(c.flows)
    flows[e1] += flows[e2]
    out = _drop_arrow(q, tuple(flows), e2)
    params = (c.flows[e1], c.flows[e2])
    if m1 == m2:
        moved, flavor = frozenset(), "parallel"
    else:
        vanished = m2 if vmap[m1] == m1 else m1
        if vanished == m1:
            params = params[::-1]
        # the merged slot of e1 is handled structurally by the split
        moved, flavor = _slots_after_drop(c.graph, vanished, e2, skip=(e1, merge_role)), "fresh"
    inverse = MoveInstance(split_kind, arrows=(e1 - (e1 > e2),), params=params, moved=moved, flags=(flavor,))
    return ApplyResult(out, dict(vmap), inverse)


def _apply_r2_split(c: Comte, m: MoveInstance, merge_role: str) -> ApplyResult:
    (ei,) = m.arrows
    a = _check_arrow(c, ei)
    i1, i2 = m.params
    if i1 + i2 != c.flows[ei]:
        raise MoveError("R2 split: flows do not sum to the arrow's flow")
    (flavor,) = m.flags
    flows = c.flows[:ei] + (i1,) + c.flows[ei + 1 :] + (i2,)
    if flavor == "parallel":
        if m.moved:
            raise MoveError("R2 split: parallel flavor moves no slots")
        out = Comte(SelfIndexedGraph(c.graph.vertices, c.graph.arrows + (a,)), flows)
    elif flavor == "fresh":
        if (ei, merge_role) in m.moved:
            raise MoveError("R2 split: the split slot cannot be moved")
        # the split slot stays where it is on ei and is w on the new arrow
        w, arrows = _split_off(c, _slot(a, merge_role), m.moved, "R2 split")
        if i2 != _r2_split_flow(c, m.moved, merge_role):
            raise MoveError("R2 split: flow split violates conservation")
        g = SelfIndexedGraph(c.graph.vertices + (w,), (*arrows, _with_slot(arrows[ei], merge_role, w)))
        out = Comte(g, flows)
    else:
        raise MoveError(f"R2 split: bad flavor {flavor!r}")
    inverse = MoveInstance(_R2[merge_role][0], arrows=(ei, len(c.graph.arrows)))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _apply_r3a_remove(c: Comte, m: MoveInstance) -> ApplyResult:
    _check_full_square(c, m.arrows)
    (pos,) = m.params
    doomed = m.arrows[1 + pos]
    if c.flows[doomed] != 0:
        raise MoveError("R3a: the removed side must carry flow 0")
    out = _drop_arrow(c.graph, c.flows, doomed)
    remaining = tuple(j - (j > doomed) for k, j in enumerate(m.arrows) if k != 1 + pos)
    inverse = MoveInstance("R3a_add", arrows=remaining, params=(pos,))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _apply_r3a_add(c: Comte, m: MoveInstance) -> ApplyResult:
    (pos,) = m.params
    w, *sides = (_check_arrow(c, j) for j in m.arrows)
    if len(set(m.arrows)) != 4:
        raise MoveError("R3a_add: arrows must be distinct")
    if pos not in range(4):
        raise MoveError(f"R3a_add: bad side position {pos}")
    corners = _corners(w, dict(zip((p for p in range(4) if p != pos), sides)))
    if corners is None:
        raise MoveError("R3a_add: stale site, three-sided square relations fail")
    src, tgt, role = _SIDES[pos]
    new = Arrow(corners[src], corners[tgt], _slot(w, role))
    out = Comte(SelfIndexedGraph(c.graph.vertices, c.graph.arrows + (new,)), c.flows + (0,))
    full = list(m.arrows)
    full.insert(1 + pos, len(c.graph.arrows))
    inverse = MoveInstance("R3a_remove", arrows=tuple(full), params=(pos,))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _apply_r3b(c: Comte, m: MoveInstance) -> ApplyResult:
    _check_full_square(c, m.arrows)
    (j,) = m.params
    _, li, bi, ti, ri = m.arrows
    flows = list(c.flows)
    flows[li] += j
    flows[bi] += j
    flows[ti] -= j
    flows[ri] -= j
    out = Comte(c.graph, tuple(flows))
    inverse = MoveInstance("R3b_shift", arrows=m.arrows, params=(-j,))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


_APPLY = {
    "R0": _apply_r0,
    "R0inv": _apply_r0inv,
    "R1contract": _apply_r1contract,
    "R1split": _apply_r1split,
    "R1loopdel": _apply_r1loopdel,
    "R1loopadd": _apply_r1loopadd,
    **{kind: partial(_apply_r2, merge_role=role) for role, (kind, _, _) in _R2.items()},
    **{split_kind: partial(_apply_r2_split, merge_role=role) for role, (_, split_kind, _) in _R2.items()},
    "R3a_remove": _apply_r3a_remove,
    "R3a_add": _apply_r3a_add,
    "R3b_shift": _apply_r3b,
}


# ---------------------------------------------------------------------------
# Smith elimination with the pick key (|entry|, column length, row length,
# column, row), which scans every entry of the shortest unit-holding bucket


def smith_normal_form(matrix) -> SNFResult:
    """Invariant factors, rank and unit-pivot columns of an integer matrix."""
    pivots, _, units = _eliminate(matrix)
    factors = _divisibility_chain([d for _, d in pivots])
    return SNFResult(factors, len(factors), tuple(c for c, _ in pivots[:units]))


def _eliminate(matrix, ncols=None):
    """Diagonalize M by unimodular row and column operations.

    Returns the pivots as (column, d) pairs in pick order; when ``ncols``
    is given, the ``ncols`` x ``ncols`` column transform Q as the list of
    its columns (None otherwise); and the number of leading pivots that
    were picked as a unit.  P M Q is zero except for the entry d of each
    pivot column, for a unimodular P that is not recorded.  With
    ``ncols``, a column index outside ``range(ncols)`` is a ``ValueError``.

    A pivot picked as a unit is retired by row operations alone: they
    clear its column, and the column operations that would then clear its
    row change that row only, so the row is dropped and only Q records
    them.  So while every pick so far was a unit, ker M is the kernel of
    the remaining rows and columns with each pivot coordinate a fixed
    integer combination of the rest.  A non-unit pivot p reduces each
    other entry e of its column by a row operation, and of its row by a
    column operation, by e // p.  The least (|entry|, column, row) of the
    remainders left, each smaller than |p|, is the next pivot, a unit or
    not; with none left, p is recorded.  The count stops at the first
    non-unit pick: M = [2 3] ends as the unit pivot (1, 1), and clearing
    on it is wrong (see ``SNFResult``).  Least-remainder pivoting kept the
    entries small on the random matrices measured (Havas & Majewski, J.
    Symb. Comput. 24, 1997), but has no general polynomial bound.

    Each row is copied in column order, without its zero entries; a row
    that is not a ``dict``, or a column or an entry that is not an
    ``int`` (or is a ``bool``), is a ``TypeError``, and a negative column
    a ``ValueError``.  Each pick from
    the matrix is the least (|entry|, column length, row length, column,
    row), so units in short columns go first and fill stays low on sparse
    boundary matrices.  The columns are kept in buckets by length, and a
    pick reads the buckets in rising length up to the first that holds a
    unit; only when no unit is left does it read every entry.
    """
    q = None if ncols is None else [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, row in enumerate(matrix):
        if not isinstance(row, dict):
            raise TypeError(f"row {r} is not a {{column: value}} dict: {type(row).__name__}")
        d = {}
        for c in row:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"row {r} has a column that is not an integer: {c!r}")
        for c in sorted(row):
            v = row[c]
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"entry ({r}, {c}) is not an integer: {v!r}")
            if v:
                d[c] = v
        if d:
            if ncols is not None and not (0 <= min(d) and max(d) < ncols):
                raise ValueError(f"row {r} has a column outside range({ncols})")
            if min(d) < 0:
                raise ValueError(f"row {r} has a negative column: {min(d)}")
            rows[r] = d
            for c in d:
                cols.setdefault(c, set()).add(r)
    # The column-length index: by_length[n] holds the columns of length n
    # as of the last rebucket(); each column that gains or loses a row is
    # noted in resized and moved once before the next pick.
    by_length: dict[int, set[int]] = {}
    length_of: dict[int, int] = {}
    resized = set(cols)

    def rebucket():
        for c in resized:
            old, new = length_of.get(c, 0), len(cols.get(c, ()))
            if old != new:
                if old:
                    by_length[old].discard(c)
                if new:
                    by_length.setdefault(new, set()).add(c)
                length_of[c] = new
        resized.clear()

    def drop(r, c):
        # row r leaves column c
        cs = cols[c]
        cs.discard(r)
        resized.add(c)
        if not cs:
            del cols[c]

    def row_axpy(dst, src, k):
        # row[dst] -= k * row[src], for two rows that hold entries; the
        # columns of src hold src, so none of them empties
        rd = rows[dst]
        for c, v in rows[src].items():
            w = rd.get(c, 0) - k * v
            if w:
                if c not in rd:
                    cols[c].add(dst)
                    resized.add(c)
                rd[c] = w
            elif c in rd:
                del rd[c]
                drop(dst, c)
        if not rd:
            del rows[dst]

    def col_axpy(dst, src, k):
        # column[dst] -= k * column[src]; the rows of src hold src, so
        # none of them empties
        for r in cols[src]:
            rd = rows[r]
            w = rd.get(dst, 0) - k * rd[src]
            if w:
                if dst not in rd:
                    cols.setdefault(dst, set()).add(r)
                    resized.add(dst)
                rd[dst] = w
            elif dst in rd:
                del rd[dst]
                drop(r, dst)
        if q is not None:
            q[dst] = [a - k * b for a, b in zip(q[dst], q[src])]

    def pick_pivot():
        # The least (|entry|, column length, row length, column, row): a
        # unit beats every larger entry, so it is the unit of least (row
        # length, column, row) in the shortest columns that hold one, and
        # the least entry overall only when no unit is left.
        rebucket()
        for n in sorted(by_length):
            best = None
            for c in by_length[n]:
                for r in cols[c]:
                    rd = rows[r]
                    v = rd[c]
                    if (v == 1 or v == -1) and (best is None or (len(rd), c, r) < best):
                        best = (len(rd), c, r)
            if best:
                return best[2], best[1]
        _, _, _, c, r = min((abs(rows[r][c]), len(cs), len(rows[r]), c, r) for c, cs in cols.items() for r in cs)
        return r, c

    pivots = []
    units = 0
    counting = True  # until the first non-unit pick
    while rows:
        pr, pc = pick_pivot()
        while True:
            p = rows[pr][pc]
            if p == 1 or p == -1:
                if counting:
                    units += 1
                for r in list(cols[pc]):
                    if r != pr:
                        row_axpy(r, pr, rows[r][pc] * p)
                break
            counting = False
            for r in list(cols[pc]):
                if r != pr and (k := rows[r][pc] // p):
                    row_axpy(r, pr, k)
            for c in list(rows[pr]):
                if c != pc and (k := rows[pr][c] // p):
                    col_axpy(c, pc, k)
            rest = [(abs(rows[r][pc]), pc, r) for r in cols[pc] if r != pr]
            rest += [(abs(e), c, pr) for c, e in rows[pr].items() if c != pc]
            if not rest:
                break
            _, pc, pr = min(rest)
        # The column of p is cleared.  A non-unit p is alone in its row; the
        # column operations that would clear a unit's row change no other
        # row.  So the row is dropped and Q alone records them.
        row = rows.pop(pr)
        for c, e in row.items():
            drop(pr, c)
            if q is not None and c != pc:
                k = e * p
                q[c] = [a - k * b for a, b in zip(q[c], q[pc])]
        pivots.append((pc, p))
    return pivots, q, units
