"""The move calculus on comtes: R0, R1, R2(a/b), R3(a/b) and inverses.

Forward kinds
  R0           delete a pendant vertex that labels nothing (arrow flow 0)
  R1contract   contract an arrow labeled by its source or target
  R1loopdel    delete a loop labeled by its own vertex
  R2a          merge two arrows with common source and label (targets
               identified, flows added); R2b is the target-side mirror
  R3a_remove   in the presence of a witness arrow b --a--> t, remove a
               zero-flow side of a square with sides labeled a, t, b, a
  R3b_shift    shift a flow J around such a square (self-inverse with -J)

Inverse kinds
  R0inv, R1split, R1loopadd, R2a_split, R2b_split, R3a_add

The full move R3 is the composition R3b_shift (drive the doomed side's flow
to 0) followed by R3a_remove.  Sites may share vertices freely, but arrows
referenced as distinct must be distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    Arrow,
    Comte,
    SelfIndexedGraph,
    canonical_form,
    quotient,
    validate,
)

class MoveError(ValueError):
    """Raised when a move instance does not apply to the given comte."""


@dataclass(frozen=True)
class MoveInstance:
    kind: str
    arrows: tuple[int, ...] = ()
    vertices: tuple[str, ...] = ()
    params: tuple[int, ...] = ()
    moved: frozenset = frozenset()  # (arrow index, role) slots sent to the new half
    flags: tuple[str, ...] = ()

    def format(self) -> str:
        site = []
        if self.arrows:
            site.append("arrows=" + ",".join(map(str, self.arrows)))
        if self.vertices:
            site.append("vertices=" + ",".join(self.vertices))
        if self.moved:
            site.append(
                "moved=" + ",".join(f"{i}{r}" for i, r in sorted(self.moved))
            )
        if self.flags:
            site.append("flags=" + ",".join(self.flags))
        out = f"{self.kind} site=[{' '.join(site)}]"
        if self.params:
            out += " params=" + ",".join(map(str, self.params))
        return out


@dataclass(frozen=True)
class ApplyResult:
    comte: Comte
    vertex_map: dict[str, str | None]  # old vertex -> new vertex (None: deleted)
    inverse: MoveInstance              # applies to ``comte``, undoes the move


def _fresh_name(vertices, stem: str) -> str:
    used = set(vertices)
    cand = stem + "'"
    while cand in used:
        cand += "'"
    return cand


def _zero_flows(c: Comte) -> Comte:
    return Comte(c.graph, (0,) * len(c.graph.arrows))


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


def _verify_full_square(c: Comte, idxs) -> tuple[Arrow, Arrow, Arrow, Arrow, Arrow]:
    wi, li, bi, ti, ri = idxs
    if len(set(idxs)) != 5:
        raise MoveError("square arrows must be distinct")
    w = _check_arrow(c, wi)
    left = _check_arrow(c, li)
    bottom = _check_arrow(c, bi)
    top = _check_arrow(c, ti)
    right = _check_arrow(c, ri)
    a, b, t = w.label, w.source, w.target
    ok = (
        left.label == a
        and bottom.label == t
        and top.label == b
        and right.label == a
        and bottom.source == left.target
        and top.source == left.source
        and right.source == top.target
        and right.target == bottom.target
    )
    if not ok:
        raise MoveError("stale site: square relations do not hold")
    return w, left, bottom, top, right


# ---------------------------------------------------------------------------
# Application


def apply_move(c: Comte, m: MoveInstance) -> Comte:
    """Apply a move instance; the result is a valid comte when ``c`` is."""
    return apply_move_detailed(c, m).comte


def apply_move_detailed(c: Comte, m: MoveInstance) -> ApplyResult:
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
    roles_at_p = (a.source == p) + (a.target == p)
    if roles_at_p != 1 or a.label == p:
        raise MoveError("R0: arrow is not a pendant arrow at the vertex")
    if any(x.label == p for x in c.graph.arrows):
        raise MoveError("R0: vertex labels an arrow")
    for j, x in enumerate(c.graph.arrows):
        if j != ei and (x.source == p or x.target == p):
            raise MoveError("R0: vertex has valence > 1")
    if c.flows[ei] != 0:
        raise MoveError("R0: pendant arrow flow is nonzero")
    attach = a.target if a.source == p else a.source
    arrows = tuple(x for j, x in enumerate(c.graph.arrows) if j != ei)
    flows = tuple(f for j, f in enumerate(c.flows) if j != ei)
    verts = tuple(v for v in c.graph.vertices if v != p)
    vmap = {v: (None if v == p else v) for v in c.graph.vertices}
    out = Comte(SelfIndexedGraph(verts, arrows), flows)
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
    if a.source == a.target or a.label not in (a.source, a.target):
        raise MoveError("R1: arrow is not contractible")
    q, vmap = quotient(c.graph, [(a.source, a.target)])
    kept = vmap[a.source]
    vanished = a.source if kept != a.source else a.target
    arrows = tuple(x for j, x in enumerate(q.arrows) if j != ei)
    flows = tuple(f for j, f in enumerate(c.flows) if j != ei)
    out = Comte(SelfIndexedGraph(q.vertices, arrows), flows)
    moved = []
    for j, x in enumerate(c.graph.arrows):
        if j == ei:
            continue
        nj = j - (j > ei)
        for role in ("s", "t", "l"):
            if _slot(x, role) == vanished:
                moved.append((nj, role))
    direction = "old_new" if a.target == vanished else "new_old"
    label_half = "new" if a.label == vanished else "old"
    inverse = MoveInstance(
        "R1split",
        vertices=(kept,),
        moved=frozenset(moved),
        flags=(direction, label_half),
    )
    return ApplyResult(out, dict(vmap), inverse)


def _apply_r1split(c: Comte, m: MoveInstance) -> ApplyResult:
    (v,) = m.vertices
    _check_vertex(c, v)
    direction, label_half = m.flags
    for j, role in m.moved:
        if _slot(_check_arrow(c, j), role) != v:
            raise MoveError(f"R1split: slot ({j},{role}) is not attached to {v!r}")
    w = _fresh_name(c.graph.vertices, v)
    arrows = list(c.graph.arrows)
    for j, role in m.moved:
        arrows[j] = _with_slot(arrows[j], role, w)
    moved_out = sum(c.flows[j] for j, role in m.moved if role == "s")
    moved_in = sum(c.flows[j] for j, role in m.moved if role == "t")
    if direction == "old_new":
        new = Arrow(v, w, v if label_half == "old" else w)
        flow = moved_out - moved_in
    elif direction == "new_old":
        new = Arrow(w, v, v if label_half == "old" else w)
        flow = moved_in - moved_out
    else:
        raise MoveError(f"R1split: bad direction flag {direction!r}")
    g = SelfIndexedGraph(c.graph.vertices + (w,), tuple(arrows) + (new,))
    out = Comte(g, c.flows + (flow,))
    inverse = MoveInstance("R1contract", arrows=(len(c.graph.arrows),))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _apply_r1loopdel(c: Comte, m: MoveInstance) -> ApplyResult:
    (ei,) = m.arrows
    a = _check_arrow(c, ei)
    if not (a.source == a.target == a.label):
        raise MoveError("R1: arrow is not a self-labeled loop")
    arrows = tuple(x for j, x in enumerate(c.graph.arrows) if j != ei)
    flows = tuple(f for j, f in enumerate(c.flows) if j != ei)
    out = Comte(SelfIndexedGraph(c.graph.vertices, arrows), flows)
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
    same_role = "s" if merge_role == "t" else "t"
    if _slot(a1, same_role) != _slot(a2, same_role) or a1.label != a2.label:
        raise MoveError("R2: arrows do not share the required source/target and label")
    m1, m2 = _slot(a1, merge_role), _slot(a2, merge_role)
    q, vmap = quotient(c.graph, [(m1, m2)])
    arrows = []
    flows = []
    for j, x in enumerate(q.arrows):
        if j == e2:
            continue
        f = c.flows[j]
        if j == e1:
            f += c.flows[e2]
        arrows.append(x)
        flows.append(f)
    out = Comte(SelfIndexedGraph(q.vertices, tuple(arrows)), tuple(flows))
    kept = vmap[m1]
    e1n = e1 - (e1 > e2)
    if m1 == m2:
        inverse = MoveInstance(
            f"R2{'a' if merge_role == 't' else 'b'}_split",
            arrows=(e1n,),
            params=(c.flows[e1], c.flows[e2]),
            flags=("parallel",),
        )
        return ApplyResult(out, dict(vmap), inverse)
    vanished = m1 if kept != m1 else m2
    moved = []
    for j, x in enumerate(c.graph.arrows):
        if j == e2:
            continue
        nj = j - (j > e2)
        for role in ("s", "t", "l"):
            if j == e1 and role == merge_role:
                continue  # handled structurally by the split
            if _slot(x, role) == vanished:
                moved.append((nj, role))
    if vanished == m2:
        params = (c.flows[e1], c.flows[e2])
    else:
        params = (c.flows[e2], c.flows[e1])
    inverse = MoveInstance(
        f"R2{'a' if merge_role == 't' else 'b'}_split",
        arrows=(e1n,),
        params=params,
        moved=frozenset(moved),
        flags=("fresh",),
    )
    return ApplyResult(out, dict(vmap), inverse)


def _apply_r2_split(c: Comte, m: MoveInstance, merge_role: str) -> ApplyResult:
    (ei,) = m.arrows
    a = _check_arrow(c, ei)
    i1, i2 = m.params
    if i1 + i2 != c.flows[ei]:
        raise MoveError("R2 split: flows do not sum to the arrow's flow")
    (flavor,) = m.flags
    kind = "R2a" if merge_role == "t" else "R2b"
    if flavor == "parallel":
        if m.moved:
            raise MoveError("R2 split: parallel flavor moves no slots")
        new = Arrow(a.source, a.target, a.label)
        arrows = list(c.graph.arrows) + [new]
        flows = list(c.flows) + [i2]
        flows[ei] = i1
        out = Comte(SelfIndexedGraph(c.graph.vertices, tuple(arrows)), tuple(flows))
        inverse = MoveInstance(kind, arrows=(ei, len(c.graph.arrows)))
        return ApplyResult(out, _identity_vmap(c.graph), inverse)
    if flavor != "fresh":
        raise MoveError(f"R2 split: bad flavor {flavor!r}")
    mvert = _slot(a, merge_role)
    if (ei, merge_role) in m.moved:
        raise MoveError("R2 split: the split slot cannot be moved")
    for j, role in m.moved:
        if _slot(_check_arrow(c, j), role) != mvert:
            raise MoveError(f"R2 split: slot ({j},{role}) is not attached to {mvert!r}")
    w = _fresh_name(c.graph.vertices, mvert)
    arrows = list(c.graph.arrows)
    for j, role in m.moved:
        arrows[j] = _with_slot(arrows[j], role, w)
    base = arrows[ei]
    arrows[ei] = _with_slot(base, merge_role, mvert)
    new = _with_slot(base, merge_role, w)
    arrows.append(new)
    flows = list(c.flows)
    flows[ei] = i1
    flows.append(i2)
    g = SelfIndexedGraph(c.graph.vertices + (w,), tuple(arrows))
    out = Comte(g, tuple(flows))
    rep = validate(out)
    if rep.conservation:
        raise MoveError("R2 split: flow split violates conservation")
    inverse = MoveInstance(kind, arrows=(ei, len(c.graph.arrows)))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _apply_r3a_remove(c: Comte, m: MoveInstance) -> ApplyResult:
    _verify_full_square(c, m.arrows)
    (pos,) = m.params
    doomed = m.arrows[1 + pos]
    if c.flows[doomed] != 0:
        raise MoveError("R3a: the removed side must carry flow 0")
    arrows = tuple(x for j, x in enumerate(c.graph.arrows) if j != doomed)
    flows = tuple(f for j, f in enumerate(c.flows) if j != doomed)
    out = Comte(SelfIndexedGraph(c.graph.vertices, arrows), flows)
    remaining = tuple(j - (j > doomed) for k, j in enumerate(m.arrows) if k != 1 + pos)
    inverse = MoveInstance("R3a_add", arrows=remaining, params=(pos,))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _apply_r3a_add(c: Comte, m: MoveInstance) -> ApplyResult:
    (pos,) = m.params
    wi = m.arrows[0]
    w = _check_arrow(c, wi)
    sides = [_check_arrow(c, j) for j in m.arrows[1:]]
    if len(set(m.arrows)) != 4:
        raise MoveError("R3a_add: arrows must be distinct")
    a, b, t = w.label, w.source, w.target
    new = _completing_side(pos, a, b, t, sides)
    arrows = c.graph.arrows + (new,)
    flows = c.flows + (0,)
    out = Comte(SelfIndexedGraph(c.graph.vertices, arrows), flows)
    full = list(m.arrows[1:])
    full.insert(pos, len(c.graph.arrows))
    inverse = MoveInstance("R3a_remove", arrows=(wi, *full), params=(pos,))
    return ApplyResult(out, _identity_vmap(c.graph), inverse)


def _completing_side(pos, a, b, t, sides) -> Arrow:
    """The missing square side, given the three present ones in position
    order (positions: 0 left, 1 bottom, 2 top, 3 right)."""
    here = dict(zip([p for p in range(4) if p != pos], sides))
    if pos == 3:
        left, bottom, top = here[0], here[1], here[2]
        ok = (
            left.label == a
            and bottom.label == t
            and top.label == b
            and top.source == left.source
            and bottom.source == left.target
        )
        new = Arrow(top.target, bottom.target, a)
    elif pos == 2:
        left, bottom, right = here[0], here[1], here[3]
        ok = (
            left.label == a
            and bottom.label == t
            and right.label == a
            and bottom.source == left.target
            and right.target == bottom.target
        )
        new = Arrow(left.source, right.source, b)
    elif pos == 1:
        left, top, right = here[0], here[2], here[3]
        ok = (
            left.label == a
            and top.label == b
            and right.label == a
            and top.source == left.source
            and right.source == top.target
        )
        new = Arrow(left.target, right.target, t)
    elif pos == 0:
        bottom, top, right = here[1], here[2], here[3]
        ok = (
            bottom.label == t
            and top.label == b
            and right.label == a
            and right.source == top.target
            and right.target == bottom.target
        )
        new = Arrow(top.source, bottom.source, a)
    else:
        raise MoveError(f"R3a_add: bad side position {pos}")
    if not ok:
        raise MoveError("R3a_add: stale site, three-sided square relations fail")
    return new


def _apply_r3b(c: Comte, m: MoveInstance) -> ApplyResult:
    _verify_full_square(c, m.arrows)
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
    "R2a": lambda c, m: _apply_r2(c, m, "t"),
    "R2b": lambda c, m: _apply_r2(c, m, "s"),
    "R2a_split": lambda c, m: _apply_r2_split(c, m, "t"),
    "R2b_split": lambda c, m: _apply_r2_split(c, m, "s"),
    "R3a_remove": _apply_r3a_remove,
    "R3a_add": _apply_r3a_add,
    "R3b_shift": _apply_r3b,
}

# (vertex change, arrow change) of the kinds whose change is fixed
_FIXED_SIZE_CHANGE = {
    "R0": (-1, -1),
    "R0inv": (1, 1),
    "R1contract": (-1, -1),
    "R1split": (1, 1),
    "R1loopdel": (0, -1),
    "R1loopadd": (0, 1),
    "R3a_remove": (0, -1),
    "R3a_add": (0, 1),
    "R3b_shift": (0, 0),
}


def size_change(c: Comte, m: MoveInstance) -> tuple[int, int]:
    """The (vertex, arrow) count change that applying ``m`` to ``c`` makes,
    computed without applying it.  Meaningful only when the move applies."""
    fixed = _FIXED_SIZE_CHANGE.get(m.kind)
    if fixed is not None:
        return fixed
    if m.kind in ("R2a", "R2b"):
        # merging two arrows identifies their merged endpoints when they differ
        role = "t" if m.kind == "R2a" else "s"
        e1, e2 = m.arrows
        merged = _slot(_check_arrow(c, e1), role) != _slot(_check_arrow(c, e2), role)
        return (-1 if merged else 0, -1)
    if m.kind in ("R2a_split", "R2b_split"):
        # the fresh flavor splits off a new endpoint, the parallel one does not
        return (1 if m.flags == ("fresh",) else 0, 1)
    raise MoveError(f"unknown move kind {m.kind!r}")


# ---------------------------------------------------------------------------
# Enumeration


def _squares(c: Comte):
    """All (witness, left, bottom, top, right) index tuples of full squares."""
    g = c.graph
    by_label: dict[str, list[int]] = {}
    by_source_label: dict[tuple[str, str], list[int]] = {}
    for i, a in enumerate(g.arrows):
        by_label.setdefault(a.label, []).append(i)
        by_source_label.setdefault((a.source, a.label), []).append(i)
    for wi, w in enumerate(g.arrows):
        a, b, t = w.label, w.source, w.target
        for li in by_label.get(a, ()):
            if li == wi:
                continue
            left = g.arrows[li]
            for bi in by_source_label.get((left.target, t), ()):
                if bi in (wi, li):
                    continue
                bottom = g.arrows[bi]
                for ti in by_source_label.get((left.source, b), ()):
                    if ti in (wi, li, bi):
                        continue
                    top = g.arrows[ti]
                    for ri in by_source_label.get((top.target, a), ()):
                        if ri in (wi, li, bi, ti):
                            continue
                        if g.arrows[ri].target == bottom.target:
                            yield (wi, li, bi, ti, ri)


def enumerate_moves(c: Comte, *, ignore_flows: bool = False, r3b_range: int = 3) -> list[MoveInstance]:
    """Complete list of applicable forward move instances.

    R3b instances are emitted for shifts J in +-``r3b_range`` (the family is
    infinite; the window is a search parameter).  ``ignore_flows`` treats the
    input as a bare self-indexed graph: flows are zeroed, which frees every
    flow-zero side condition, and R3b is not emitted.  Instances enumerated
    that way apply to the zero-flow comte, not the original.
    """
    if ignore_flows:
        c = _zero_flows(c)
    g = c.graph
    out: list[MoveInstance] = []
    labels_used = {a.label for a in g.arrows}
    # R0
    for p in g.vertices:
        if p in labels_used:
            continue
        slots = [
            (i, a) for i, a in enumerate(g.arrows) if a.source == p or a.target == p
        ]
        if len(slots) != 1:
            continue
        i, a = slots[0]
        if a.source == p and a.target == p:
            continue
        if c.flows[i] != 0:
            continue
        out.append(MoveInstance("R0", arrows=(i,), vertices=(p,)))
    # R1
    for i, a in enumerate(g.arrows):
        if a.source == a.target == a.label:
            out.append(MoveInstance("R1loopdel", arrows=(i,)))
        elif a.source != a.target and a.label in (a.source, a.target):
            out.append(MoveInstance("R1contract", arrows=(i,)))
    # R2
    groups_a: dict[tuple[str, str], list[int]] = {}
    groups_b: dict[tuple[str, str], list[int]] = {}
    for i, a in enumerate(g.arrows):
        groups_a.setdefault((a.source, a.label), []).append(i)
        groups_b.setdefault((a.target, a.label), []).append(i)
    for grp, kind in ((groups_a, "R2a"), (groups_b, "R2b")):
        for idxs in grp.values():
            for e1, e2 in combinations(idxs, 2):
                out.append(MoveInstance(kind, arrows=(e1, e2)))
    # R3
    seen_r3a = set()
    seen_r3b = set()
    for square in _squares(c):
        sides = square[1:]
        for pos in range(4):
            if c.flows[sides[pos]] == 0:
                key = (sides, pos)
                if key not in seen_r3a:
                    seen_r3a.add(key)
                    out.append(MoveInstance("R3a_remove", arrows=square, params=(pos,)))
        if not ignore_flows:
            if sides not in seen_r3b:
                seen_r3b.add(sides)
                for j in range(-r3b_range, r3b_range + 1):
                    if j:
                        out.append(MoveInstance("R3b_shift", arrows=square, params=(j,)))
    return out


def _incident_slots(g: SelfIndexedGraph, v: str) -> list[tuple[int, str]]:
    slots = []
    for j, a in enumerate(g.arrows):
        for role in ("s", "t", "l"):
            if _slot(a, role) == v:
                slots.append((j, role))
    return slots


def _subsets(items):
    n = len(items)
    for mask in range(1 << n):
        yield frozenset(items[k] for k in range(n) if mask >> k & 1)


def inverse_instances(
    c: Comte,
    *,
    flow_lo: int = -1,
    flow_hi: int = 2,
    ignore_flows: bool = False,
    max_split_slots: int = 10,
) -> list[MoveInstance]:
    """Enumerate inverse moves with bounded nondeterminism.

    Vertex splits enumerate all 2^k reassignments of the k incident slots
    (skipped when k exceeds ``max_split_slots``).  Flow splits I1 + I2 = I
    range over [flow_lo, flow_hi]; splits whose conservation-forced flow
    falls outside the window are not emitted, so every instance applies to a
    valid comte and yields a valid comte.  ``ignore_flows`` zeroes the flows
    first (bare-graph mode) and collapses the flow windows to {0}.
    """
    return _inverse_instances(c, flow_lo, flow_hi, ignore_flows, max_split_slots, new_vertices=True)


def _inverse_instances(
    c: Comte, flow_lo: int, flow_hi: int, ignore_flows: bool, max_split_slots: int, *, new_vertices: bool
) -> list[MoveInstance]:
    """The instances of ``inverse_instances``, in its order, leaving out the
    vertex-adding ones (R0inv, R1split, fresh splits) unless ``new_vertices``."""
    if ignore_flows:
        c = _zero_flows(c)
        flow_lo, flow_hi = 0, 0
    g = c.graph
    out: list[MoveInstance] = []
    # the vertices a vertex-adding instance (R0inv, R1split) may start from
    growing = g.vertices if new_vertices else ()
    # inverse R0: attach a pendant vertex, either direction, any label, flow 0
    for u in growing:
        for labelv in g.vertices:
            for flag in ("target", "source"):
                out.append(MoveInstance("R0inv", vertices=(u, labelv), flags=(flag,)))
    # inverse R1 (loop deletion): add a self-labeled loop with any flow in range
    for v in g.vertices:
        for j in range(flow_lo, flow_hi + 1):
            out.append(MoveInstance("R1loopadd", vertices=(v,), params=(j,)))
    # inverse R1 (contraction): split a vertex
    for v in growing:
        slots = _incident_slots(g, v)
        if len(slots) > max_split_slots:
            continue
        for moved in _subsets(slots):
            for direction in ("old_new", "new_old"):
                for label_half in ("old", "new"):
                    out.append(
                        MoveInstance(
                            "R1split",
                            vertices=(v,),
                            moved=moved,
                            flags=(direction, label_half),
                        )
                    )
    # inverse R2: split one arrow into two
    for ei, a in enumerate(g.arrows):
        flow = c.flows[ei]
        for i1 in range(flow_lo, flow_hi + 1):
            i2 = flow - i1
            if flow_lo <= i2 <= flow_hi:
                for kind in ("R2a_split", "R2b_split"):
                    out.append(
                        MoveInstance(kind, arrows=(ei,), params=(i1, i2), flags=("parallel",))
                    )
        if not new_vertices:
            continue  # a fresh split adds a vertex
        for kind, merge_role in (("R2a_split", "t"), ("R2b_split", "s")):
            mvert = _slot(a, merge_role)
            slots = [s for s in _incident_slots(g, mvert) if s != (ei, merge_role)]
            if len(slots) > max_split_slots:
                continue
            for moved in _subsets(slots):
                moved_out = sum(c.flows[j] for j, r in moved if r == "s" and j != ei)
                moved_in = sum(c.flows[j] for j, r in moved if r == "t" and j != ei)
                if merge_role == "t":
                    i2 = moved_out - moved_in + (flow if (ei, "s") in moved else 0)
                else:
                    i2 = moved_in - moved_out + (flow if (ei, "t") in moved else 0)
                i1 = flow - i2
                if flow_lo <= i1 <= flow_hi and flow_lo <= i2 <= flow_hi:
                    out.append(
                        MoveInstance(
                            kind,
                            arrows=(ei,),
                            params=(i1, i2),
                            moved=moved,
                            flags=("fresh",),
                        )
                    )
    # inverse R3a: insert the missing fourth side, flow 0
    out.extend(_r3a_add_instances(c))
    return out


def _r3a_add_instances(c: Comte) -> list[MoveInstance]:
    g = c.graph
    by_label: dict[str, list[int]] = {}
    by_source_label: dict[tuple[str, str], list[int]] = {}
    for i, a in enumerate(g.arrows):
        by_label.setdefault(a.label, []).append(i)
        by_source_label.setdefault((a.source, a.label), []).append(i)
    out = []
    seen = set()
    for wi, w in enumerate(g.arrows):
        a, b, t = w.label, w.source, w.target
        # missing right: left, bottom, top present
        for li in by_label.get(a, ()):
            left = g.arrows[li]
            for bi in by_source_label.get((left.target, t), ()):
                for ti in by_source_label.get((left.source, b), ()):
                    idxs = (wi, li, bi, ti)
                    if len(set(idxs)) == 4:
                        key = (3, li, bi, ti)
                        if key not in seen:
                            seen.add(key)
                            out.append(MoveInstance("R3a_add", arrows=idxs, params=(3,)))
        # missing top: left, bottom, right present; the new side's label is
        # the witness source, which the present sides do not determine, so
        # it is part of the dedup key
        for li in by_label.get(a, ()):
            left = g.arrows[li]
            for bi in by_source_label.get((left.target, t), ()):
                bottom = g.arrows[bi]
                for ri in by_label.get(a, ()):
                    right = g.arrows[ri]
                    if right.target == bottom.target:
                        idxs = (wi, li, bi, ri)
                        if len(set(idxs)) == 4:
                            key = (2, li, bi, ri, b)
                            if key not in seen:
                                seen.add(key)
                                out.append(MoveInstance("R3a_add", arrows=idxs, params=(2,)))
        # missing left: bottom, top, right present
        for ti in by_label.get(b, ()):
            top = g.arrows[ti]
            for ri in by_source_label.get((top.target, a), ()):
                right = g.arrows[ri]
                for bi in by_label.get(t, ()):
                    bottom = g.arrows[bi]
                    if bottom.target == right.target:
                        idxs = (wi, bi, ti, ri)
                        if len(set(idxs)) == 4:
                            key = (0, bi, ti, ri)
                            if key not in seen:
                                seen.add(key)
                                out.append(MoveInstance("R3a_add", arrows=idxs, params=(0,)))
        # missing bottom: left, top, right present; the new side's label is
        # the witness target, likewise undetermined by the present sides
        for li in by_label.get(a, ()):
            left = g.arrows[li]
            for ti in by_source_label.get((left.source, b), ()):
                top = g.arrows[ti]
                for ri in by_source_label.get((top.target, a), ()):
                    idxs = (wi, li, ti, ri)
                    if len(set(idxs)) == 4:
                        key = (1, li, ti, ri, t)
                        if key not in seen:
                            seen.add(key)
                            out.append(MoveInstance("R3a_add", arrows=idxs, params=(1,)))
    return out


# ---------------------------------------------------------------------------
# Bounded equivalence search


@dataclass(frozen=True)
class SearchBudget:
    max_states: int = 5000
    max_vertices: int = 8
    max_arrows: int = 12
    r3b_range: int = 2
    flow_lo: int = -1
    flow_hi: int = 2
    max_split_slots: int = 10


@dataclass(frozen=True)
class TraceStep:
    instance: MoveInstance
    before_key: bytes
    after_key: bytes


@dataclass(frozen=True)
class MoveTrace:
    steps: tuple[TraceStep, ...]

    def __len__(self):
        return len(self.steps)

    def format(self) -> str:
        return "".join(step.instance.format() + "\n" for step in self.steps)


def transport_instance(m: MoveInstance, vmap: dict[str, str], arrow_perm) -> MoveInstance:
    """Rewrite an instance's site through a vertex renaming and arrow
    reindexing (as produced by canonicalization)."""
    return MoveInstance(
        m.kind,
        arrows=tuple(arrow_perm[i] for i in m.arrows),
        vertices=tuple(vmap[v] for v in m.vertices),
        params=m.params,
        moved=frozenset((arrow_perm[j], r) for j, r in m.moved),
        flags=m.flags,
    )


def _canonical_comte(c: Comte) -> tuple[Comte, bytes]:
    cf = canonical_form(c)
    return cf.comte, cf.key


def _apply_canonical(c: Comte, m: MoveInstance):
    res = apply_move_detailed(c, m)
    cf = canonical_form(res.comte)
    inv = transport_instance(res.inverse, cf.vertex_map, cf.arrow_perm)
    return cf.comte, cf.key, inv


def _all_instances(c: Comte, budget: SearchBudget, ignore_flows: bool, vertex_room: int, arrow_room: int):
    """Forward, then inverse instances of ``c``.  Every inverse instance adds
    an arrow, so none is built without arrow room, and the vertex-adding ones
    are not built without vertex room."""
    yield from enumerate_moves(c, ignore_flows=ignore_flows, r3b_range=budget.r3b_range)
    if arrow_room > 0:
        yield from _inverse_instances(
            c, budget.flow_lo, budget.flow_hi, ignore_flows, budget.max_split_slots, new_vertices=vertex_room > 0
        )


def replay_trace(c: Comte, trace: MoveTrace, *, ignore_flows: bool = False) -> Comte:
    """Replay a trace from ``c``, checking the recorded canonical keys; the
    canonical form of the final comte is returned."""
    if ignore_flows:
        c = _zero_flows(c)
    state, key = _canonical_comte(c)
    for step in trace.steps:
        if key != step.before_key:
            raise MoveError("trace replay: state key mismatch")
        state, key, _ = _apply_canonical(state, step.instance)
        if key != step.after_key:
            raise MoveError("trace replay: step produced an unexpected state")
    return state


def equivalent_bounded(
    c1: Comte,
    c2: Comte,
    budget: SearchBudget | None = None,
    *,
    ignore_flows: bool = False,
) -> MoveTrace | None:
    """Bidirectional breadth-first search for a move sequence c1 -> c2.

    Returns a replayable trace when one is found within the budget, else
    None.  None is *not* a proof of inequivalence: the relation is only
    semi-decidable and the search is sound but incomplete.
    """
    budget = budget or SearchBudget()
    if ignore_flows:
        c1, c2 = _zero_flows(c1), _zero_flows(c2)
    start, start_key = _canonical_comte(c1)
    goal, goal_key = _canonical_comte(c2)
    if start_key == goal_key:
        return MoveTrace(())
    # visited[side][key] = (comte, parent_key, instance_on_parent, inverse_on_self)
    visited = [
        {start_key: (start, None, None, None)},
        {goal_key: (goal, None, None, None)},
    ]
    frontier = [[start_key], [goal_key]]
    n_states = 2

    def build_trace(meet_key, child_data, side):
        # child_data: the new edge discovered from `side` into the other side;
        # the search ends here, so it is recorded in place
        visited[side][meet_key] = child_data
        fwd, bwd = visited
        steps = []
        k = meet_key
        while True:
            comte_, parent, inst, _inv = fwd[k]
            if parent is None:
                break
            steps.append(TraceStep(inst, parent, k))
            k = parent
        steps.reverse()
        k = meet_key
        while True:
            comte_, parent, _inst, inv = bwd[k]
            if parent is None:
                break
            steps.append(TraceStep(inv, k, parent))
            k = parent
        return MoveTrace(tuple(steps))

    while frontier[0] and frontier[1] and n_states < budget.max_states:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        other = 1 - side
        new_frontier = []
        for key in frontier[side]:
            state = visited[side][key][0]
            vertex_room = budget.max_vertices - len(state.graph.vertices)
            arrow_room = budget.max_arrows - len(state.graph.arrows)
            for inst in _all_instances(state, budget, ignore_flows, vertex_room, arrow_room):
                try:
                    # reject oversize children before building them
                    dv, da = size_change(state, inst)
                    if dv > vertex_room or da > arrow_room:
                        continue
                    child, child_key, inv = _apply_canonical(state, inst)
                except MoveError:
                    continue
                if child_key in visited[other]:
                    return build_trace(child_key, (child, key, inst, inv), side)
                if child_key not in visited[side]:
                    visited[side][child_key] = (child, key, inst, inv)
                    new_frontier.append(child_key)
                    n_states += 1
                    if n_states >= budget.max_states:
                        break
            if n_states >= budget.max_states:
                break
        frontier[side] = new_frontier
    return None
