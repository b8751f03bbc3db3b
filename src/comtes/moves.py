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

A vertex split (R1split, or a "fresh" R2 split) sends the ``moved`` slots at
a vertex v to a fresh vertex w and adds one arrow.  Let F be the net flow
those slots carried off v: the flows of the arrows whose source moves less
those whose target moves.  The split conserves at w exactly when the new
arrow carries F if it points into w (R1split old_new, R2a_split), -F if it
points out of w (R1split new_old, R2b_split).  Only w and v change balance,
by amounts that sum to zero, so on a comte this is all of conservation.
Moving the complement of the ``moved`` slots instead, with the flags
mirrored, gives the same comte once v and w swap names (a fresh R2 split
swaps the two copies of the arrow and their flows), so only the splits
that keep the last slot at v are enumerated.

An R2 merge identifies one slot (the merge role) of two arrows that share
the label and the other end; its inverse splits it:

  merge role   merge   split       shared end
  t (target)   R2a     R2a_split   s (source)
  s (source)   R2b     R2b_split   t (target)

A "parallel" split moves no slot: it copies the arrow.  Its R2a and R2b
forms coincide, and the flow splits (I1, I2) and (I2, I1) differ only by
which copy is which, so only R2a_split with I1 <= I2 is enumerated.

A vertex split that moves no slot adds a pendant arrow with flow 0, and
two kinds of it are R0inv under another name: an R1split with the label on
the old half is R0inv(v, v, target) (old_new) or R0inv(v, v, source)
(new_old), and a fresh R2 split is R0inv at the shared end, labeled as the
split arrow.  R0inv is listed first, so these splits are not enumerated;
``apply_move`` still applies them.

The R3 square on a witness b --a--> t has corners P, Q, R, S and four
sides, by position:

  0 left    P -> Q  labeled a            P --top--> R
  1 bottom  Q -> S  labeled t            |          |
  2 top     P -> R  labeled b          left       right
  3 right   R -> S  labeled a            v          v
                                         Q -bottom-> S

An R3 site lists the witness, then the sides in position order (R3a_add
leaves out the missing one); ``params`` holds the position of the removed
or added side, or the shift J, which adds J to left and bottom and takes it
from top and right.  The full move R3 is the composition R3b_shift (drive
the doomed side's flow to 0) followed by R3a_remove.  Sites may share
vertices freely, but arrows referenced as distinct must be distinct.

The enumerators and rules work on index states (n, arrows, flows) with
vertices 0..n-1, (source, target, label) index arrows and instances whose
vertices are indices.  A fresh vertex comes last; R0 drops its vertex, and
a merge keeps the earlier one and shifts the later ones down, as
``core.quotient`` does.  The public functions name the result: a fresh
vertex after the one it splits off (``w`` for R0inv) with primes added.

Bare-graph mode is the zero-flow comte ``as_comte(g)`` under
``SearchBudget(r3b_range=0, flow_lo=0, flow_hi=0)``, where no move creates a
flow.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from itertools import combinations
from typing import NamedTuple

from .core import (Arrow, Comte, SelfIndexedGraph, _canonical_labeling, _index_form, _require_int, canonical_form,
                   canonical_labeling)

class MoveError(ValueError):
    """Raised when a move instance does not apply to the given comte."""


class MoveInstance(NamedTuple):
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


class ApplyResult(NamedTuple):
    comte: Comte
    vertex_map: dict[str, str | None]  # old vertex -> new vertex (None: deleted)
    inverse: MoveInstance              # applies to ``comte``, undoes the move


def _fresh_name(vertices, stem: str) -> str:
    used = set(vertices)
    cand = stem + "'"
    while cand in used:
        cand += "'"
    return cand


_POSITION = {"s": 0, "t": 1}  # of a slot in an index arrow; any other role is the label


def _slot(a: tuple[int, int, int], role: str) -> int:
    return a[_POSITION.get(role, 2)]


def _with_slot(a: tuple[int, int, int], role: str, value: int) -> tuple[int, int, int]:
    k = _POSITION.get(role, 2)
    return a[:k] + (value,) + a[k + 1 :]


def _stale_arrow(i: int) -> MoveError:
    return MoveError(f"stale site: arrow index {i} not present")


# The R3 square of the module docstring: each side, in position order, as
# (source corner, target corner, the slot of the witness that labels it).
_SIDES = (
    ("P", "Q", "l"),  # 0 left, labeled a
    ("Q", "S", "t"),  # 1 bottom, labeled t
    ("P", "R", "s"),  # 2 top, labeled b
    ("R", "S", "l"),  # 3 right, labeled a
)


def _corners(w, sides: dict) -> dict[str, int] | None:
    """The corner vertices fixed by the sides ``{position: arrow}`` of a
    square on the witness ``w``, or None when a side has the wrong label or
    two sides disagree on a corner."""
    corners: dict[str, int] = {}
    for pos, (s, t, l) in sides.items():
        src, tgt, role = _SIDES[pos]
        if l != _slot(w, role):
            return None
        for corner, v in ((src, s), (tgt, t)):
            if corners.setdefault(corner, v) != v:
                return None
    return corners


def _check_full_square(arrs, idxs) -> None:
    if len(set(idxs)) != 5:
        raise MoveError("square arrows must be distinct")
    w, *sides = (arrs[i] for i in idxs)
    if _corners(w, dict(enumerate(sides))) is None:
        raise MoveError("stale site: square relations do not hold")


def _merge(arrs, n: int, gone: int, into: int | None):
    """``arrs`` with vertex ``gone`` merged into ``into`` < ``gone``, or
    deleted when ``into`` is None, the later ones shifted down; and the
    vertex map, old index -> new index or None."""
    vmap = tuple(v if v < gone else into if v == gone else v - 1 for v in range(n))
    return tuple((vmap[s], vmap[t], vmap[l]) for s, t, l in arrs), vmap


def _incident_slots(arrs, v: int) -> list[tuple[int, str]]:
    slots = []
    for j, a in enumerate(arrs):
        for role, x in zip("stl", a):
            if x == v:
                slots.append((j, role))
    return slots


def _slots_after_drop(arrs, v: int, dropped: int, skip=None) -> frozenset:
    """The slots at ``v`` of the arrows other than ``dropped``, indexed as
    after ``dropped`` is deleted; the slot ``skip`` is left out."""
    return frozenset(
        (j - (j > dropped), role) for j, role in _incident_slots(arrs, v) if j != dropped and (j, role) != skip
    )


def _moved_flow(flows, moved) -> int:
    """The net flow F that the ``moved`` slots carry off their vertex (see
    the module docstring)."""
    return sum(flows[j] * ((role == "s") - (role == "t")) for j, role in moved)


def _r2_split_flow(flows, moved, merge_role: str) -> int:
    """The flow that conservation forces on the new arrow of a fresh R2
    split, whose ``merge_role`` slot is the fresh vertex."""
    flow = _moved_flow(flows, moved)
    return flow if merge_role == "t" else -flow


def _r0_site_error(arrs, flows, ei: int, p: int) -> str | None:
    """Why arrow ``ei`` and vertex ``p`` are not an R0 site, or None when
    they are."""
    s, t, l = arrs[ei]
    if (s == p) + (t == p) != 1 or l == p:
        return "R0: arrow is not a pendant arrow at the vertex"
    if any(x[2] == p for x in arrs):
        return "R0: vertex labels an arrow"
    if any(j != ei and p in x[:2] for j, x in enumerate(arrs)):
        return "R0: vertex has valence > 1"
    if flows[ei] != 0:
        return "R0: pendant arrow flow is nonzero"
    return None


def _r1_kind(a) -> str | None:
    """The R1 move that removes ``a``, if any: a self-labeled loop is
    deleted, an arrow between two vertices labeled by one of them is
    contracted."""
    if a[0] == a[1] == a[2]:
        return "R1loopdel"
    if a[0] != a[1] and a[2] in a[:2]:
        return "R1contract"
    return None


# The R2 roles of the module docstring: merge role -> (merge kind, split
# kind, shared end).
_R2 = {"t": ("R2a", "R2a_split", "s"), "s": ("R2b", "R2b_split", "t")}


def _split_off(arrs, names, v: int, moved, kind: str) -> list:
    """The arrows with the ``moved`` slots, each at ``v``, sent to the fresh
    vertex ``len(names)``.  An error names the least offending slot, so its
    text does not follow the set's iteration order."""
    arrs = list(arrs)
    bad = [(j, role) for j, role in moved if not 0 <= j < len(arrs) or _slot(arrs[j], role) != v]
    if bad:
        j, role = min(bad)
        if not 0 <= j < len(arrs):
            raise _stale_arrow(j)
        raise MoveError(f"{kind}: slot ({j},{role}) is not attached to {names[v]!r}")
    w = len(names)
    for j, role in moved:
        arrs[j] = _with_slot(arrs[j], role, w)
    return arrs


# ---------------------------------------------------------------------------
# Application


def apply_move(c: Comte, m: MoveInstance) -> Comte:
    """Apply a move instance; the result is a valid comte when ``c`` is."""
    return apply_move_detailed(c, m).comte


def apply_move_detailed(c: Comte, m: MoveInstance) -> ApplyResult:
    _check_shape(m)
    old, idx, state = _index_state(c, "apply_move")
    (n, new_arrs, flows), inverse, vmap, stem = _apply_rule(state, m, old, idx)
    if vmap is None:  # no vertex moves
        vmap = range(len(old))
    names = [None] * n  # the old vertices keep their names; a fresh one comes last
    for v, j in zip(old, vmap):
        if j is not None and names[j] is None:
            names[j] = v
    if n > len(old):
        names[-1] = _fresh_name(old, "w" if stem is None else old[stem])
    arrows = tuple([Arrow(names[s], names[t], names[l]) for s, t, l in new_arrs])
    vertex_map = {v: None if j is None else names[j] for v, j in zip(old, vmap)}
    return ApplyResult(Comte(SelfIndexedGraph(tuple(names), arrows), flows), vertex_map, _named_instance(inverse, names.__getitem__))


def _index_state(c: Comte, caller: str):
    """The vertex names, vertex index and index state of the comte ``c``."""
    if not isinstance(c, Comte):
        raise TypeError(f"{caller} takes a comte; as_comte(g) is the bare graph g as one")
    idx, arrs = _index_form(c.graph)
    return c.vertices, idx, (len(idx), arrs, c.flows)


def _check_shape(m: MoveInstance) -> None:
    entry = _KINDS.get(m.kind)
    if entry is None:
        raise MoveError(f"unknown move kind {m.kind!r}")
    for i in m.arrows:
        _require_int(i, "arrow index")
    for v in m.vertices:
        if not isinstance(v, str):
            raise MoveError(f"{m.kind}: vertices entry {v!r} is not a vertex name")
    for slot in m.moved:
        if not (isinstance(slot, tuple) and len(slot) == 2):
            raise MoveError(f"{m.kind}: moved entry {slot!r} is not an (arrow index, role) pair")
        j, role = slot
        _require_int(j, "arrow index")
        if role not in ("s", "t", "l"):
            raise MoveError(f"{m.kind}: bad slot role {role!r}")
    for p in m.params:
        _require_int(p, "move parameter")
    _, *counts, moves, flags = entry
    got = [len(m.arrows), len(m.vertices), len(m.params), len(m.flags)]
    if got != [*counts, len(flags)]:
        raise MoveError(f"{m.kind}: counts of arrows, vertices, params and flags are {got}, not {[*counts, len(flags)]}")
    if m.moved and not moves:
        raise MoveError(f"{m.kind}: moves no slots")
    for flag, allowed in zip(m.flags, flags):
        if flag not in allowed:
            raise MoveError(f"{m.kind}: bad flag {flag!r}")
    if m.kind.startswith("R3a") and m.params[0] not in range(4):
        raise MoveError(f"{m.kind}: bad side position {m.params[0]}")


def _named_instance(m: MoveInstance, name, arrow_perm=None) -> MoveInstance:
    """``m``, whose vertices are indices, with each vertex ``v`` named
    ``name(v)`` and its arrow indices sent through ``arrow_perm``."""
    if arrow_perm is not None:
        m = m._replace(arrows=tuple(arrow_perm[i] for i in m.arrows), moved=frozenset((arrow_perm[j], role) for j, role in m.moved))
    return m._replace(vertices=tuple(map(name, m.vertices)))


def _apply_rule(state, m: MoveInstance, names, idx):
    """Apply ``m``, which has the shape of its kind (``_check_shape``), to an
    index state.  This checks that its site is present, the one check of
    every rule, and hands the rule its vertices as indices looked up in
    ``idx``.  Returns the new state; the inverse ``MoveInstance``, its
    vertices given as the new state's vertex indices; the vertex map (old index
    -> new index or None) when a vertex goes, else None; and the stem of a
    fresh vertex's name, None for "w"."""
    for i in m.arrows:
        if not 0 <= i < len(state[1]):
            raise _stale_arrow(i)
    for v in m.vertices:
        if v not in idx:
            raise MoveError(f"stale site: vertex {v!r} not present")
    return _KINDS[m.kind][0](*state, m, names, tuple([idx[v] for v in m.vertices]))


def _apply_r0(n, arrs, flows, m, names, vs):
    (ei,) = m.arrows
    (p,) = vs
    a = arrs[ei]
    error = _r0_site_error(arrs, flows, ei, p)
    if error:
        raise MoveError(error)
    new, vmap = _merge(arrs[:ei] + arrs[ei + 1 :], n, p, None)
    attach = a[1] if a[0] == p else a[0]
    inverse = MoveInstance("R0inv", vertices=(vmap[attach], vmap[a[2]]), flags=("target" if a[1] == p else "source",))
    return (n - 1, new, flows[:ei] + flows[ei + 1 :]), inverse, vmap, None


def _apply_r0inv(n, arrs, flows, m, names, vs):
    attach, labelv = vs
    new = (attach, n, labelv) if m.flags == ("target",) else (n, attach, labelv)
    return (n + 1, arrs + (new,), flows + (0,)), MoveInstance("R0", (len(arrs),), (n,)), None, None


def _apply_r1contract(n, arrs, flows, m, names, vs):
    (ei,) = m.arrows
    a = arrs[ei]
    if _r1_kind(a) != "R1contract":
        raise MoveError("R1: arrow is not contractible")
    kept, vanished = sorted(a[:2])
    new, vmap = _merge(arrs[:ei] + arrs[ei + 1 :], n, vanished, kept)
    direction = "old_new" if a[1] == vanished else "new_old"
    label_half = "new" if a[2] == vanished else "old"
    inverse = MoveInstance("R1split", vertices=(kept,), moved=_slots_after_drop(arrs, vanished, ei), flags=(direction, label_half))
    return (n - 1, new, flows[:ei] + flows[ei + 1 :]), inverse, vmap, None


def _apply_r1split(n, arrs, flows, m, names, vs):
    (v,) = vs
    direction, label_half = m.flags
    arrows = _split_off(arrs, names, v, m.moved, "R1split")
    flow = _moved_flow(flows, m.moved)
    if direction == "old_new":
        new = (v, n, v if label_half == "old" else n)
    else:
        new = (n, v, v if label_half == "old" else n)
        flow = -flow
    return (n + 1, (*arrows, new), flows + (flow,)), MoveInstance("R1contract", (len(arrs),)), None, v


def _apply_r1loopdel(n, arrs, flows, m, names, vs):
    (ei,) = m.arrows
    a = arrs[ei]
    if _r1_kind(a) != "R1loopdel":
        raise MoveError("R1: arrow is not a self-labeled loop")
    inverse = MoveInstance("R1loopadd", vertices=(a[0],), params=(flows[ei],))
    return (n, arrs[:ei] + arrs[ei + 1 :], flows[:ei] + flows[ei + 1 :]), inverse, None, None


def _apply_r1loopadd(n, arrs, flows, m, names, vs):
    (v,) = vs
    (flow,) = m.params
    return (n, arrs + ((v, v, v),), flows + (flow,)), MoveInstance("R1loopdel", (len(arrs),)), None, None


def _apply_r2(n, arrs, flows, m, names, vs, merge_role: str):
    e1, e2 = m.arrows
    a1, a2 = arrs[e1], arrs[e2]
    if e1 == e2:
        raise MoveError("R2: arrows must be distinct")
    _, split_kind, shared = _R2[merge_role]
    if _slot(a1, shared) != _slot(a2, shared) or a1[2] != a2[2]:
        raise MoveError("R2: arrows do not share the required source/target and label")
    m1, m2 = _slot(a1, merge_role), _slot(a2, merge_role)
    new_flows = list(flows)
    new_flows[e1] += flows[e2]
    del new_flows[e2]
    arrows = arrs[:e2] + arrs[e2 + 1 :]
    params = (flows[e1], flows[e2])
    if m1 == m2:
        vmap, moved, flavor = None, frozenset(), "parallel"
    else:
        vanished = max(m1, m2)
        if vanished == m1:
            params = params[::-1]
        arrows, vmap = _merge(arrows, n, vanished, min(m1, m2))
        n -= 1
        # the merged slot of e1 is handled structurally by the split
        moved, flavor = _slots_after_drop(arrs, vanished, e2, skip=(e1, merge_role)), "fresh"
    inverse = MoveInstance(split_kind, (e1 - (e1 > e2),), params=params, moved=moved, flags=(flavor,))
    return (n, arrows, tuple(new_flows)), inverse, vmap, None


def _apply_r2_split(n, arrs, flows, m, names, vs, merge_role: str):
    (ei,) = m.arrows
    a = arrs[ei]
    i1, i2 = m.params
    if i1 + i2 != flows[ei]:
        raise MoveError("R2 split: flows do not sum to the arrow's flow")
    (flavor,) = m.flags
    new_flows = flows[:ei] + (i1,) + flows[ei + 1 :] + (i2,)
    if flavor == "parallel":
        if m.moved:
            raise MoveError("R2 split: parallel flavor moves no slots")
        out, stem = (n, arrs + (a,), new_flows), None
    else:
        if (ei, merge_role) in m.moved:
            raise MoveError("R2 split: the split slot cannot be moved")
        # the split slot stays where it is on ei and is the fresh vertex on
        # the new arrow
        stem = _slot(a, merge_role)
        arrows = _split_off(arrs, names, stem, m.moved, "R2 split")
        if i2 != _r2_split_flow(flows, m.moved, merge_role):
            raise MoveError("R2 split: flow split violates conservation")
        out = (n + 1, (*arrows, _with_slot(arrows[ei], merge_role, n)), new_flows)
    return out, MoveInstance(_R2[merge_role][0], (ei, len(arrs))), None, stem


def _apply_r3a_remove(n, arrs, flows, m, names, vs):
    _check_full_square(arrs, m.arrows)
    (pos,) = m.params
    doomed = m.arrows[1 + pos]
    if flows[doomed] != 0:
        raise MoveError("R3a: the removed side must carry flow 0")
    remaining = tuple(j - (j > doomed) for k, j in enumerate(m.arrows) if k != 1 + pos)
    inverse = MoveInstance("R3a_add", remaining, params=(pos,))
    return (n, arrs[:doomed] + arrs[doomed + 1 :], flows[:doomed] + flows[doomed + 1 :]), inverse, None, None


def _apply_r3a_add(n, arrs, flows, m, names, vs):
    (pos,) = m.params
    w, *sides = (arrs[j] for j in m.arrows)
    if len(set(m.arrows)) != 4:
        raise MoveError("R3a_add: arrows must be distinct")
    corners = _corners(w, dict(zip((p for p in range(4) if p != pos), sides)))
    if corners is None:
        raise MoveError("R3a_add: stale site, three-sided square relations fail")
    src, tgt, role = _SIDES[pos]
    inverse = MoveInstance("R3a_remove", (*m.arrows[: 1 + pos], len(arrs), *m.arrows[1 + pos :]), params=(pos,))
    return (n, arrs + ((corners[src], corners[tgt], _slot(w, role)),), flows + (0,)), inverse, None, None


def _apply_r3b(n, arrs, flows, m, names, vs):
    _check_full_square(arrs, m.arrows)
    (j,) = m.params
    shift = dict(zip(m.arrows[1:], (j, j, -j, -j)))  # left and bottom gain J, top and right lose it
    return (n, arrs, tuple(f + shift.get(k, 0) for k, f in enumerate(flows))), MoveInstance("R3b_shift", m.arrows, params=(-j,)), None, None


# Each kind's rule, then the shape of its instances: how many arrows,
# vertices and params it names, whether it may move slots, and the values
# each of its flags may take.  ``apply_move_detailed`` checks the shape, so
# the rules need not; the search applies only enumerated instances, which
# have it.
_KINDS = {
    "R0": (_apply_r0, 1, 1, 0, False, ()),
    "R0inv": (_apply_r0inv, 0, 2, 0, False, (("target", "source"),)),
    "R1contract": (_apply_r1contract, 1, 0, 0, False, ()),
    "R1split": (_apply_r1split, 0, 1, 0, True, (("old_new", "new_old"), ("old", "new"))),
    "R1loopdel": (_apply_r1loopdel, 1, 0, 0, False, ()),
    "R1loopadd": (_apply_r1loopadd, 0, 1, 1, False, ()),
    **{kind: (partial(_apply_r2, merge_role=role), 2, 0, 0, False, ()) for role, (kind, _, _) in _R2.items()},
    **{split_kind: (partial(_apply_r2_split, merge_role=role), 1, 0, 2, True, (("parallel", "fresh"),))
       for role, (_, split_kind, _) in _R2.items()},
    "R3a_remove": (_apply_r3a_remove, 5, 0, 1, False, ()),
    "R3a_add": (_apply_r3a_add, 4, 0, 1, False, ()),
    "R3b_shift": (_apply_r3b, 5, 0, 1, False, ()),
}

# ---------------------------------------------------------------------------
# Enumeration


# For each position, the order in which the join takes the present sides
# of a square that lacks the side there; for one witness, R3a_add instances
# come out in this position order.
_JOIN_ORDER = {3: (0, 1, 2), 2: (0, 1, 3), 0: (2, 3, 1), 1: (0, 2, 3)}


def _square_join(arrs, orders: dict):
    """Full or partial squares of the index arrows ``arrs``.  ``orders``
    maps a key to the positions of the sides wanted, in the order the join
    takes them.  For each witness ``wi`` in turn, then each key, this yields every
    (wi, key, sides, corners): ``sides`` are distinct arrows, in position
    order, that fit a square on that witness, and ``corners`` the corners
    they fix.  A side is looked up by source and label when its source
    corner is fixed already, by label otherwise, and must meet its target
    corner when that is fixed."""
    by_label: dict[int, list[int]] = {}
    by_source_label: dict[tuple[int, int], list[int]] = {}
    for i, (s, _, l) in enumerate(arrs):
        by_label.setdefault(l, []).append(i)
        by_source_label.setdefault((s, l), []).append(i)

    def extend(w, order, used, corners):
        if len(used) > len(order):
            yield used[1:], corners
            return
        src, tgt, role = _SIDES[order[len(used) - 1]]
        label = _slot(w, role)
        if src in corners:
            candidates = by_source_label.get((corners[src], label), ())
        else:
            candidates = by_label.get(label, ())
        for i in candidates:
            s, t, _ = arrs[i]
            if i not in used and corners.get(tgt, t) == t:
                yield from extend(w, order, used + (i,), {**corners, src: s, tgt: t})

    for wi, w in enumerate(arrs):
        for key, order in orders.items():
            for sides, corners in extend(w, order, (wi,), {}):
                yield wi, key, tuple(i for _, i in sorted(zip(order, sides))), corners


@dataclass(frozen=True)
class SearchBudget:
    """The limits of a bounded search and the windows of its instances."""

    max_states: int = 5000
    max_vertices: int = 8
    max_arrows: int = 12
    r3b_range: int = 2
    flow_lo: int = -1
    flow_hi: int = 2
    max_split_slots: int = 10

    def __post_init__(self):
        for f in fields(self):
            _require_int(getattr(self, f.name), f.name, None if f.name in ("flow_lo", "flow_hi") else 0)
        if self.flow_lo > self.flow_hi:
            raise ValueError(f"empty flow window: flow_lo={self.flow_lo} > flow_hi={self.flow_hi}")


def _require_budget(budget) -> SearchBudget:
    if not isinstance(budget, SearchBudget):
        raise TypeError(f"budget must be a SearchBudget, got {budget!r}")
    return budget


def enumerate_moves(c: Comte, budget: SearchBudget = SearchBudget()) -> list[MoveInstance]:
    """Complete list of applicable forward move instances.

    R3b instances are emitted for shifts J in +-``budget.r3b_range`` (the
    family is infinite; the window is a search parameter).
    """
    names, _, state = _index_state(c, "enumerate_moves")
    return [_named_instance(m, names.__getitem__) for m in _enumerate_moves(*state, _require_budget(budget))]


def _enumerate_moves(n: int, arrs, flows, budget: SearchBudget) -> list[MoveInstance]:
    """``enumerate_moves`` on an index state."""
    out: list[MoveInstance] = []
    # R0: the one arrow at p, if it is a site
    for p in range(n):
        i = next((i for i, a in enumerate(arrs) if p in a[:2]), None)
        if i is not None and _r0_site_error(arrs, flows, i, p) is None:
            out.append(MoveInstance("R0", arrows=(i,), vertices=(p,)))
    # R1
    for i, a in enumerate(arrs):
        kind = _r1_kind(a)
        if kind:
            out.append(MoveInstance(kind, arrows=(i,)))
    # R2: arrows grouped by shared end and label
    for kind, _, shared in _R2.values():
        groups: dict[tuple[int, int], list[int]] = {}
        for i, a in enumerate(arrs):
            groups.setdefault((_slot(a, shared), a[2]), []).append(i)
        for idxs in groups.values():
            for e1, e2 in combinations(idxs, 2):
                out.append(MoveInstance(kind, arrows=(e1, e2)))
    # R3: a square found again on another witness adds nothing
    seen = set()
    for wi, _, sides, _ in _square_join(arrs, {"full": (0, 1, 2, 3)}):
        if sides in seen:
            continue
        seen.add(sides)
        square = (wi, *sides)
        for pos in range(4):
            if flows[sides[pos]] == 0:
                out.append(MoveInstance("R3a_remove", arrows=square, params=(pos,)))
        for j in range(-budget.r3b_range, budget.r3b_range + 1):
            if j:
                out.append(MoveInstance("R3b_shift", arrows=square, params=(j,)))
    return out


def _split_sets(arrs, v: int, budget: SearchBudget, keep=None):
    """The slot sets that a split of ``v`` may move: of the slots at ``v``
    other than ``keep``, every subset that leaves the last one at ``v``
    (its complement is the mirror split), or none when there are more than
    ``budget.max_split_slots`` of them."""
    slots = [s for s in _incident_slots(arrs, v) if s != keep]
    if len(slots) <= budget.max_split_slots:
        for mask in range(1 << max(len(slots) - 1, 0)):
            yield frozenset(s for k, s in enumerate(slots) if mask >> k & 1)


def inverse_instances(c: Comte, budget: SearchBudget = SearchBudget()) -> list[MoveInstance]:
    """Enumerate inverse moves with bounded nondeterminism.

    Each inverse split is listed once per outcome (see the module
    docstring).  Vertex splits enumerate the 2^(k-1) reassignments of the k
    incident slots that keep the last slot at the vertex, as moving the
    complement gives the same comte (skipped when k exceeds
    ``budget.max_split_slots``).  Flow splits I1 + I2 = I range over
    [``budget.flow_lo``, ``budget.flow_hi``]; a parallel split, which
    copies the arrow, is listed as R2a_split alone with I1 <= I2.  A split
    that moves no slot and only attaches a pendant arrow that an earlier
    R0inv instance attaches is left out: an R1split with the label on the
    old half, and every fresh R2 split.  Splits whose conservation-forced
    flow falls outside the window are not emitted, so every instance
    applies to a valid comte and yields a valid comte.  Each instance adds
    one arrow.
    """
    names, _, state = _index_state(c, "inverse_instances")
    return [_named_instance(m, names.__getitem__) for m in _inverse_instances(*state, _require_budget(budget), True)]


def _inverse_instances(n: int, arrs, flows, budget: SearchBudget, new_vertices: bool) -> list[MoveInstance]:
    """``inverse_instances`` on an index state, less the vertex-adding
    instances (R0inv, R1split, fresh splits) when ``new_vertices`` is false."""
    flow_lo, flow_hi = budget.flow_lo, budget.flow_hi
    out: list[MoveInstance] = []
    # the vertices a vertex-adding instance (R0inv, R1split) may start from
    growing = range(n) if new_vertices else ()
    # inverse R0: attach a pendant vertex, either direction, any label, flow 0
    for u in growing:
        for labelv in range(n):
            for flag in ("target", "source"):
                out.append(MoveInstance("R0inv", vertices=(u, labelv), flags=(flag,)))
    # inverse R1 (loop deletion): add a self-labeled loop with any flow in range
    for v in range(n):
        for j in range(flow_lo, flow_hi + 1):
            out.append(MoveInstance("R1loopadd", vertices=(v,), params=(j,)))
    # inverse R1 (contraction): split a vertex
    for v in growing:
        for moved in _split_sets(arrs, v, budget):
            for direction in ("old_new", "new_old"):
                # moving no slot, with the label on the old half, is R0inv(v, v)
                for label_half in ("old", "new") if moved else ("new",):
                    out.append(MoveInstance("R1split", vertices=(v,), moved=moved, flags=(direction, label_half)))
    # inverse R2: split one arrow into two
    for ei, a in enumerate(arrs):
        flow = flows[ei]
        # a parallel split copies the arrow, so R2b_split and the swapped
        # flows (i2, i1) give the same comte
        for i1 in range(flow_lo, flow_hi + 1):
            i2 = flow - i1
            if i1 <= i2 <= flow_hi:
                out.append(MoveInstance("R2a_split", arrows=(ei,), params=(i1, i2), flags=("parallel",)))
        if not new_vertices:
            continue  # a fresh split adds a vertex
        for merge_role, (_, kind, _) in _R2.items():
            for moved in _split_sets(arrs, _slot(a, merge_role), budget, keep=(ei, merge_role)):
                if not moved:
                    continue  # R0inv at the shared end, labeled as the arrow
                i2 = _r2_split_flow(flows, moved, merge_role)
                i1 = flow - i2
                if flow_lo <= i1 <= flow_hi and flow_lo <= i2 <= flow_hi:
                    out.append(MoveInstance(kind, arrows=(ei,), params=(i1, i2), moved=moved, flags=("fresh",)))
    # inverse R3a: insert the missing fourth side, flow 0; the same three
    # sides with a differently labeled new side make a different instance
    seen = set()
    for wi, pos, sides, corners in _square_join(arrs, _JOIN_ORDER):
        src, tgt, role = _SIDES[pos]
        key = (pos, sides, (corners[src], corners[tgt], _slot(arrs[wi], role)))
        if key not in seen:
            seen.add(key)
            out.append(MoveInstance("R3a_add", arrows=(wi, *sides), params=(pos,)))
    return out


# ---------------------------------------------------------------------------
# Bounded equivalence search


class TraceStep(NamedTuple):
    instance: MoveInstance
    before_key: bytes
    after_key: bytes


@dataclass(frozen=True)
class MoveTrace:
    """The steps of a move sequence, each with the keys around it."""

    steps: tuple[TraceStep, ...]

    def __len__(self):
        return len(self.steps)

    def format(self) -> str:
        return "".join(step.instance.format() + "\n" for step in self.steps)


def replay_trace(c: Comte, trace: MoveTrace) -> Comte:
    """Replay a trace from ``c``, checking the recorded canonical keys; the
    canonical comte of the final state is returned."""
    cf = canonical_form(c)
    state, key = cf.comte, cf.key
    for step in trace.steps:
        if key != step.before_key:
            raise MoveError("trace replay: state key mismatch")
        cf = canonical_form(apply_move(state, step.instance))
        if cf.key != step.after_key:
            raise MoveError("trace replay: step produced an unexpected state")
        state, key = cf.comte, cf.key
    return state


def equivalent_bounded(c1: Comte, c2: Comte, budget: SearchBudget | None = None) -> MoveTrace | None:
    """Bidirectional breadth-first search for a move sequence c1 -> c2.

    Returns a replayable trace when one is found within the budget, else
    None.  None is *not* a proof of inequivalence: the relation is only
    semi-decidable and the search is sound but incomplete.
    """
    if not (isinstance(c1, Comte) and isinstance(c2, Comte)):
        raise TypeError("equivalent_bounded takes two comtes; as_comte(g) is the bare graph g as one")
    budget = _require_budget(SearchBudget() if budget is None else budget)
    ends = canonical_labeling(c1), canonical_labeling(c2)
    if ends[0].key == ends[1].key:
        return MoveTrace(())
    # one tuple per distinct canonical (source, target, label, flow) arrow
    arrow_tuples = {}

    def kept(lab):
        return len(lab.vertex_ranks), tuple([arrow_tuples.setdefault(a, a) for a in lab.arrows])

    # visited[side][key] = ((n, arrows), parent_key, instance_on_parent): the
    # vertex count and canonical arrows of the state; the instance names
    # vertices by index, as every instance inside the search does
    visited = [{lab.key: (kept(lab), None, None)} for lab in ends]
    frontier = [[lab.key] for lab in ends]
    n_states = 2

    def index_state(side, key):
        # the canonical comte and its vertex index, where a vertex is its key
        (n, arrows), _, _ = visited[side][key]
        return (n, tuple([a[:3] for a in arrows]), tuple([a[3] for a in arrows])), range(n)

    def label(n, arrs, flows):
        return _canonical_labeling(n, [(s, t, l, f) for (s, t, l), f in zip(arrs, flows)], b"c")

    def walk(side, k):
        # each state from k back to the end of `side`, with its entry
        while (entry := visited[side][k])[1] is not None:
            yield k, entry
            k = entry[1]

    def build_trace(meet_key, child_entry, side):
        # child_entry: the new edge discovered from `side` into the other
        # side; the search ends here, so it is recorded in place.  Canonical
        # vertex r is named str(r)
        visited[side][meet_key] = child_entry
        steps = [TraceStep(_named_instance(inst, str), parent, k) for k, (_, parent, inst) in walk(0, meet_key)][::-1]
        for k, (_, parent, inst) in walk(1, meet_key):
            # applying and labeling are deterministic, so this is the inverse
            # and the labeling that the search saw
            state, idx = index_state(1, parent)
            (n, arrs, flows), inv, _, _ = _apply_rule(state, inst, idx, idx)
            lab = label(n, arrs, flows)
            steps.append(TraceStep(_named_instance(inv, lambda v: str(lab.vertex_ranks[v]), lab.arrow_perm()), k, parent))
        return MoveTrace(tuple(steps))

    while frontier[0] and frontier[1] and n_states < budget.max_states:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        new_frontier = []
        for key in frontier[side]:
            state, idx = index_state(side, key)
            # no forward move grows a state and each inverse one adds an
            # arrow, so inverse instances are generated only with arrow room
            # and vertex-adding ones only with vertex room; then only an end
            # state beyond the budget has children that do not fit
            enumerators = [_enumerate_moves]
            if len(state[1]) < budget.max_arrows:
                enumerators.append(partial(_inverse_instances, new_vertices=len(idx) < budget.max_vertices))
            for enumerator in enumerators:
                for inst in enumerator(*state, budget):
                    (n, child_arrs, flows), _, _, _ = _apply_rule(state, inst, idx, idx)
                    if n > budget.max_vertices or len(child_arrs) > budget.max_arrows:
                        continue
                    # every child is labeled, and kept as its canonical arrows
                    child = label(n, child_arrs, flows)
                    child_key = child.key
                    if child_key in visited[1 - side]:
                        return build_trace(child_key, (kept(child), key, inst), side)
                    if child_key not in visited[side]:
                        visited[side][child_key] = (kept(child), key, inst)
                        new_frontier.append(child_key)
                        n_states += 1
                        if n_states >= budget.max_states:
                            return None
        frontier[side] = new_frontier
    return None
